"""Contact characteristic flow and the stationary periodic orbit.

The characteristics of H(x, u', u) = 0 follow the contact vector field
x' = H_p, p' = -H_x - H_u p, u' = H_p p - H (``contact_field``).  One
classical RK4 step (``_rk4_step``) integrates it for the contact flow
(``integrate_contact``), for the batch flow of the shooting action
(``semigroup._flow_batch``) and, reparametrized by x, for the graph sweep
(``_graph_sweep``).

The stationary smooth solution of H(x, u', u) = 0 is found by shooting:
where the graph speed dH/dp never vanishes, the orbit of the contact
system is a graph over the circle, so reparametrizing the characteristic
ODE by x turns the orbit search into a two-unknown periodic boundary
value problem for (p(0), u(0)).  A damped Newton iteration closes it,
one sweep per step: its 2x2 Jacobian comes from the tables of the sweep
it already ran (``_sweep_jacobian``), as the exact derivative of the RK4
steps, chained from the field's forward-difference Jacobians at their
stage points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, NotConverged, TurningPoint
from .model import HamiltonianModel

B_MIN_TOL = 1e-6     # |H_p| below which a graph is not transverse
BLOW_LIMIT = 500.0   # |p| and |u| bound of the contact flow
_SWEEP_BLOW = 1e8    # |p| and |u| bound of the graph sweep


@dataclass(frozen=True)
class ContactState:
    """Point of the contact phase space; x is reduced mod 1."""

    x: float
    p: float
    u: float


@dataclass
class OrbitResult:
    """Stationary graph and derived quantities from a successful shot.

    Tables are sampled on the inclusive node set x_k = k/n, k = 0..n.
    ``speed`` is dH/dp along the graph (the CSV column ``B``); ``phase``
    is the rescaled travel time around the loop, increasing from 0 to
    2*pi (CSV column ``f``); ``loop_integral`` is the signed integral of
    -1/speed around the circle, whose magnitude equals the period.
    """

    x_nodes: np.ndarray
    t_of_x: np.ndarray
    p_of_x: np.ndarray
    u_of_x: np.ndarray
    speed: np.ndarray
    phase: np.ndarray
    period: float
    loop_integral: float
    h_residual: float
    p0: float
    u0: float
    model_name: str
    newton_iterations: int = 0

    def u0_at(self, x):
        return _interp_inclusive(self.x_nodes, self.u_of_x, x)

    def p0_at(self, x):
        return _interp_inclusive(self.x_nodes, self.p_of_x, x)

    def speed_at(self, x):
        return _interp_inclusive(self.x_nodes, self.speed, x)

    def phase_at(self, x):
        return _interp_inclusive(self.x_nodes, self.phase, x)

    def samples(self):
        """Orbit samples ordered by time: rows (t, x, p, u)."""
        order = np.argsort(self.t_of_x, kind="stable")
        return np.column_stack([self.t_of_x[order], self.x_nodes[order],
                                self.p_of_x[order], self.u_of_x[order]])


def _interp_inclusive(x_nodes, values, x):
    return np.interp(np.asarray(x, dtype=float) % 1.0, x_nodes, values)


def _rk4_step(field, s, y, h):
    """One classical RK4 step of length h for dy/ds = field on a triple y.

    The field is called as field(s, j, *y) at the start (j = 0), the
    midpoint (j = 1) and the end (j = 2) of the step that begins at s, and
    returns the triple dy/ds.  The entries of y are floats or numpy arrays
    of one shape.
    """
    y0, y1, y2 = y
    half = 0.5 * h
    a1, b1, c1 = field(s, 0, y0, y1, y2)
    a2, b2, c2 = field(s, 1, y0 + half * a1, y1 + half * b1, y2 + half * c1)
    a3, b3, c3 = field(s, 1, y0 + half * a2, y1 + half * b2, y2 + half * c2)
    a4, b4, c4 = field(s, 2, y0 + h * a3, y1 + h * b3, y2 + h * c3)
    return (y0 + h * (a1 + 2 * a2 + 2 * a3 + a4) / 6.0,
            y1 + h * (b1 + 2 * b2 + 2 * b3 + b4) / 6.0,
            y2 + h * (c1 + 2 * c2 + 2 * c3 + c4) / 6.0)


def _callback_terms(model: HamiltonianModel, x, p, u):
    """(H_p, -H_x - H_u p, H) from the model callables.

    The contact field and the graph field both start from these terms; the
    graph field divides by H_p and takes H itself.
    """
    hp = model.d_p(x, p, u)
    hx = model.d_x(x, p, u)
    hu = model.d_u(x, p, u)
    return hp, -hx - hu * p, model.eval_H(x, p, u)


def contact_field(model: HamiltonianModel):
    """The contact vector field (H_p, -H_x - H_u p, H_p p - H) of the model.

    The field is autonomous: field(s, j, x, p, u) ignores s and j.
    """
    def field(s, j, x, p, u):
        hp, dp, hv = _callback_terms(model, x, p, u)
        return hp, dp, hp * p - hv
    return field


def integrate_contact(model: HamiltonianModel, s0: ContactState, t_span, dt):
    """Fixed-step RK4 integration of the contact characteristic system.

    Returns (times, states, winding): states keep x reduced mod 1 while
    winding counts signed circle traversals.  Raises BlowUp when |p| or
    |u| exceeds BLOW_LIMIT.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / steps
    field = contact_field(model)
    x, p, u = float(s0.x), float(s0.p), float(s0.u)
    times = [t0]
    states = [ContactState(x % 1.0, p, u)]
    for k in range(steps):
        x, p, u = _rk4_step(field, t0 + k * h, (x, p, u), h)
        if abs(p) > BLOW_LIMIT or abs(u) > BLOW_LIMIT:
            raise BlowUp(f"|p| or |u| exceeded {BLOW_LIMIT:g} at t = {t0 + (k + 1) * h:g}")
        times.append(t0 + (k + 1) * h)
        states.append(ContactState(x % 1.0, p, u))
    winding = int(np.floor(x))
    return np.array(times), states, winding


def _not_transverse(hp, x):
    """The TurningPoint raised where the graph speed |H_p| is too small."""
    return TurningPoint(
        f"|dH/dp| = {abs(hp):.3g} < {B_MIN_TOL:g} near x = {x:.6f}; "
        "the candidate graph is not transverse"
    )


def _graph_field(model: HamiltonianModel, n):
    """Field of the graph ODE d(t, p, u)/dx for a sweep over n cells.

    It is the contact field divided by x' = H_p:
    (1/H_p, (-H_x - H_u p)/H_p, p - H/H_p).  The sweep calls it at step k
    as field(k, j, t, p, u), at x = k/n + j/(2n).  Quadratic models read
    their coefficients from tables at the stage points i/(2n), i = 2k + j,
    so the sweep runs in plain floats; other models call back.  Raises
    TurningPoint when |H_p| drops below B_MIN_TOL.

    Returns (field, array_kw).  Called with the keywords ``array_kw``, the
    same field takes numpy arrays k, p and u of one shape and evaluates
    every entry at once: it reads array tables, keeps numpy results and
    skips the transversality test (a zero tolerance never raises).
    """
    h = 1.0 / n
    half = 0.5 * h
    q = model.quad_coeffs
    if q is None:
        # Python floats: numpy scalars would slow the sweep's arithmetic
        def field(k, j, t, pv, uv, real=float, tol=B_MIN_TOL):
            x = k * h + half * j
            hp, dp, hv = _callback_terms(model, x, pv, uv)
            if tol and abs(hp) < tol:
                raise _not_transverse(hp, x)
            inv = 1.0 / real(hp)
            return inv, inv * real(dp), pv - real(hv) * inv
        return field, dict(real=np.asarray, tol=0.0)

    xs = np.arange(2 * n + 1) / (2.0 * n)
    A, Ap, B, Bp, Vv, Vp = (np.broadcast_to(np.asarray(f(xs), float), xs.shape)
                            for f in (q.a, q.a_x, q.b, q.b_x, q.V, q.V_x))
    arrays = dict(A=A, Ap=Ap, B=B, Bp=Bp, c_hx=Vp - 0.5 * Ap * B * B - A * B * Bp,
                  c_h=Vv - 0.5 * A * B * B)
    A, Ap, B, Bp, c_hx, c_h = (v.tolist() for v in arrays.values())
    lam = float(q.lam)

    def field(k, j, t, pv, uv, A=A, Ap=Ap, B=B, Bp=Bp, c_hx=c_hx, c_h=c_h,
              tol=B_MIN_TOL):
        i = 2 * k + j
        q = pv + B[i]
        hp = A[i] * q
        if tol and abs(hp) < tol:
            raise _not_transverse(hp, i * half)
        hx = (0.5 * Ap[i] * q + A[i] * Bp[i]) * q + c_hx[i]
        hval = 0.5 * A[i] * q * q + c_h[i] - lam * uv
        inv = 1.0 / hp
        return inv, inv * (-hx + lam * pv), pv - hval * inv
    return field, dict(arrays, tol=0.0)


def _graph_sweep(field, p0, u0, n):
    """RK4 sweep of the graph ODE over the n cells of [0, 1].

    Returns the inclusive tables (t, p, u) at x_k = k/n.  Raises BlowUp
    when |p| or |u| leaves the sweep window.
    """
    h = 1.0 / n
    y = (0.0, float(p0), float(u0))
    # one list of floats per table: unlike tuples, floats are not tracked
    # by the garbage collector
    t, p, u = ([v] for v in y)
    for k in range(n):
        y = _rk4_step(field, k, y, h)
        if abs(y[1]) > _SWEEP_BLOW or abs(y[2]) > _SWEEP_BLOW:
            raise BlowUp(f"graph sweep blew up near x = {k * h:g}")
        t.append(y[0])
        p.append(y[1])
        u.append(y[2])
    return np.array(t), np.array(p), np.array(u)


def integrate_reduced(model: HamiltonianModel, p_start, u_start, n=1024):
    """RK4 sweep of the graph ODE in the circle coordinate on [0, 1].

    Integrates dt/dx = 1/H_p and the matching equations for p and u on n
    uniform steps; returns the inclusive tables (t, p, u) at x_k = k/n.
    Raises TurningPoint when |H_p| drops below B_MIN_TOL.
    """
    return _graph_sweep(_graph_field(model, n)[0], p_start, u_start, n)


def _sweep_jacobian(field, array_kw, p, u):
    """d(p(1), u(1))/d(p(0), u(0)) of the sweep whose tables are p and u.

    The field does not depend on t, so only (p, u) carry the derivative.
    From the tables, the four RK4 stage points of all n cells are rebuilt
    at once (on the table path by the sweep's own IEEE operations), with
    the field's 2x2 Jacobian in (p, u) at each by forward differences.
    The stage Jacobians chain into the exact derivative of each step,
    D1 = J1, D2 = J2 (I + h/2 D1), D3 = J3 (I + h/2 D2),
    D4 = J4 (I + h D3), M_k = I + h/6 (D1 + 2 D2 + 2 D3 + D4),
    and M_{n-1} ... M_0 is multiplied as a pairwise tree.
    """
    n = p.size - 1
    h = 1.0 / n
    half = 0.5 * h
    k = np.broadcast_to(np.arange(n), (3, n))
    y = np.stack([p[:-1], u[:-1]])
    eye = np.eye(2)
    # the caller raises TurningPoint on a non-finite Jacobian
    with np.errstate(all="ignore"):
        f = D = total = None
        # (field stage j, step to the stage point, RK4 weight)
        for j, c, weight in ((0, 0.0, 1.0), (1, half, 2.0), (1, half, 2.0),
                             (2, h, 1.0)):
            stage = y if D is None else y + c * f[:, 0]
            eps = 1e-7 * (1.0 + np.abs(stage))
            # rows: the stage point, then p and u each stepped by its eps
            points = np.repeat(stage[:, None], 3, axis=1)
            points[0, 1] += eps[0]
            points[1, 2] += eps[1]
            f = np.stack(field(k, j, None, points[0], points[1],
                               **array_kw)[1:])
            # J[i, r, s] = d(field_r)/d(y_s) at the stage point of cell i
            J = ((f[:, 1:] - f[:, :1]) / eps).transpose(2, 0, 1)
            D = J if D is None else J @ (eye + c * D)
            total = weight * D if total is None else total + weight * D
        mats = eye + (h / 6.0) * total
        while len(mats) > 1:
            m = len(mats)
            pairs = mats[1::2] @ mats[:m - 1:2]
            mats = np.concatenate([pairs, mats[m - 1:]]) if m % 2 else pairs
    return mats[0]


def shoot_stationary_orbit(model: HamiltonianModel, guess=(0.0, 0.0),
                           n=1024) -> OrbitResult:
    """Damped Newton solve of the periodic boundary value problem.

    The residual is (p(1) - p(0), u(1) - u(0)) from the circle sweep;
    periodicity forces the orbit onto the zero-energy surface, so the
    converged tables satisfy H = 0 and p = u' automatically.  Multiple
    branches are possible; the solver returns the one reached from the
    caller's guess.  The tables are those of the last accepted sweep.

    Each Newton step takes its Jacobian from the tables of the accepted
    sweep (``_sweep_jacobian``), so it sweeps only for the damped line
    search: once per step when the full step is taken.  Raises
    TurningPoint where the graph speed vanishes (also when that leaves
    the Jacobian non-finite) and NotConverged when the Jacobian is
    singular, the damping fails or 100 steps do not reach 1e-12.
    """
    field, array_kw = _graph_field(model, n)

    def shot(qv):
        """(tables, residual) of the sweep from qv = (p0, u0)."""
        tables = _graph_sweep(field, qv[0], qv[1], n)
        return tables, np.array([tables[1][-1] - qv[0], tables[2][-1] - qv[1]])

    def try_shot(qv):
        try:
            return shot(qv)
        except (TurningPoint, BlowUp):
            return None

    q = np.array(guess, dtype=float)
    tables, r = shot(q)  # raises TurningPoint on a bad guess
    iterations = 0
    for iterations in range(1, 101):
        if np.max(np.abs(r)) <= 1e-12:
            break
        jac = _sweep_jacobian(field, array_kw, tables[1], tables[2]) - np.eye(2)
        if not np.all(np.isfinite(jac)):
            raise TurningPoint("graph speed vanished while forming the "
                               "shooting Jacobian")
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NotConverged(f"singular shooting Jacobian at {q}") from exc
        scale = 1.0
        accepted = None
        for _ in range(9):
            cand = q + scale * step
            trial = try_shot(cand)
            if trial is not None and np.max(np.abs(trial[1])) < np.max(np.abs(r)):
                accepted = cand, trial
                break
            scale *= 0.5
        if accepted is None:
            raise NotConverged(
                f"damping failed at residual {np.max(np.abs(r)):.3g}; "
                "the shot does not improve along the Newton direction"
            )
        q, (tables, r) = accepted
    else:
        raise NotConverged(
            f"shooting Newton did not reach 1e-12 in 100 steps "
            f"(residual {np.max(np.abs(r)):.3g})"
        )

    t, p, u = tables
    x_nodes = np.linspace(0.0, 1.0, n + 1)
    speed = np.asarray(model.d_p(x_nodes, p, u), dtype=float)
    h_res = float(np.max(np.abs(model.eval_H(x_nodes, p, u))))
    loop_integral = float(np.trapezoid(-1.0 / speed, x_nodes))
    period = float(abs(t[-1]))
    phase = 2.0 * np.pi * t / t[-1]
    return OrbitResult(
        x_nodes=x_nodes, t_of_x=t, p_of_x=p, u_of_x=u, speed=speed, phase=phase,
        period=period, loop_integral=loop_integral, h_residual=h_res,
        p0=float(q[0]), u0=float(q[1]), model_name=model.name,
        newton_iterations=iterations,
    )


def check_condition_A(orbit: OrbitResult):
    """Transversality of the stationary graph: (holds, min |speed|)."""
    min_abs = float(np.min(np.abs(orbit.speed)))
    return min_abs > B_MIN_TOL, min_abs
