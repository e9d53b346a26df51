"""Implicit Lax-Oleinik evolution on a periodic grid.

One step of the backward semigroup computes, at every node,

    w(x) = min_v [ I(phi)(x - v dt) + dt * L(x, v, u_arg) ]

with periodic monotone linear interpolation I and the u-argument of the
Lagrangian resolved implicitly: first the foot value, then the arrival
value, iterated to a fixed point (a contraction as long as
kappa * dt < 1/2).  For models whose Lagrangian is affine in u the fixed
point collapses to a closed form, which the stepper exploits.

The velocity search scans a uniform sample set; ties in the discrete
argmin resolve to the smallest |v| so repeated runs are bit-identical.
It then minimizes exactly over the winning bracket: on each grid cell
the foot crosses, the objective is convex in v, so its minimum is the
stationary point v = H_p(x, p, u), p the cell's slope of the datum,
clipped to the cell and the bracket (the exact semi-Lagrangian per-cell
minimum).  Scan minima at the window ends +-v_max are counted as window
hits on the trace.

The forward semigroup is realized by conjugation: negate the datum,
evolve under the model H(x,-p,-u), negate back.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BracketFail, CapTooSmall, InnerNotConverged,
                     NoTrajectoryLanded, NotConverged)
from .model import (DEFAULT_SEARCH, HamiltonianModel, SearchParams,
                    conjugate_model, solve_p_star_batch)

class AccuracyWarning(UserWarning):
    """Configuration degrades accuracy (never stability)."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the unit circle; n must be a power of two."""

    n: int

    def __post_init__(self):
        if self.n < 64 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 64, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def nearest(self, x) -> int:
        return int(round((x % 1.0) * self.n)) % self.n


@dataclass
class Field:
    """Grid function, optionally with nodes pinned to a finite cap.

    Capped nodes hold exactly ``cap_value`` and stand in for the +infinity
    of pinned boundary data; they are excluded from sup-norm diagnostics.
    """

    grid: Grid
    values: np.ndarray
    cap_mask: Optional[np.ndarray] = None
    cap_value: Optional[float] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).copy()
        if self.values.shape != (self.grid.n,):
            raise ValueError("field values must match the grid size")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.n, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))

    @classmethod
    def pinned(cls, grid: Grid, x0: float, u0: float, cap: float) -> "Field":
        """Datum with value u0 at the node nearest x0 and the cap elsewhere."""
        vals = np.full(grid.n, float(cap))
        mask = np.ones(grid.n, dtype=bool)
        i = grid.nearest(x0)
        vals[i] = float(u0)
        mask[i] = False
        return cls(grid, vals, cap_mask=mask, cap_value=float(cap))

    def copy(self) -> "Field":
        return Field(self.grid, self.values,
                     None if self.cap_mask is None else self.cap_mask.copy(),
                     self.cap_value)

    def free_values(self) -> np.ndarray:
        """Values at non-capped nodes."""
        if self.cap_mask is None:
            return self.values
        return self.values[~self.cap_mask]

    def interp(self, x):
        """Periodic linear interpolation at arbitrary circle points."""
        return _interp_periodic(self.values, np.asarray(x, dtype=float))


def sup_dist(a: Field, b: Field) -> float:
    """Sup-norm distance ignoring nodes capped in either field."""
    mask = np.zeros(a.grid.n, dtype=bool)
    if a.cap_mask is not None:
        mask |= a.cap_mask
    if b.cap_mask is not None:
        mask |= b.cap_mask
    diff = np.abs(a.values - b.values)
    if mask.all():
        return 0.0
    return float(np.max(diff[~mask]))


def _interp_periodic(values, x):
    n = values.shape[0]
    s = np.asarray(x, dtype=float) * n
    i0 = np.floor(s).astype(int)
    frac = s - i0
    i0 = np.mod(i0, n)
    i1 = np.mod(i0 + 1, n)
    return values[i0] * (1.0 - frac) + values[i1] * frac


@dataclass
class EvolutionTrace:
    """Time-stamped snapshots of an evolution."""

    times: np.ndarray
    snapshots: list
    model_name: str
    dt: float
    diverged: bool = False
    # node-steps whose velocity-scan minimum sat on +-v_max at an uncapped
    # output node: the extremizer may lie outside the search window
    window_hits: int = 0

    @property
    def final(self) -> Field:
        return self.snapshots[-1]

    def at(self, t: float) -> np.ndarray:
        """Values at time t, linearly interpolated between snapshots."""
        times = self.times
        if t <= times[0]:
            return self.snapshots[0].values
        if t >= times[-1]:
            return self.snapshots[-1].values
        k = int(np.searchsorted(times, t, side="right")) - 1
        t0, t1 = times[k], times[k + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.snapshots[k].values + w * self.snapshots[k + 1].values

    def sup_norms(self):
        return np.array([float(np.max(np.abs(s.free_values()))) for s in self.snapshots])


class _StepWorkspace:
    """Per-(model, grid, dt) precomputation reused across steps."""

    def __init__(self, model: HamiltonianModel, grid: Grid, dt: float,
                 search: SearchParams):
        self.model = model
        self.grid = grid
        self.dt = float(dt)
        self.search = search
        n = grid.n
        self.x = grid.nodes
        v = np.linspace(-search.v_max, search.v_max, search.n_velocities)
        self.v = v
        self.abs_v = np.abs(v)
        # gather tables for the uniform-shift foot interpolation
        sigma = v * self.dt * n                    # foot shift in cells
        m = np.floor(-sigma)
        self.frac = ((-sigma) - m)[None, :]        # in [0, 1), one per velocity
        rows = np.arange(n)[:, None]
        self.idx0 = (rows + m.astype(np.int64)[None, :]) % n
        self.idx1 = (self.idx0 + 1) % n
        self._xn = np.arange(n, dtype=float)       # node index as float
        self.affine = model.l_affine_u
        if self.affine is not None:
            X = self.x[:, None]
            Vm = v[None, :]
            self.dtL0 = self.dt * self._L_at_zero(X, Vm)
        else:
            self.dtL0 = None
        # node columns (ab, n a, dt/(2a), dt V) of the quadratic family for
        # the exact bracket minimum: dt*L(x,v,0) = (v - ab)^2 dt/(2a) - dt V
        self._quad_nodes = None
        if model.quad_coeffs is not None and self.affine is not None:
            a_f, _, b_f, _, V_f, _, _ = model.quad_coeffs
            X = self.x[:, None]
            av = np.broadcast_to(np.asarray(a_f(X), float), X.shape)
            bv = np.broadcast_to(np.asarray(b_f(X), float), X.shape)
            Vv = np.broadcast_to(np.asarray(V_f(X), float), X.shape)
            self._quad_nodes = (av * bv, n * av, self.dt / (2.0 * av),
                                self.dt * Vv)

    def _L_at_zero(self, x, v):
        if self.model.closed_form_L is not None:
            return np.asarray(self.model.closed_form_L(x, v, 0.0 * v)[0], dtype=float)
        p = solve_p_star_batch(self.model, x, v, 0.0 * v, p_max=self.search.p_max)
        return v * p - self.model.eval_H(x, p, 0.0 * v)

    def _L_at(self, x, v, u):
        if self.model.closed_form_L is not None:
            return np.asarray(self.model.closed_form_L(x, v, u)[0], dtype=float)
        p = solve_p_star_batch(self.model, x, v, u, p_max=self.search.p_max)
        return v * p - self.model.eval_H(x, p, u)

    def foot_matrix(self, values):
        """Interpolated field at x_i - v_j dt for all nodes and velocities."""
        return values[self.idx0] * (1.0 - self.frac) + values[self.idx1] * self.frac

    def _tiebreak_argmin(self, total):
        """Row argmin preferring the smallest |v| among exact ties."""
        row_min = np.min(total, axis=1)
        cand = np.where(total <= row_min[:, None], self.abs_v[None, :], np.inf)
        return np.argmin(cand, axis=1), row_min

    def _bracket(self, jstar):
        """Velocities of the samples next to each scan argmin, and whether
        the argmin is an end sample of the window."""
        last = self.v.size - 1
        lo = self.v[np.clip(jstar - 1, 0, last)]
        hi = self.v[np.clip(jstar + 1, 0, last)]
        return lo, hi, (jstar == 0) | (jstar == last)

    def _cell_minimum(self, values, lo, hi, u):
        """Exact min over v in [lo, hi] of I(values)(x - v dt) + dt L(x, v, u).

        On each grid cell k that the foot x - v dt crosses, the P1
        interpolant is affine in v with slope -dt n (phi_{k+1} - phi_k),
        and L is convex in v, so the objective is convex on the cell.  Its
        stationary point is v = H_p(x, p, u) with p = n (phi_{k+1} -
        phi_k), where L_v = p; clipped to the cell and the bracket it is
        the minimum on the cell.  For the quadratic family the node table
        gives the vertex ab + n a (phi_{k+1} - phi_k) and the parabola.
        u is held fixed per node.  Returns the minimum and its velocity.
        """
        n = self.grid.n
        dtn = self.dt * n
        xn = self._xn
        first = np.floor(xn - hi * dtn)  # cell of the foot at v = hi
        last = np.floor(xn - lo * dtn)   # cell of the foot at v = lo
        k = first[:, None] + np.arange(int(np.max(last - first)) + 1)
        k0 = k.astype(np.int64) % n
        phi_k = values[k0]
        slope = values[(k0 + 1) % n] - phi_k
        off = xn[:, None] - k            # foot at v = 0, in cells past k
        v_lo = np.maximum(lo[:, None], (off - 1.0) / dtn)
        v_hi = np.minimum(hi[:, None], off / dtn)
        if self._quad_nodes is not None:
            ab, na, inv2a_dt, dtV = self._quad_nodes
            vv = np.clip(ab + na * slope, v_lo, v_hi)
            d = vv - ab
            total = phi_k + (off - vv * dtn) * slope + d * d * inv2a_dt - dtV
        else:
            x, uu = self.x[:, None], u[:, None]
            p = n * slope
            vertex = self.model.d_p(x, p, uu)
            if self.model.closed_form_L is None:
                # the numeric L clamps p* to [-p_max, p_max] and is linear
                # in v beyond; a steeper cell is monotone, minimal at an end
                vertex = np.where(np.abs(p) <= self.search.p_max, vertex,
                                  np.copysign(np.inf, p))
            vv = np.clip(vertex, v_lo, v_hi)
            total = (phi_k + (off - vv * dtn) * slope
                     + self.dt * self._L_at(x, vv, uu))
        total = np.where(v_lo <= v_hi, total, np.inf)
        j = np.argmin(total, axis=1)[:, None]
        return (np.take_along_axis(total, j, axis=1)[:, 0],
                np.take_along_axis(vv, j, axis=1)[:, 0])


def lax_oleinik_step(model: HamiltonianModel, phi: Field, dt: float,
                     search: SearchParams = DEFAULT_SEARCH,
                     workspace: Optional[_StepWorkspace] = None) -> Field:
    """One implicit Lax-Oleinik step of size dt.

    Capped nodes of the input participate with their cap value; the
    output is re-capped at the same level.  Raises InnerNotConverged if
    the value fixed point stalls (impossible while kappa*dt < 1/2) and
    ValueError when dt breaks that contraction bound.
    """
    ws = workspace or _StepWorkspace(model, phi.grid, dt, search)
    raw, _ = _step_values(ws, phi.values)
    return _recap(phi, raw)


def _recap(phi: Field, raw: np.ndarray) -> Field:
    if phi.cap_value is None:
        return Field(phi.grid, raw)
    cap = phi.cap_value
    mask = raw >= cap
    vals = np.minimum(raw, cap)
    return Field(phi.grid, vals, cap_mask=mask, cap_value=cap)


def _step_values(ws: _StepWorkspace, values: np.ndarray):
    """Values after one step, and a mask of nodes whose scan argmin is
    an end sample of the velocity window."""
    if ws.model.kappa * ws.dt >= 0.5:
        raise ValueError(
            f"kappa*dt = {ws.model.kappa * ws.dt:g} >= 0.5 breaks the inner "
            "contraction; reduce dt"
        )
    cols = ws.foot_matrix(values)
    if ws.affine is not None:
        return _step_affine(ws, values, cols)
    return _step_generic(ws, values, cols)


def _step_affine(ws: _StepWorkspace, values, cols):
    total = cols + ws.dtL0
    jstar, row_min = ws._tiebreak_argmin(total)
    lo, hi, edge = ws._bracket(jstar)
    refined, _ = ws._cell_minimum(values, lo, hi, np.zeros_like(row_min))
    best = np.minimum(row_min, refined)
    return best / (1.0 - ws.dt * ws.affine), edge


def _step_generic(ws: _StepWorkspace, values, cols):
    dt = ws.dt
    x = ws.x[:, None]
    v = ws.v[None, :]
    # first pass: Lagrangian evaluated at the foot value
    total = cols + dt * ws._L_at(x, v, cols)
    jstar, w = ws._tiebreak_argmin(total)
    # then iterate on the arrival value
    for it in range(ws.search.inner_max_iter):
        total = cols + dt * ws._L_at(x, v, w[:, None])
        jstar, w_new = ws._tiebreak_argmin(total)
        delta = float(np.max(np.abs(w_new - w)))
        w = w_new
        if delta < ws.search.inner_tol:
            break
    else:
        raise InnerNotConverged(
            f"inner value iteration still moving by {delta:g} after "
            f"{ws.search.inner_max_iter} sweeps"
        )
    lo, hi, edge = ws._bracket(jstar)
    refined, v_star = ws._cell_minimum(values, lo, hi, w)
    w_ref = np.minimum(w, refined)
    # polish the fixed point at the refined velocity
    feet = _interp_periodic(values, ws.x - v_star * dt)
    coarse_feet = cols[np.arange(ws.grid.n), jstar]
    coarse_v = ws.v[jstar]
    use_ref = refined <= w
    vv = np.where(use_ref, v_star, coarse_v)
    ff = np.where(use_ref, feet, coarse_feet)
    for it in range(ws.search.inner_max_iter):
        w_new = ff + dt * ws._L_at(ws.x, vv, w_ref)
        delta = float(np.max(np.abs(w_new - w_ref)))
        w_ref = w_new
        if delta < ws.search.inner_tol:
            break
    else:
        raise InnerNotConverged("refined value iteration did not settle")
    return w_ref, edge


def evolve(model: HamiltonianModel, phi: Field, T: float, dt: float,
           snapshot_every: Optional[float] = None,
           search: SearchParams = DEFAULT_SEARCH, u_cap: float = 50.0,
           workspace: Optional[_StepWorkspace] = None) -> EvolutionTrace:
    """Run the backward semigroup for time T, collecting snapshots.

    dt is an upper bound; the actual step is T/steps so the horizon is hit
    exactly.  Uncapped evolutions whose sup-norm exceeds u_cap/2 are
    truncated and flagged as diverged (a legitimate long-time regime),
    never discarded.
    """
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    grid = phi.grid
    if T == 0.0:
        return EvolutionTrace(np.array([0.0]), [phi.copy()], model.name, dt)
    steps = max(1, math.ceil(T / dt - 1e-12))
    dt_eff = T / steps
    if dt_eff > grid.h / max(search.v_max, 1e-300):
        warnings.warn(
            f"dt = {dt_eff:g} exceeds h/v_max = {grid.h / search.v_max:g}; "
            "feet span several cells per step (accuracy, not stability)",
            AccuracyWarning, stacklevel=2)
    stride = steps if snapshot_every is None else max(1, round(snapshot_every / dt_eff))
    ws = workspace
    if ws is None or ws.dt != dt_eff or ws.grid is not grid or ws.model is not model:
        ws = _StepWorkspace(model, grid, dt_eff, search)
    times = [0.0]
    snaps = [phi.copy()]
    current = phi
    diverged = False
    hits = 0
    for k in range(1, steps + 1):
        raw, edge = _step_values(ws, current.values)
        current = _recap(current, raw)
        if current.cap_mask is not None:
            edge &= ~current.cap_mask
        hits += int(np.count_nonzero(edge))
        if k % stride == 0 or k == steps:
            times.append(k * dt_eff)
            snaps.append(current)
        if current.cap_value is None and np.max(np.abs(current.values)) > u_cap / 2.0:
            diverged = True
            if times[-1] != k * dt_eff:
                times.append(k * dt_eff)
                snaps.append(current)
            break
    return EvolutionTrace(np.array(times), snaps, model.name, dt_eff,
                          diverged=diverged, window_hits=hits)


def evolve_forward(model: HamiltonianModel, phi: Field, T: float, dt: float,
                   snapshot_every: Optional[float] = None,
                   search: SearchParams = DEFAULT_SEARCH,
                   u_cap: float = 50.0) -> EvolutionTrace:
    """Forward semigroup via conjugation: -T~(-phi) under H(x,-p,-u)."""
    conj = conjugate_model(model)
    neg = Field(phi.grid, -phi.values, None if phi.cap_mask is None
                else phi.cap_mask.copy(),
                None if phi.cap_value is None else -phi.cap_value)
    trace = evolve(conj, neg, T, dt, snapshot_every=snapshot_every,
                   search=search, u_cap=u_cap)
    snaps = [Field(s.grid, -s.values,
                   None if s.cap_mask is None else s.cap_mask.copy(),
                   None if s.cap_value is None else -s.cap_value)
             for s in trace.snapshots]
    return EvolutionTrace(trace.times, snaps, model.name, trace.dt,
                          diverged=trace.diverged,
                          window_hits=trace.window_hits)


def _has_caps(field: Field) -> bool:
    return field.cap_mask is not None and bool(field.cap_mask.any())


def _iterate_to_limit(advance, start: Field, tol, n_max, accept_tol):
    """Iterate a period map to (quasi) stationarity.

    ``advance`` maps a field to the EvolutionTrace of one period.  An
    increment (sup distance between consecutive iterates) counts only
    when neither field of the period has capped nodes.  The iteration
    stops converged at an increment <= tol.  It turns around once three
    increments are counted and the newest exceeds twice the best: in the
    decreasing case the scheme repels every datum that does not touch the
    stationary state exactly, so grid-level errors eventually amplify.  A
    diverged trace also ends it.  After a turn-around or a spent budget
    of n_max periods the best iterate is returned with an AccuracyWarning
    if its increment is <= accept_tol; otherwise NotConverged is raised.

    Returns (state, counted increments, periods run, quasi-converged).
    """
    current = start
    history = []
    best_gap, best = math.inf, None
    n_done = 0
    diverged = False
    for n_done in range(1, n_max + 1):
        trace = advance(current)
        if trace.diverged:
            diverged = True
            break
        nxt = trace.final
        capped = _has_caps(current) or _has_caps(nxt)
        gap = sup_dist(nxt, current)
        current = nxt
        if capped:
            continue
        history.append(gap)
        if gap < best_gap:
            best_gap, best = gap, nxt
        if gap <= tol:
            return nxt, history, n_done, False
        if len(history) >= 3 and gap > 2.0 * best_gap:
            break
    if best is not None and best_gap <= accept_tol:
        warnings.warn(
            f"limit stagnated at increment {best_gap:g} > tol {tol:g}; "
            "returning the best iterate", AccuracyWarning, stacklevel=3)
        return best, history, n_done, True
    raise NotConverged(
        f"increment only reached {best_gap:g} after {n_done} periods "
        f"(tol {tol:g}, accept {accept_tol:g})"
        + ("; the evolution diverged" if diverged else ""))


def weak_kam_forward(model: HamiltonianModel, grid: Grid, tol=1e-6, t_max=80.0,
                     dt: Optional[float] = None,
                     search: SearchParams = DEFAULT_SEARCH,
                     phi0: Optional[Field] = None) -> Field:
    """Forward weak KAM solution: run T+ from zero until period-1 stationarity."""
    dt = grid.h if dt is None else dt
    start = phi0 if phi0 is not None else Field.constant(grid, 0.0)
    return _iterate_to_limit(
        lambda f: evolve_forward(model, f, 1.0, dt, search=search), start,
        tol, math.ceil(t_max), tol)[0]


def weak_kam_backward(model: HamiltonianModel, u_plus: Field, tol=1e-6,
                      t_max=80.0, dt: Optional[float] = None,
                      search: SearchParams = DEFAULT_SEARCH,
                      accept_tol=5e-3) -> Field:
    """Backward weak KAM solution as the long-time limit of T- from u_plus.

    For strictly decreasing models the stationary state repels every
    datum that does not touch it exactly, so the grid-level error of
    u_plus eventually amplifies.  The iteration therefore returns the
    quasi-stationary iterate (smallest period-1 increment) when the
    increment turns around before reaching tol; it must at least dip
    below accept_tol, otherwise NotConverged is raised.
    """
    dt = u_plus.grid.h if dt is None else dt
    return _iterate_to_limit(
        lambda f: evolve(model, f, 1.0, dt, search=search), u_plus, tol,
        math.ceil(t_max), accept_tol)[0]


@dataclass
class ActionResult:
    """Implicit action value with provenance."""

    x0: float
    u0: float
    x: float
    t: float
    value: float
    method: str
    cap_used: float
    grid_value: Optional[float] = None
    shooting_value: Optional[float] = None

    @property
    def cross_gap(self) -> Optional[float]:
        if self.grid_value is None or self.shooting_value is None:
            return None
        return abs(self.grid_value - self.shooting_value)


def _flow_batch(model, x0, p0, u0, t_total, dt, blow_limit=500.0):
    """Vectorized RK4 for the contact system over a batch of momenta.

    Integrates for |t_total| forward (t_total > 0) or backward in time and
    returns (x unreduced, p, u, alive mask).
    """
    direction = 1.0 if t_total >= 0.0 else -1.0
    t_abs = abs(t_total)
    steps = max(1, int(math.ceil(t_abs / dt - 1e-12)))
    h = direction * t_abs / steps
    x = np.asarray(x0, dtype=float).copy()
    p = np.asarray(p0, dtype=float).copy()
    u = np.asarray(u0, dtype=float).copy()
    x, p, u = np.broadcast_arrays(x, p, u)
    x, p, u = x.copy(), p.copy(), u.copy()
    alive = np.ones(x.shape, dtype=bool)

    def rhs(xv, pv, uv):
        hp = model.d_p(xv, pv, uv)
        hx = model.d_x(xv, pv, uv)
        hu = model.d_u(xv, pv, uv)
        hv = model.eval_H(xv, pv, uv)
        return hp, -hx - hu * pv, hp * pv - hv

    for _ in range(steps):
        k1 = rhs(x, p, u)
        k2 = rhs(x + 0.5 * h * k1[0], p + 0.5 * h * k1[1], u + 0.5 * h * k1[2])
        k3 = rhs(x + 0.5 * h * k2[0], p + 0.5 * h * k2[1], u + 0.5 * h * k2[2])
        k4 = rhs(x + h * k3[0], p + h * k3[1], u + h * k3[2])
        dx = h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        dp = h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        du = h * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0
        x = np.where(alive, x + dx, x)
        p = np.where(alive, p + dp, p)
        u = np.where(alive, u + du, u)
        alive &= (np.abs(p) <= blow_limit) & (np.abs(u) <= blow_limit)
        alive &= np.isfinite(x) & np.isfinite(p) & np.isfinite(u)
    return x, p, u, alive


def _circle_signed(a, b):
    """Signed circle distance a - b wrapped to [-1/2, 1/2)."""
    return (np.asarray(a) - np.asarray(b) + 0.5) % 1.0 - 0.5


def _shooting_action(model, x0, u0, x, t, direction, search, n_p=257,
                     ode_dt=2.5e-3, max_refine=2):
    """Action value from characteristics: extremal landed endpoint value.

    Forward: integrate from (x0, p, u0) for time t over a momentum fan,
    bisect every landing bracket to x (mod 1), take the minimum arrival
    value.  Backward: integrate backward in time and take the maximum
    departure value (the dual extremum).
    """
    sign = 1.0 if direction == "forward" else -1.0
    p_grid = np.linspace(-search.p_max, search.p_max, n_p)
    for attempt in range(max_refine + 1):
        xs0 = np.full(p_grid.shape, float(x0))
        us0 = np.full(p_grid.shape, float(u0))
        xe, _, _, alive = _flow_batch(model, xs0, p_grid, us0, sign * t, ode_dt)
        miss = np.where(alive, _circle_signed(xe, x), np.nan)
        vals = []
        sign_change = np.where(
            alive[:-1] & alive[1:], miss[:-1] * miss[1:] <= 0.0, False)
        idx = np.nonzero(sign_change)[0]
        if idx.size:
            lo = p_grid[idx].copy()
            hi = p_grid[idx + 1].copy()
            f_lo = miss[idx].copy()
            for _ in range(52):
                mid = 0.5 * (lo + hi)
                xm, pm, um, am = _flow_batch(
                    model, np.full(mid.shape, float(x0)), mid,
                    np.full(mid.shape, float(u0)), sign * t, ode_dt)
                f_mid = _circle_signed(xm, x)
                pick_lo = (f_lo * f_mid) > 0.0
                lo = np.where(pick_lo, mid, lo)
                f_lo = np.where(pick_lo, f_mid, f_lo)
                hi = np.where(pick_lo, hi, mid)
            ok = am & (np.abs(_circle_signed(xm, x)) < 1e-6)
            vals.extend(um[ok].tolist())
        if vals:
            return float(min(vals) if direction == "forward" else max(vals))
        p_grid = np.linspace(-search.p_max, search.p_max, (p_grid.size - 1) * 4 + 1)
    raise NoTrajectoryLanded(
        f"no characteristic from x0 = {x0:g} reached x = {x:g} at t = {t:g}"
    )


def action_function(model: HamiltonianModel, x0, u0, x, t, direction="forward",
                    method="grid", grid: Optional[Grid] = None, dt=1e-3,
                    u_cap=50.0, search: SearchParams = DEFAULT_SEARCH,
                    ode_dt=2.5e-3, workspace=None) -> ActionResult:
    """Implicit action with pinned initial (forward) or terminal (backward) value.

    The grid method evolves a pinned-cap datum and reads the node nearest
    x; the shooting method extremizes over characteristic endpoints and
    serves as an independent cross-check.  method is one of
    {"grid", "shooting", "both"}.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if method not in ("grid", "shooting", "both"):
        raise ValueError("method must be 'grid', 'shooting' or 'both'")
    grid_value = None
    shoot_value = None
    if method in ("grid", "both"):
        g = grid or Grid(256)
        if t < 10.0 * dt - 1e-12:
            raise ValueError(f"t = {t:g} below the reliability floor 10*dt = {10 * dt:g}")
        if direction == "forward":
            pinned = Field.pinned(g, x0, u0, u_cap)
            trace = evolve(model, pinned, t, dt, search=search, u_cap=u_cap,
                           workspace=workspace)
            raw = float(trace.final.values[g.nearest(x)])
            grid_value = raw
        else:
            conj = conjugate_model(model)
            pinned = Field.pinned(g, x0, -u0, u_cap)
            trace = evolve(conj, pinned, t, dt, search=search, u_cap=u_cap,
                           workspace=workspace)
            raw = float(trace.final.values[g.nearest(x)])
            grid_value = -raw
        if raw >= 0.99 * u_cap:
            raise CapTooSmall(
                f"action value {grid_value:g} is within 1% of the cap {u_cap:g}"
            )
    if method in ("shooting", "both"):
        shoot_value = _shooting_action(model, x0, u0, x, t, direction, search,
                                       ode_dt=ode_dt)
    value = grid_value if grid_value is not None else shoot_value
    return ActionResult(x0=float(x0), u0=float(u0), x=float(x), t=float(t),
                        value=value, method=method, cap_used=u_cap,
                        grid_value=grid_value, shooting_value=shoot_value)


def solve_reversibility(model: HamiltonianModel, x0, x, t, target_u,
                        bracket=(-50.0, 50.0), tol=1e-6, max_iter=200,
                        grid: Optional[Grid] = None, dt=1e-3, u_cap=50.0,
                        search: SearchParams = DEFAULT_SEARCH) -> float:
    """Initial value u0 with pinned action h_{x0,u0}(x, t) = target_u.

    Bisection, using the strict monotonicity of the action in its pinned
    value.  Raises BracketFail when the bracket endpoints do not straddle
    the target.
    """
    g = grid or Grid(256)
    ws = _StepWorkspace(model, g, t / max(1, math.ceil(t / dt - 1e-12)), search)
    lo, hi = float(bracket[0]), float(bracket[1])
    # the cap must clear the image of the whole bracket (cap-independence
    # makes the exact level irrelevant as long as it never binds)
    cap = max(u_cap, 2.0 * max(abs(lo), abs(hi)) * math.exp(model.kappa * t)
              + 1.0)

    def action_at(u0v):
        res = action_function(model, x0, u0v, x, t, grid=g, dt=dt, u_cap=cap,
                              search=search, workspace=ws)
        return res.value
    f_lo = action_at(lo) - target_u
    f_hi = action_at(hi) - target_u
    if f_lo > 0.0 or f_hi < 0.0:
        raise BracketFail(
            f"action at bracket ends ({f_lo + target_u:g}, {f_hi + target_u:g}) "
            f"does not straddle {target_u:g}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = action_at(mid) - target_u
        if abs(f_mid) <= tol:
            return mid
        if f_mid > 0.0:
            hi = mid
        else:
            lo = mid
    raise NotConverged(f"reversibility bisection stalled on [{lo:g}, {hi:g}]")
