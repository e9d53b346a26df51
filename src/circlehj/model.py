"""Contact Hamiltonian models H(x, p, u) on the unit circle.

A model is a bundle of numpy-vectorized callables for H and its partial
derivatives, plus the structural constants used by the rest of the
package.  The built-in quadratic family

    H = a(x)/2 * (p + b(x))**2 + V(x) - a(x)*b(x)**2/2 - lam*u

covers every reference configuration; its coefficient functions are
differentiated symbolically so all partials are exact.  Arbitrary models
can be supplied as raw callables as long as they broadcast over numpy
arrays.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import sympy as sp

from .errors import NoBracket, NonPositiveA, NotConverged


@dataclass(frozen=True)
class SearchParams:
    """Compact search window standing in for the noncompact phase space.

    Extremizers are sought inside |v| <= v_max, |p| <= p_max; the
    structural checks sample values in |u| <= u_max.  The remaining
    fields tune the velocity search of the evolution.
    """

    v_max: float = 10.0
    p_max: float = 10.0
    n_velocities: int = 129
    inner_tol: float = 1e-12
    inner_max_iter: int = 100
    u_max: float = 50.0


DEFAULT_SEARCH = SearchParams()


@dataclass(frozen=True)
class HamiltonianModel:
    """Contact Hamiltonian on T*S x R with partial derivatives.

    All callables take (x, p, u) -- x is a period-1 circle coordinate --
    and must broadcast over numpy arrays.  ``closed_form_L``, when set,
    maps (x, v, u) to the pair (Lagrangian value, maximizing momentum).
    ``l_affine_u`` is the constant c such that L(x,v,u) = L(x,v,0) + c*u,
    available for models whose u-dependence is linear; the evolution code
    uses it to collapse the per-step value fixed point.
    """

    eval_H: Callable
    d_p: Callable
    d_x: Callable
    d_u: Callable
    d_pp: Callable
    kappa: float
    delta: float
    lambda_param: float = 0.0
    closed_form_L: Optional[Callable] = None
    l_affine_u: Optional[float] = None
    name: str = "custom"
    # (a, a', b, b', V, V', lam) for quadratic-family members; lets the ODE
    # sweeps precompute coefficient tables instead of calling back per stage
    quad_coeffs: Optional[tuple] = None


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of sampled structural checks on a model.

    Margins are the extremal sampled slack of each inequality:
    h1_margin = min d_pp (want > 0); h4_margin = -max d_u (the observed
    strict-decrease rate, want >= delta); c_margin = max over x of
    min_p H(x, p, 0) (want < 0).  h2_margin records the boundary growth
    of d_p on the compact window; superlinearity itself cannot be checked
    on samples.
    """

    h1_ok: bool
    h4_ok: bool
    condition_c_ok: bool
    h1_margin: float
    h4_margin: float
    c_margin: float
    h2_margin: float
    sample_count: int

    def all_ok(self) -> bool:
        return self.h1_ok and self.h4_ok and self.condition_c_ok


def _as_coefficient(spec):
    """Turn a number / expression string / sympy expression into value and
    derivative callables over the circle coordinate."""
    xs = sp.Symbol("x")
    if callable(spec):
        raise TypeError(
            "quadratic coefficients must be numbers or expressions in x "
            "(symbolic differentiation needs an expression, not a callable)"
        )
    expr = sp.sympify(spec, locals={"x": xs, "pi": sp.pi, "cos": sp.cos, "sin": sp.sin})
    dexpr = sp.diff(expr, xs)
    f_raw = sp.lambdify(xs, expr, modules="numpy")
    df_raw = sp.lambdify(xs, dexpr, modules="numpy")

    def wrap(raw):
        def g(x):
            out = np.asarray(raw(x), dtype=float)
            if out.shape != np.shape(x):
                out = np.full(np.shape(x), out)
            if np.ndim(x) == 0:
                return float(out)
            return out

        return g

    return wrap(f_raw), wrap(df_raw), sp.srepr(expr)


def make_quadratic_model(a, b, V, lam, kappa=None, delta=None,
                         a_min=1e-12) -> HamiltonianModel:
    """Build a member of the quadratic family with exact derivatives.

    ``a``, ``b``, ``V`` are numbers or expression strings in x (period 1);
    ``lam`` scales the u-term.  The normalization constant -a*b^2/2 makes
    the flat section p = 0, u = 0 lie on the zero-energy surface whenever
    V = 0.

    Raises NonPositiveA if the sampled kinetic coefficient is not > a_min.
    """
    a_f, a_d, a_s = _as_coefficient(a)
    b_f, b_d, b_s = _as_coefficient(b)
    V_f, V_d, V_s = _as_coefficient(V)
    lam = float(lam)

    xs = np.linspace(0.0, 1.0, 512, endpoint=False)
    if np.min(a_f(xs)) <= a_min:
        raise NonPositiveA(f"sampled a(x) has min {np.min(a_f(xs)):g} <= {a_min:g}")

    def eval_H(x, p, u):
        av = a_f(x)
        bv = b_f(x)
        return 0.5 * av * (p + bv) ** 2 + V_f(x) - 0.5 * av * bv ** 2 - lam * u

    def d_p(x, p, u):
        return a_f(x) * (p + b_f(x)) + 0.0 * u

    def d_x(x, p, u):
        av, ap = a_f(x), a_d(x)
        bv, bp = b_f(x), b_d(x)
        return (0.5 * ap * (p + bv) ** 2 + av * bp * (p + bv) + V_d(x)
                - 0.5 * ap * bv ** 2 - av * bv * bp + 0.0 * u)

    def d_u(x, p, u):
        return -lam + 0.0 * (np.asarray(x, dtype=float) + p + u)

    def d_pp(x, p, u):
        return a_f(x) + 0.0 * (p + u)

    def closed_form_L(x, v, u):
        av = a_f(x)
        bv = b_f(x)
        p_star = v / av - bv
        L = (v - av * bv) ** 2 / (2.0 * av) - V_f(x) + lam * u
        return L, p_star

    name = f"quadratic[a={a}, b={b}, V={V}, lambda={lam:g}]"
    return HamiltonianModel(
        eval_H=eval_H, d_p=d_p, d_x=d_x, d_u=d_u, d_pp=d_pp,
        kappa=float(kappa) if kappa is not None else abs(lam),
        delta=float(delta) if delta is not None else abs(lam),
        lambda_param=lam, closed_form_L=closed_form_L, l_affine_u=lam,
        name=name, quad_coeffs=(a_f, a_d, b_f, b_d, V_f, V_d, lam),
    )


def constant_drift_model(b=1.0, lam=0.5) -> HamiltonianModel:
    """Reference model H = (p+b)^2/2 - b^2/2 - lam*u (flat stationary state)."""
    return make_quadratic_model(1.0, b, 0.0, lam)


def cosine_potential_model(b=1.0, v0=0.2, lam=0.5) -> HamiltonianModel:
    """Reference model with potential v0*cos(2 pi x) on top of constant drift."""
    return make_quadratic_model(1.0, b, f"{v0}*cos(2*pi*x)", lam)


def conjugate_model(model: HamiltonianModel) -> HamiltonianModel:
    """Model with H~(x,p,u) = H(x,-p,-u).

    The backward semigroup of the conjugate realizes the forward semigroup
    of the original under value negation; a strictly decreasing model
    becomes strictly increasing and vice versa.
    """

    def eval_H(x, p, u):
        return model.eval_H(x, -p, -u)

    def d_p(x, p, u):
        return -model.d_p(x, -p, -u)

    def d_x(x, p, u):
        return model.d_x(x, -p, -u)

    def d_u(x, p, u):
        return -model.d_u(x, -p, -u)

    def d_pp(x, p, u):
        return model.d_pp(x, -p, -u)

    cf = None
    if model.closed_form_L is not None:
        base_L = model.closed_form_L

        def cf(x, v, u):
            L, p_star = base_L(x, -v, -u)
            return L, -np.asarray(p_star)

    aff = None if model.l_affine_u is None else -model.l_affine_u
    qc = None
    if model.quad_coeffs is not None:
        a_f, a_d, b_f, b_d, V_f, V_d, lam = model.quad_coeffs

        def neg(fn):
            return lambda x: -fn(x)

        qc = (a_f, a_d, neg(b_f), neg(b_d), V_f, V_d, -lam)
    return HamiltonianModel(
        eval_H=eval_H, d_p=d_p, d_x=d_x, d_u=d_u, d_pp=d_pp,
        kappa=model.kappa, delta=model.delta, lambda_param=-model.lambda_param,
        closed_form_L=cf, l_affine_u=aff, name=f"conjugate({model.name})",
        quad_coeffs=qc,
    )


def freeze_classical(model: HamiltonianModel) -> HamiltonianModel:
    """Model with the u-argument frozen at 0 (classical Hamiltonian)."""

    def at0(fn):
        def g(x, p, u):
            return fn(x, p, 0.0 * u)

        return g

    def d_u(x, p, u):
        return 0.0 * (np.asarray(x, dtype=float) + p + u)

    cf = None
    if model.closed_form_L is not None:
        base_L = model.closed_form_L

        def cf(x, v, u):
            return base_L(x, v, 0.0 * u)

    qc = None
    if model.quad_coeffs is not None:
        qc = model.quad_coeffs[:6] + (0.0,)
    return HamiltonianModel(
        eval_H=at0(model.eval_H), d_p=at0(model.d_p), d_x=at0(model.d_x),
        d_u=d_u, d_pp=at0(model.d_pp),
        kappa=0.0, delta=0.0, lambda_param=0.0,
        closed_form_L=cf, l_affine_u=0.0 if model.l_affine_u is not None else None,
        name=f"classical({model.name})", quad_coeffs=qc,
    )


def shift_hamiltonian(model: HamiltonianModel, c: float) -> HamiltonianModel:
    """Model with H - c (drops the critical value by c; derivatives unchanged)."""
    c = float(c)

    def eval_H(x, p, u):
        return model.eval_H(x, p, u) - c

    cf = None
    if model.closed_form_L is not None:
        base_L = model.closed_form_L

        def cf(x, v, u):
            L, p_star = base_L(x, v, u)
            return L + c, p_star

    qc = None
    if model.quad_coeffs is not None:
        a_f, a_d, b_f, b_d, V_f, V_d, lam = model.quad_coeffs
        qc = (a_f, a_d, b_f, b_d, lambda x: V_f(x) - c, V_d, lam)
    return HamiltonianModel(
        eval_H=eval_H, d_p=model.d_p, d_x=model.d_x, d_u=model.d_u,
        d_pp=model.d_pp, kappa=model.kappa, delta=model.delta,
        lambda_param=model.lambda_param, closed_form_L=cf,
        l_affine_u=model.l_affine_u, name=f"{model.name} - {c:g}",
        quad_coeffs=qc,
    )


def solve_p_star_batch(model, x, v, u, p_max=10.0, tol=1e-12, max_iter=60):
    """Vectorized momentum solve d_p(x, p*, u) = v, clipped to [-p_max, p_max].

    Newton from p = 0 with Hessian floor, then bisection cleanup for any
    stragglers.  Elements whose root lies outside the window are clamped;
    callers needing strict bracketing use legendre_transform instead.
    """
    x, v, u = np.broadcast_arrays(np.asarray(x, float), np.asarray(v, float),
                                  np.asarray(u, float))
    p = np.zeros(x.shape)
    scale = 1.0 + np.abs(v)
    for _ in range(max_iter):
        g = model.d_p(x, p, u) - v
        if np.all(np.abs(g) <= tol * scale):
            break
        hess = np.maximum(model.d_pp(x, p, u), 1e-14)
        p = np.clip(p - g / hess, -p_max, p_max)
    g = model.d_p(x, p, u) - v
    bad = np.abs(g) > 1e-9 * scale
    if np.any(bad):
        lo = np.full(x.shape, -p_max)
        hi = np.full(x.shape, p_max)
        g_lo = model.d_p(x, lo, u) - v
        g_hi = model.d_p(x, hi, u) - v
        bracketed = bad & (g_lo <= 0.0) & (g_hi >= 0.0)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            g_mid = model.d_p(x, mid, u) - v
            take_lo = g_mid > 0.0
            hi = np.where(bracketed & take_lo, mid, hi)
            lo = np.where(bracketed & ~take_lo, mid, lo)
        p = np.where(bracketed, 0.5 * (lo + hi), p)
    return p


def lagrangian(model, x, v, u, p_max=10.0):
    """Vectorized Legendre transform value L(x, v, u) = v p* - H(x, p*, u).

    Uses the closed form when the model carries one; otherwise the clipped
    numeric momentum solve (a lower bound if the true maximizer escapes
    the window, which only happens at extreme velocities).
    """
    if model.closed_form_L is not None:
        L, _ = model.closed_form_L(x, v, u)
        return L
    p = solve_p_star_batch(model, x, v, u, p_max=p_max)
    return v * p - model.eval_H(x, p, u)


def legendre_transform(model, x, v, u,
                       search: SearchParams = DEFAULT_SEARCH, tol=1e-12,
                       max_iter=50):
    """Scalar Legendre transform: returns (L value, maximizing momentum).

    Safeguarded Newton on d_p(x, p, u) = v with a bisection fallback on a
    bracket grown inside [-p_max, p_max].  Raises NoBracket when no sign
    change exists in the window.
    """
    if abs(v) > search.v_max:
        raise ValueError(f"|v| = {abs(v):g} exceeds the search bound {search.v_max:g}")

    def g(p):
        return float(model.d_p(x, p, u)) - v

    lo, hi = -1.0, 1.0
    while g(lo) > 0.0 and lo > -search.p_max:
        lo = max(lo * 2.0, -search.p_max)
    while g(hi) < 0.0 and hi < search.p_max:
        hi = min(hi * 2.0, search.p_max)
    if g(lo) > 0.0 or g(hi) < 0.0:
        raise NoBracket(
            f"d_p - v has no sign change on [{-search.p_max:g}, {search.p_max:g}] "
            f"at (x={x:g}, v={v:g}, u={u:g})"
        )

    p = 0.5 * (lo + hi)
    gp = g(p)
    for _ in range(max_iter):
        if abs(gp) <= tol * (1.0 + abs(v)):
            break
        hess = float(model.d_pp(x, p, u))
        p_new = p - gp / hess if hess > 0.0 else None
        if p_new is None or not (lo < p_new < hi):
            p_new = 0.5 * (lo + hi)
        p = p_new
        gp = g(p)
        if gp > 0.0:
            hi = p
        else:
            lo = p
    L = v * p - float(model.eval_H(x, p, u))
    return L, p


def check_assumptions(model, search: SearchParams = DEFAULT_SEARCH,
                      n_x=16, n_p=12, n_u=8) -> AssumptionReport:
    """Sample the structural assumptions on a compact window.

    Convexity and the strict-decrease band are checked on a grid of
    (x, p, u) triples; the negativity condition on min_p H(x, p, 0) is
    evaluated through the Legendre machinery (min_p H = -L(x, 0, 0)).
    Failures are reported, never raised.
    """
    xg = np.linspace(0.0, 1.0, n_x, endpoint=False)
    pg = np.linspace(-search.p_max, search.p_max, n_p)
    ug = np.linspace(-search.u_max, search.u_max, n_u)
    X, P, U = np.meshgrid(xg, pg, ug, indexing="ij")

    dpp = np.asarray(model.d_pp(X, P, U), dtype=float)
    h1_margin = float(np.min(dpp))
    h1_ok = h1_margin > 0.0

    du = np.asarray(model.d_u(X, P, U), dtype=float)
    h4_margin = float(-np.max(du))
    h4_ok = bool((np.max(du) <= -model.delta + 1e-12)
                 and (np.min(du) >= -model.kappa - 1e-12))

    XU = np.meshgrid(xg, ug, indexing="ij")
    slopes_hi = np.asarray(model.d_p(XU[0], search.p_max + 0.0 * XU[0], XU[1]), float)
    slopes_lo = np.asarray(model.d_p(XU[0], -search.p_max + 0.0 * XU[0], XU[1]), float)
    h2_margin = float(min(np.min(slopes_hi), np.min(-slopes_lo)))

    min_H = -lagrangian(model, xg, np.zeros_like(xg), np.zeros_like(xg),
                        p_max=search.p_max)
    c_margin = float(np.max(min_H))
    c_ok = c_margin < 0.0

    return AssumptionReport(
        h1_ok=h1_ok, h4_ok=h4_ok, condition_c_ok=c_ok,
        h1_margin=h1_margin, h4_margin=h4_margin, c_margin=c_margin,
        h2_margin=h2_margin, sample_count=int(X.size),
    )


def derivative_consistency(model, search: SearchParams = DEFAULT_SEARCH,
                           n=64, fd_step=1e-6):
    """Worst central-difference mismatch of (d_p, d_x, d_u) against eval_H."""
    rng = np.random.default_rng(20240817)
    x = rng.uniform(0.0, 1.0, n)
    p = rng.uniform(-0.5 * search.p_max, 0.5 * search.p_max, n)
    u = rng.uniform(-0.2 * search.u_max, 0.2 * search.u_max, n)
    e = fd_step
    worst = 0.0
    fd_p = (model.eval_H(x, p + e, u) - model.eval_H(x, p - e, u)) / (2 * e)
    fd_x = (model.eval_H(x + e, p, u) - model.eval_H(x - e, p, u)) / (2 * e)
    fd_u = (model.eval_H(x, p, u + e) - model.eval_H(x, p, u - e)) / (2 * e)
    worst = max(worst, float(np.max(np.abs(fd_p - model.d_p(x, p, u)))))
    worst = max(worst, float(np.max(np.abs(fd_x - model.d_x(x, p, u)))))
    worst = max(worst, float(np.max(np.abs(fd_u - model.d_u(x, p, u)))))
    return worst


def estimate_critical_value(model, grid_n=128, horizon=60.0, dt=4e-3,
                            slope_tol=5e-3,
                            search: SearchParams = DEFAULT_SEARCH):
    """Critical value of the frozen Hamiltonian H(x, p, 0).

    Runs the classical (u-independent) evolution from the zero datum and
    reads minus the average slope of t -> min_x of the solution over the
    window [T/2, T], cross-checked against the earlier window [T/4, T/2].
    Raises NotConverged when the two window slopes disagree beyond
    slope_tol.
    """
    from . import semigroup  # local import: semigroup depends on this module

    frozen = freeze_classical(model)
    grid = semigroup.Grid(grid_n)
    phi = semigroup.Field.constant(grid, 0.0)
    quarter = horizon / 4.0
    trace = semigroup.evolve(frozen, phi, horizon, dt, snapshot_every=quarter,
                             search=search, u_cap=np.inf)
    mins = [float(np.min(s.values)) for s in trace.snapshots]
    # snapshots at 0, T/4, T/2, 3T/4, T
    slope_late = (mins[4] - mins[2]) / (2.0 * quarter)
    slope_early = (mins[2] - mins[0]) / (2.0 * quarter)
    disagreement = abs(slope_late - slope_early)
    logging.getLogger(__name__).info(
        "critical value %.6g, window disagreement %.3g", -slope_late,
        disagreement)
    if disagreement > slope_tol:
        raise NotConverged(
            f"window slopes differ by {disagreement:g} > {slope_tol:g}; "
            "increase the horizon"
        )
    return -slope_late
