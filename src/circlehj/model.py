"""Contact Hamiltonian models H(x, p, u) on the unit circle.

A model is a bundle of numpy-vectorized callables for H and its partial
derivatives, plus the structural constants used by the rest of the
package.  The built-in quadratic family

    H = a(x)/2 * (p + b(x))**2 + V(x) - a(x)*b(x)**2/2 - lam*u

covers every reference configuration.  Its coefficients are numbers or
expressions in x, compiled by ``compile_expression`` against a small
whitelisted grammar and differentiated by a complex step, so all
partials are exact to round-off.  Arbitrary models can be supplied as
raw callables as long as they broadcast over numpy arrays.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import InitVar, dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, NoBracket, NonPositiveA


@dataclass(frozen=True)
class SearchParams:
    """Compact search window standing in for the noncompact phase space.

    Extremizers are sought inside |v| <= v_max, |p| <= p_max; the
    structural checks sample values in |u| <= u_max.  The window is part
    of the discretized Hamiltonian: each model carries one as its
    ``search`` field, and every layer reads it from there.  The bounds of
    the evolution step's value fixed point are the constants INNER_TOL
    and INNER_MAX_ITER of ``semigroup``.
    """

    v_max: float = 10.0
    p_max: float = 10.0
    u_max: float = 50.0


DEFAULT_SEARCH = SearchParams()


class QuadCoeffs(NamedTuple):
    """Coefficients of a quadratic-family member
    H = a/2 (p + b)^2 + V - a b^2/2 - lam u.

    a, b, V and their x-derivatives a_x, b_x, V_x are vectorized callables
    of the circle coordinate; lam is the u-coupling.  The record is the
    models' one fast path: the closed-form Lagrangian, the step's node
    tables and the graph field all read it.
    """

    a: Callable
    a_x: Callable
    b: Callable
    b_x: Callable
    V: Callable
    V_x: Callable
    lam: float

    def lagrangian(self, x, v, u):
        """Closed-form Legendre transform: (L(x, v, u), maximizing momentum)."""
        av = self.a(x)
        bv = self.b(x)
        p_star = v / av - bv
        L = (v - av * bv) ** 2 / (2.0 * av) - self.V(x) + self.lam * u
        return L, p_star

    def conjugate(self) -> "QuadCoeffs":
        """Record of H(x, -p, -u): b, b_x and lam change sign."""
        b, b_x = self.b, self.b_x
        return self._replace(b=lambda x: -b(x), b_x=lambda x: -b_x(x),
                             lam=-self.lam)

    def shifted(self, c: float) -> "QuadCoeffs":
        """Record of H - c: the potential drops by c."""
        V = self.V
        return self._replace(V=lambda x: V(x) - c)


@dataclass(frozen=True)
class HamiltonianModel:
    """Contact Hamiltonian on T*S x R with partial derivatives.

    All callables take (x, p, u) -- x is a period-1 circle coordinate --
    and must broadcast over numpy arrays.  ``quad_coeffs``, when set, is
    the QuadCoeffs record of a quadratic-family member; the Lagrangian,
    the evolution step and the graph sweep then use its closed forms
    instead of calling back.  ``search`` is the compact window that stands
    in for the noncompact phase space (``config.build_model`` sets it from
    the ``search.*`` keys); models derived from this one keep it.
    """

    eval_H: Callable
    d_p: Callable
    d_x: Callable
    d_u: Callable
    d_pp: Callable
    kappa: float
    delta: float
    name: str = "custom"
    quad_coeffs: Optional[QuadCoeffs] = None
    search: SearchParams = DEFAULT_SEARCH
    # Former fast-path hooks, accepted only as None: the setup of the
    # generic_characteristics workload in circlebench/workloads.py builds
    # its callback-only model with dataclasses.replace(model,
    # closed_form_L=None, l_affine_u=None, quad_coeffs=None).  They go once
    # that call drops the two keywords.
    closed_form_L: InitVar[None] = None
    l_affine_u: InitVar[None] = None

    def __post_init__(self, closed_form_L, l_affine_u):
        if closed_form_L is not None or l_affine_u is not None:
            raise TypeError("closed_form_L and l_affine_u are no longer "
                            "model fields; pass quad_coeffs=QuadCoeffs(...)")


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


_FUNCTIONS = {"cos": np.cos, "sin": np.sin}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_GRAMMAR = "numbers, x, pi, + - * / **, unary +-, cos(.) and sin(.)"
# Complex step: for an expression analytic in x, Im f(x + i h) / h is f'(x)
# to round-off, with no subtraction to cancel digits.
_STEP = 1e-30


def _closure(node, text):
    """(fn, reads_x) for a whitelisted expression node.

    fn evaluates the node with numpy on real or complex x; constants are
    float64, so a constant subtree follows numpy semantics too.  Raises
    ConfigError on any construct outside the grammar.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        c = np.float64(node.value)
        return (lambda x: c), False
    if isinstance(node, ast.Name) and node.id == "x":
        return (lambda x: x), True
    if isinstance(node, ast.Name) and node.id == "pi":
        c = np.float64(np.pi)
        return (lambda x: c), False
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        op = _UNARY[type(node.op)]
        f, reads_x = _closure(node.operand, text)
        return (lambda x: op(f(x))), reads_x
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        f, f_reads = _closure(node.left, text)
        g, g_reads = _closure(node.right, text)
        if g_reads and isinstance(node.op, ast.Pow):
            raise ConfigError(f"expression {text!r}: the exponent of "
                              f"{ast.unparse(node)!r} must not depend on x")
        return (lambda x: op(f(x), g(x))), f_reads or g_reads
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1
            and not node.keywords):
        fun = _FUNCTIONS[node.func.id]
        f, reads_x = _closure(node.args[0], text)
        return (lambda x: fun(f(x))), reads_x
    raise ConfigError(f"expression {text!r}: {ast.unparse(node)!r} is not "
                      f"allowed (grammar: {_GRAMMAR})")


def _constant(c):
    """Callable of the constant c: a float for scalar x, else filled like x."""
    def const(x):
        shape = np.shape(x)
        if not shape:
            return c
        out = np.empty(shape)
        out.fill(c)
        return out

    return const


def compile_expression(spec):
    """Value and x-derivative callables of a number or an expression in x.

    A number is taken as ``float(spec)``.  A string is parsed by ``ast``
    and must stay inside the grammar: int and float constants, ``x``,
    ``pi``, ``+ - * /``, ``**`` with an exponent free of x, unary ``+ -``,
    and ``cos``/``sin`` of one argument; anything else raises ConfigError.
    Both callables return a float for scalar x and a float array shaped
    like x otherwise.  A constant is evaluated once and its derivative is
    0; the derivative of any other expression is its complex step.
    """
    if not isinstance(spec, str):
        return _constant(float(spec)), _constant(0.0)
    try:
        fn, reads_x = _closure(ast.parse(spec, mode="eval").body, spec)
    except (SyntaxError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"cannot parse expression {spec!r}: {exc}") from exc
    if not reads_x:
        return _constant(float(fn(0.0))), _constant(0.0)

    def f(x):
        out = fn(np.asarray(x, dtype=float))
        return float(out) if np.ndim(x) == 0 else out

    def f_x(x):
        out = fn(np.asarray(x, dtype=float) + _STEP * 1j).imag / _STEP
        return float(out) if np.ndim(x) == 0 else out

    return f, f_x


def make_quadratic_model(a, b, V, lam, kappa=None,
                         delta=None) -> HamiltonianModel:
    """Build a member of the quadratic family with exact derivatives.

    ``a``, ``b``, ``V`` are numbers or expression strings in x (period 1)
    in the grammar of ``compile_expression``, which raises ConfigError on
    anything else; ``lam`` scales the u-term.  The normalization constant -a*b^2/2 makes
    the flat section p = 0, u = 0 lie on the zero-energy surface whenever
    V = 0.

    Raises NonPositiveA if the sampled kinetic coefficient is not > 1e-12.
    """
    a_f, a_d = compile_expression(a)
    b_f, b_d = compile_expression(b)
    V_f, V_d = compile_expression(V)
    lam = float(lam)

    xs = np.linspace(0.0, 1.0, 512, endpoint=False)
    if np.min(a_f(xs)) <= 1e-12:
        raise NonPositiveA(f"sampled a(x) has min {np.min(a_f(xs)):g} <= 1e-12")

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

    name = f"quadratic[a={a}, b={b}, V={V}, lambda={lam:g}]"
    return HamiltonianModel(
        eval_H=eval_H, d_p=d_p, d_x=d_x, d_u=d_u, d_pp=d_pp,
        kappa=float(kappa) if kappa is not None else abs(lam),
        delta=float(delta) if delta is not None else abs(lam),
        name=name, quad_coeffs=QuadCoeffs(a_f, a_d, b_f, b_d, V_f, V_d, lam),
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

    q = model.quad_coeffs
    return replace(model, eval_H=eval_H, d_p=d_p, d_x=d_x, d_u=d_u,
                   d_pp=d_pp, name=f"conjugate({model.name})",
                   quad_coeffs=None if q is None else q.conjugate())


def freeze_classical(model: HamiltonianModel) -> HamiltonianModel:
    """Model with the u-argument frozen at 0 (classical Hamiltonian)."""

    def at0(fn):
        def g(x, p, u):
            return fn(x, p, 0.0 * u)

        return g

    def d_u(x, p, u):
        return 0.0 * (np.asarray(x, dtype=float) + p + u)

    q = model.quad_coeffs
    return replace(model, eval_H=at0(model.eval_H), d_p=at0(model.d_p),
                   d_x=at0(model.d_x), d_u=d_u, d_pp=at0(model.d_pp),
                   kappa=0.0, delta=0.0, name=f"classical({model.name})",
                   quad_coeffs=None if q is None else q._replace(lam=0.0))


def shift_hamiltonian(model: HamiltonianModel, c: float) -> HamiltonianModel:
    """Model with H - c (drops the critical value by c; derivatives unchanged)."""
    c = float(c)

    def eval_H(x, p, u):
        return model.eval_H(x, p, u) - c

    q = model.quad_coeffs
    return replace(model, eval_H=eval_H, name=f"{model.name} - {c:g}",
                   quad_coeffs=None if q is None else q.shifted(c))


def solve_p_star_batch(model, x, v, u):
    """Vectorized momentum solve d_p(x, p*, u) = v, clipped to [-p_max, p_max]
    of the model's window.

    Newton from p = 0 with Hessian floor until every element is settled:
    converged, or clamped at -p_max (p_max) with d_p - v still positive
    (negative), a fixed point of the clipped step for convex H.  A settled
    element is never stepped again, so each momentum is the one a solve of
    that element alone returns, whatever its batch.  Clamped elements stay
    exactly at +-p_max; legendre_transform checks the bracket first and
    raises instead.  A bisection cleanup then runs only on unconverged
    elements whose root the window brackets.
    """
    p_max = model.search.p_max
    x, v, u = np.broadcast_arrays(np.asarray(x, float), np.asarray(v, float),
                                  np.asarray(u, float))
    p = np.zeros(x.shape)
    scale = 1.0 + np.abs(v)
    for _ in range(60):
        g = model.d_p(x, p, u) - v
        settled = ((np.abs(g) <= 1e-12 * scale) | ((p <= -p_max) & (g > 0.0))
                   | ((p >= p_max) & (g < 0.0)))
        if np.all(settled):
            break
        hess = np.maximum(model.d_pp(x, p, u), 1e-14)
        p = np.where(settled, p, np.clip(p - g / hess, -p_max, p_max))
    else:
        g = model.d_p(x, p, u) - v
    bad = np.abs(g) > 1e-9 * scale
    if not np.any(bad):
        return p
    lo = np.full(x.shape, -p_max)
    hi = np.full(x.shape, p_max)
    bracketed = (bad & (model.d_p(x, lo, u) - v <= 0.0)
                 & (model.d_p(x, hi, u) - v >= 0.0))
    if not np.any(bracketed):
        return p
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g_mid = model.d_p(x, mid, u) - v
        take_lo = g_mid > 0.0
        hi = np.where(bracketed & take_lo, mid, hi)
        lo = np.where(bracketed & ~take_lo, mid, lo)
    return np.where(bracketed, 0.5 * (lo + hi), p)


def lagrangian(model, x, v, u):
    """Vectorized Legendre transform value L(x, v, u) = v p* - H(x, p*, u).

    Uses the closed form of a quadratic-family record when the model
    carries one; otherwise the clipped
    numeric momentum solve (a lower bound if the true maximizer escapes
    the window, which only happens at extreme velocities).
    """
    if model.quad_coeffs is not None:
        return model.quad_coeffs.lagrangian(x, v, u)[0]
    p = solve_p_star_batch(model, x, v, u)
    return v * p - model.eval_H(x, p, u)


def legendre_transform(model, x, v, u):
    """Scalar Legendre transform: returns (L value, maximizing momentum).

    The momentum is the one solve_p_star_batch returns, the solver of the
    evolution step.  Raises ValueError when |v| > v_max and NoBracket when
    d_p(x, p, u) - v has no sign change on [-p_max, p_max], the bounds of
    the model's window.
    """
    search = model.search
    if abs(v) > search.v_max:
        raise ValueError(f"|v| = {abs(v):g} exceeds the search bound {search.v_max:g}")
    p_max = search.p_max
    if (float(model.d_p(x, -p_max, u)) > v
            or float(model.d_p(x, p_max, u)) < v):
        raise NoBracket(
            f"d_p - v has no sign change on [{-p_max:g}, {p_max:g}] "
            f"at (x={x:g}, v={v:g}, u={u:g})"
        )
    p = float(solve_p_star_batch(model, x, v, u))
    return v * p - float(model.eval_H(x, p, u)), p


def check_assumptions(model) -> AssumptionReport:
    """Sample the structural assumptions on the model's window.

    Convexity and the strict-decrease band are checked on a grid of
    (x, p, u) triples; the negativity condition on min_p H(x, p, 0) is
    evaluated through the Legendre machinery (min_p H = -L(x, 0, 0)).
    Failures are reported, never raised.
    """
    search = model.search
    xg = np.linspace(0.0, 1.0, 16, endpoint=False)
    pg = np.linspace(-search.p_max, search.p_max, 12)
    ug = np.linspace(-search.u_max, search.u_max, 8)
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

    min_H = -lagrangian(model, xg, np.zeros_like(xg), np.zeros_like(xg))
    c_margin = float(np.max(min_H))
    c_ok = c_margin < 0.0

    return AssumptionReport(
        h1_ok=h1_ok, h4_ok=h4_ok, condition_c_ok=c_ok,
        h1_margin=h1_margin, h4_margin=h4_margin, c_margin=c_margin,
        h2_margin=h2_margin, sample_count=int(X.size),
    )


def derivative_consistency(model):
    """Worst central-difference mismatch of (d_p, d_x, d_u) against eval_H,
    sampled on half the model's momentum window and a fifth of its value
    window."""
    search = model.search
    rng = np.random.default_rng(20240817)
    x = rng.uniform(0.0, 1.0, 64)
    p = rng.uniform(-0.5 * search.p_max, 0.5 * search.p_max, 64)
    u = rng.uniform(-0.2 * search.u_max, 0.2 * search.u_max, 64)
    e = 1e-6
    worst = 0.0
    fd_p = (model.eval_H(x, p + e, u) - model.eval_H(x, p - e, u)) / (2 * e)
    fd_x = (model.eval_H(x + e, p, u) - model.eval_H(x - e, p, u)) / (2 * e)
    fd_u = (model.eval_H(x, p, u + e) - model.eval_H(x, p, u - e)) / (2 * e)
    worst = max(worst, float(np.max(np.abs(fd_p - model.d_p(x, p, u)))))
    worst = max(worst, float(np.max(np.abs(fd_x - model.d_x(x, p, u)))))
    worst = max(worst, float(np.max(np.abs(fd_u - model.d_u(x, p, u)))))
    return worst
