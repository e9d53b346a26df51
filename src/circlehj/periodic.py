"""Time-periodic structure: subsolution, periodic limits, trichotomy, sweep.

This module assembles the dynamical conclusions: the explicit oscillating
subsolution built from the stationary orbit, the pinned-data and
long-time periodic limits of the evolution, period subdivision by
min-combination of time shifts, the bounded / -infinity / +infinity
classification of initial data, and the parameter sweep exhibiting the
bifurcation at sign change.

Both periodic limits are one ``_periodic_limit``: the period-map limit,
one recorded period of slices, its amplitude and its residuals.  The
pinned limit adds its floor at the pin, the long-time limit its shift
and localization gap.  Transversality of the orbit is checked once, by
``build_subsolution``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (EpsilonUnderflow, FlatObjective, NotConverged,
                     NotNontrivial, SliceCountIncompatible, TouchingViolated,
                     TurningPoint)
from .flow import (B_MIN_TOL, OrbitResult, check_condition_A,
                   shoot_stationary_orbit)
from .model import HamiltonianModel
from .semigroup import (EvolutionTrace, Field, Grid, _iterate_to_limit,
                        evolve, stationary_limit, sup_dist)

TWO_PI = 2.0 * math.pi


@dataclass
class SubsolutionSpec:
    """Explicit oscillating subsolution assembled from the stationary orbit.

    w(x, t) = u0(x) + eps + eps * sin(-pi/2 + phase(x) - phase(x0) + 2 pi t / Z)

    with Z the signed loop integral of the orbit.  ``hessian_bound`` is the
    sampled bound on the averaged momentum Hessian entering the amplitude
    formula eps = min( delta Z^2 min B^2 / (8 pi^2 M0), 1 ).
    """

    x0: float
    epsilon: float
    hessian_bound: float
    orbit: OrbitResult

    def _arg(self, x, t):
        orb = self.orbit
        ph = orb.phase_at(x) - orb.phase_at(self.x0)
        return -0.5 * math.pi + ph + TWO_PI * np.asarray(t, dtype=float) / orb.loop_integral

    def value(self, x, t):
        return self.orbit.u0_at(x) + self.epsilon * (1.0 + np.sin(self._arg(x, t)))

    def partials(self, x, t):
        """(w_t, w_x, w) from the orbit tables; exact up to table interpolation."""
        orb = self.orbit
        arg = self._arg(x, t)
        cos = np.cos(arg)
        fprime = -TWO_PI / (orb.loop_integral * orb.speed_at(x))
        w_t = self.epsilon * cos * TWO_PI / orb.loop_integral
        w_x = orb.p0_at(x) + self.epsilon * cos * fprime
        w = orb.u0_at(x) + self.epsilon * (1.0 + np.sin(arg))
        return w_t, w_x, w


def build_subsolution(model: HamiltonianModel, orbit: OrbitResult,
                      x0=0.0) -> SubsolutionSpec:
    """Assemble the subsolution with amplitude from the orbit's geometry.

    The averaged-Hessian bound is sampled over momentum offsets up to
    2*pi*max|phase'| around the graph (a superset of the offsets the
    oscillation can produce; any upper bound only shrinks eps).
    """
    holds, min_abs_b = check_condition_A(orbit)
    if not holds:
        raise TurningPoint(
            f"min |dH/dp| on the graph is {min_abs_b:.3g}; the construction "
            "needs a transverse orbit"
        )
    z = orbit.loop_integral
    fprime_max = TWO_PI / (abs(z) * min_abs_b)
    s_bound = TWO_PI * fprime_max
    offsets = np.linspace(-s_bound, s_bound, 33)
    xs = orbit.x_nodes
    dpp = np.asarray(model.d_pp(xs[:, None], orbit.p_of_x[:, None] + offsets[None, :],
                                orbit.u_of_x[:, None]), dtype=float)
    m0 = 0.5 * float(np.max(np.abs(dpp)))
    eps = min(0.5 * model.delta * z * z / (4.0 * math.pi ** 2 * m0)
              * min_abs_b ** 2, 1.0)
    if eps < 1e-10:
        raise EpsilonUnderflow(f"subsolution amplitude {eps:.3g} below 1e-10")
    return SubsolutionSpec(x0=float(x0), epsilon=eps, hessian_bound=m0,
                           orbit=orbit)


def subsolution_residual_exact(model: HamiltonianModel, spec: SubsolutionSpec,
                               x, t):
    """w_t + H(x, w_x, w) with derivatives from the orbit tables."""
    w_t, w_x, w = spec.partials(x, t)
    return w_t + model.eval_H(np.asarray(x, dtype=float) % 1.0, w_x, w)


def verify_subsolution(model: HamiltonianModel, spec: SubsolutionSpec,
                       n_x=256, n_t=64):
    """Max of the subsolution inequality by centered differences.

    Sampling aligns with the orbit tables (n_x must divide the table
    size); the x finite-difference step is the table spacing, so the
    stencil reads exact table nodes, and the t step is 1e-4 periods.
    """
    orbit = spec.orbit
    table_n = orbit.x_nodes.size - 1
    if table_n % n_x != 0:
        raise ValueError(f"n_x = {n_x} must divide the orbit table size {table_n}")
    xs = np.arange(n_x) / n_x
    period = orbit.period
    ts = np.linspace(0.0, period, n_t, endpoint=False)
    dx = 1.0 / table_n
    dt = 1e-4 * period
    X = xs[:, None]
    T = ts[None, :]
    w_x = (spec.value(X + dx, T) - spec.value(X - dx, T)) / (2.0 * dx)
    w_t = (spec.value(X, T + dt) - spec.value(X, T - dt)) / (2.0 * dt)
    resid = w_t + model.eval_H(X, w_x, spec.value(X, T))
    return float(np.max(resid))


@dataclass
class PeriodicSolution:
    """One period of an (approximately) time-periodic state.

    ``slices`` holds m+1 fields at times k*period/m, k = 0..m, endpoint
    included; period_residual is the sup distance between the endpoint
    slices.  ``converge_history`` records the per-period increments of
    the map that produced it.
    """

    slices: list
    times: np.ndarray
    period: float
    amplitude: float
    period_residual: float
    pde_residual: float
    amplitude_at_x0: Optional[float] = None
    x0: Optional[float] = None
    n_periods: int = 0
    converge_history: list = field(default_factory=list)
    quasi_converged: bool = False
    epsilon_floor: Optional[float] = None
    localization_gap: Optional[float] = None
    shift_applied: float = 0.0

    def values_matrix(self):
        return np.stack([s.values for s in self.slices])


def _dilate(mask, radius):
    """Periodic mask grown by radius nodes on each side.

    Node i is set when the window i - radius .. i + radius of the
    circularly padded mask holds a set node: one cumulative count.
    """
    n = mask.size
    if 2 * radius + 1 >= n:
        return np.full(n, mask.any())
    padded = np.concatenate((mask[n - radius:], mask, mask[:radius]))
    count = np.concatenate(([0], np.cumsum(padded)))
    return count[2 * radius + 1:] > count[:n]


def _oscillation(slices):
    """Per-node range (max - min over the slices) of the values."""
    mat = np.stack([s.values for s in slices])
    return mat.max(axis=0) - mat.min(axis=0)


def _touching_band(phi: Field, u_plus):
    """(phi - u+, band 3h*Lip(phi)) within which a gap counts as touching."""
    g = phi.grid
    lip = float(np.max(np.abs(np.diff(np.append(phi.values, phi.values[0]))))) / g.h
    return phi.values - u_plus, max(3.0 * g.h * lip, 1e-12)


def _upwind_pde_residual(model, slices, times):
    """Upwind residual of the evolution equation at smooth nodes.

    Nodes where the one-sided slopes differ by 5h or more are shock
    candidates and are excluded; the
    time derivative is centered across neighboring slices.
    """
    grid = slices[0].grid
    h = grid.h
    xs = grid.nodes
    mats = np.stack([s.values for s in slices])
    lefts = (mats - np.roll(mats, 1, axis=1)) / h
    rights = (np.roll(mats, -1, axis=1) - mats) / h
    kinky = np.abs(lefts - rights) >= 5.0 * h
    worst = 0.0
    for k in range(1, len(slices) - 1):
        w = mats[k]
        dt2 = times[k + 1] - times[k - 1]
        w_t = (mats[k + 1] - mats[k - 1]) / dt2
        centered = 0.5 * (lefts[k] + rights[k])
        speed = np.asarray(model.d_p(xs, centered, w), dtype=float)
        # the centered time difference is sound only where no kink passes
        # during [t_{k-1}, t_{k+1}]: dilate the kink set by the distance a
        # characteristic covers in that window
        radius = int(math.ceil(dt2 * float(np.max(np.abs(speed))) / h)) + 1
        bad = kinky[k - 1] | _dilate(kinky[k], radius) | kinky[k + 1]
        slope = np.where(speed > 0.0, lefts[k], rights[k])
        resid = w_t + np.asarray(model.eval_H(xs, slope, w), dtype=float)
        smooth = ~bad
        if np.any(smooth):
            worst = max(worst, float(np.max(np.abs(resid[smooth]))))
    return worst


def _period_map_limit(model, start, period, dt, n_max, tol):
    """Iterate the period map to (quasi) stationarity, accepting 10 * tol."""
    return _iterate_to_limit(lambda f: evolve(model, f, period, dt), start,
                             tol, n_max, 10.0 * tol)


def _periodic_limit(model, start, period, dt, n_max, tol, m_slices,
                    **fields) -> PeriodicSolution:
    """The period-map limit from start, with one recorded period of m+1
    uniformly spaced slices, its amplitude and its residuals; ``fields``
    are the caller's own PeriodicSolution fields."""
    state, history, n_done, quasi = _period_map_limit(
        model, start, period, dt, n_max, tol)
    steps_per_slice = max(1, round(period / (m_slices * dt)))
    trace = evolve(model, state, period, period / (m_slices * steps_per_slice),
                   snapshot_every=period / m_slices)
    slices, times = trace.snapshots, trace.times
    return PeriodicSolution(
        slices=slices, times=times, period=period,
        amplitude=float(np.max(_oscillation(slices))),
        period_residual=sup_dist(slices[-1], slices[0]),
        pde_residual=_upwind_pde_residual(model, slices, times),
        n_periods=n_done, converge_history=history, quasi_converged=quasi,
        **fields)


def pinned_periodic_limit(model: HamiltonianModel, orbit: OrbitResult, x0=0.0,
                          n_max=200, tol=5e-3, grid: Optional[Grid] = None,
                          dt: Optional[float] = None, m_slices=64, u_cap=50.0,
                          amplitude_floor_factor=0.5) -> PeriodicSolution:
    """Periodic limit of the evolution from orbit-pinned point data.

    Pins the stationary value at x0, iterates the period map until the
    increments drop below tol, then records one period of slices.
    Raises TurningPoint for an orbit that is not transverse (the
    subsolution's check), and NotNontrivial when the oscillation at x0
    falls below amplitude_floor_factor * eps, the guaranteed floor from
    the subsolution construction.
    """
    g = grid or Grid(256)
    dt = g.h if dt is None else dt
    spec = build_subsolution(model, orbit, x0=x0)
    start = Field.pinned(g, x0, float(orbit.u0_at(x0)), u_cap)
    sol = _periodic_limit(model, start, orbit.period, dt, n_max, tol, m_slices,
                          x0=float(x0), epsilon_floor=spec.epsilon)
    sol.amplitude_at_x0 = float(_oscillation(sol.slices)[g.nearest(x0)])
    floor = amplitude_floor_factor * spec.epsilon
    if sol.amplitude_at_x0 < floor:
        raise NotNontrivial(
            f"oscillation {sol.amplitude_at_x0:.3g} at the pin falls below "
            f"the floor {floor:.3g}; the run degenerated"
        )
    return sol


def long_time_periodic_limit(model: HamiltonianModel, phi: Field,
                             orbit: OrbitResult, n_max=200, tol=5e-3,
                             dt: Optional[float] = None, m_slices=64,
                             u_cap=50.0, auto_shift=True,
                             localization_t=5.0) -> PeriodicSolution:
    """Long-time periodic limit for data touching the stationary state.

    The datum is shifted so that min(phi - u+) = 0 (logged on the result;
    refused via TouchingViolated when auto_shift is off and the minimum
    is away from zero).  After convergence of the period map, the
    evolution restricted to the touching set grown by 3 cells is
    compared against the full one and the sup gap at localization_t is
    recorded.
    """
    g = phi.grid
    dt = g.h if dt is None else dt
    gap, touch_tol = _touching_band(phi, orbit.u0_at(g.nodes))
    shift = -float(np.min(gap))
    if not auto_shift and abs(shift) > touch_tol:
        raise TouchingViolated(
            f"min(phi - u+) = {-shift:g} is outside the touching band "
            f"{touch_tol:g} and auto_shift is off"
        )
    shifted = Field(g, phi.values + shift)
    gap = gap + shift
    sol = _periodic_limit(model, shifted, orbit.period, dt, n_max, tol,
                          m_slices, shift_applied=float(shift))

    # localization: evolving only the data near the touching set must
    # reproduce the full evolution at late times
    dilated = _dilate(gap <= touch_tol, 3)
    pinned = Field(g, np.where(dilated, shifted.values, u_cap), u_cap)
    full_tr = evolve(model, shifted, localization_t, dt, u_cap=u_cap)
    loc_tr = evolve(model, pinned, localization_t, dt, u_cap=u_cap)
    sol.localization_gap = float(sup_dist(full_tr.final, loc_tr.final))
    return sol


def min_shift_combine(w: PeriodicSolution, n: int) -> PeriodicSolution:
    """Pointwise minimum of n equal time shifts: a period/n periodic state.

    The stored m+1 slices must subdivide evenly (n | m); the combined
    state inherits one finer period of slices, endpoint included.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = len(w.slices) - 1
    if m % n != 0:
        raise SliceCountIncompatible(f"{n} does not divide the slice count {m}")
    if n == 1:
        return w
    stride = m // n
    grid = w.slices[0].grid
    mat = w.values_matrix()
    new_slices = []
    for k in range(stride + 1):
        stack = np.stack([mat[k + r * stride] for r in range(n)])
        new_slices.append(Field(grid, stack.min(axis=0)))
    new_times = w.times[: stride + 1].copy()
    return PeriodicSolution(
        slices=new_slices, times=new_times, period=w.period / n,
        amplitude=float(np.max(_oscillation(new_slices))),
        period_residual=sup_dist(new_slices[-1], new_slices[0]),
        pde_residual=np.nan, x0=w.x0, n_periods=w.n_periods,
        converge_history=list(w.converge_history),
        quasi_converged=w.quasi_converged, epsilon_floor=w.epsilon_floor,
    )


def finalize_pde_residual(model, sol: PeriodicSolution) -> float:
    """Recompute and store the upwind residual of a (combined) solution."""
    sol.pde_residual = _upwind_pde_residual(model, sol.slices, sol.times)
    return sol.pde_residual


def detect_period(trace: EvolutionTrace, t_hint: float):
    """Golden-section fit of the recurrence time of a trace.

    Discards the first half as transient, then minimizes over
    s in [0.5, 1.5]*t_hint the worst sup distance between the trace at t
    and t+s.  Raises FlatObjective for stationary traces.
    """
    times = trace.times
    t_end = float(times[-1])
    t_start = 0.5 * t_end
    if t_end - t_start < 3.0 * t_hint:
        raise ValueError(
            f"trace covers {t_end - t_start:g} after transient cutoff; "
            f"need at least {3.0 * t_hint:g}"
        )
    s_hi = 1.5 * t_hint
    sample_ts = [t for t in times if t_start <= t <= t_end - s_hi]

    def objective(s):
        worst = 0.0
        for t in sample_ts:
            d = float(np.max(np.abs(trace.at(t + s) - trace.at(t))))
            worst = max(worst, d)
        return worst

    lo, hi = 0.5 * t_hint, 1.5 * t_hint
    probes = [objective(lo + f * (hi - lo)) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    if max(probes) - min(probes) < 1e-12:
        raise FlatObjective("trace is stationary over the search bracket")
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > 1e-6 * t_hint:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = objective(d)
    s_best = c if fc < fd else d
    return float(s_best), float(min(fc, fd))


@dataclass
class TrichotomyReport:
    """Long-time classification of an initial datum."""

    klass: str  # D1_bounded | D2_minus_infinity | D3_plus_infinity
    confirmed: bool
    evidence_min: float
    evidence_max: float
    touch_tol: float
    bound_K: Optional[float] = None
    onset_T_phi: Optional[float] = None
    escape_time: Optional[float] = None
    inconclusive_reason: Optional[str] = None


def classify_trichotomy(model: HamiltonianModel, phi: Field, u_plus: Field,
                        t_budget=20.0, dt: Optional[float] = None,
                        u_cap=50.0) -> TrichotomyReport:
    """Static sign classification with dynamic confirmation.

    The datum is compared to the forward stationary solution within a
    band 3h*Lip(phi); the evolution then either escapes past +-5 (D3/D2)
    or stays bounded over the budget (D1).  A
    failed confirmation is reported on the flag, not raised.
    """
    dt = phi.grid.h if dt is None else dt
    gap, touch_tol = _touching_band(phi, u_plus.values)
    gmin, gmax = float(np.min(gap)), float(np.max(gap))
    if gmin < -touch_tol:
        klass = "D2_minus_infinity"
    elif gmin > touch_tol:
        klass = "D3_plus_infinity"
    else:
        klass = "D1_bounded"

    trace = evolve(model, phi, t_budget, dt, snapshot_every=min(0.25, t_budget),
                   u_cap=u_cap)
    report = TrichotomyReport(klass=klass, confirmed=False, evidence_min=gmin,
                              evidence_max=gmax, touch_tol=touch_tol)
    if klass != "D1_bounded":
        # escape to +inf (D3) is min >= level, to -inf (D2) max <= -level:
        # both are min(sign * values) >= level
        sign = 1.0 if klass == "D3_plus_infinity" else -1.0
        for t, s in zip(trace.times, trace.snapshots):
            if float(np.min(sign * s.values)) >= 5.0:
                report.confirmed = True
                report.escape_time = float(t)
                break
        if not report.confirmed:
            report.inconclusive_reason = (
                f"{'min' if sign > 0 else 'max'} never reached "
                f"{sign * 5.0:g} within t = {t_budget:g}")
    else:
        if trace.diverged:
            report.inconclusive_reason = "evolution diverged despite touching data"
        else:
            norms = trace.sup_norms()
            half = trace.times >= 0.5 * t_budget
            K = float(np.max(norms[half]))
            report.bound_K = K
            below = norms <= K * (1.0 + 1e-12)
            onset = trace.times[-1]
            for i in range(len(norms) - 1, -1, -1):
                if not below[i]:
                    break
                onset = trace.times[i]
            report.onset_T_phi = float(onset)
            report.confirmed = True
    return report


@dataclass
class BifurcationRow:
    lam: float
    klass: str  # fixed_point | periodic | degenerate
    amplitude: float
    period_estimate: float
    min_abs_b: float
    error: Optional[str] = None


@dataclass
class BifurcationDiagram:
    rows: list
    lambda0_estimate: float  # +inf marker when transversality never fails


def _sweep_row(family: Callable[[float], HamiltonianModel], lam: float,
               grid_n: int, dt: Optional[float], pinned_tol: float,
               fp_tol: float, n_max: int) -> BifurcationRow:
    g = Grid(grid_n)
    dt = g.h if dt is None else dt
    if lam == 0.0:
        return BifurcationRow(lam, "degenerate", math.nan, math.nan, math.nan,
                              error="classical member excluded from the "
                                    "value-coupled pipeline")
    model = family(lam)
    if lam < 0.0:
        # increasing case: everything contracts onto the unique fixed point;
        # the amplitude is the gap of its stationary limit
        try:
            _, gap = stationary_limit(model, Field.constant(g, 0.1), fp_tol,
                                      60.0, dt)
        except NotConverged as exc:
            return BifurcationRow(lam, "fixed_point", math.nan, math.nan,
                                  math.nan, error=str(exc))
        try:
            orbit = shoot_stationary_orbit(model)
            min_b = check_condition_A(orbit)[1]
        except Exception:
            min_b = math.nan
        return BifurcationRow(lam, "fixed_point", gap, math.nan, min_b)
    try:
        orbit = shoot_stationary_orbit(model)
    except (TurningPoint, NotConverged) as exc:
        return BifurcationRow(lam, "degenerate", math.nan, math.nan, 0.0,
                              error=f"orbit: {exc}")
    holds, min_b = check_condition_A(orbit)
    if not holds:
        return BifurcationRow(lam, "degenerate", math.nan, math.nan, min_b,
                              error="graph speed vanishes on the orbit")
    try:
        sol = pinned_periodic_limit(model, orbit, x0=0.0, n_max=n_max,
                                    tol=pinned_tol, grid=g, dt=dt,
                                    m_slices=32)
    except NotNontrivial as exc:
        return BifurcationRow(lam, "fixed_point", 0.0, orbit.period, min_b,
                              error=str(exc))
    except NotConverged as exc:
        return BifurcationRow(lam, "degenerate", math.nan, orbit.period, min_b,
                              error=str(exc))
    return BifurcationRow(lam, "periodic", sol.amplitude, sol.period, min_b)


def bifurcation_sweep(family: Callable[[float], HamiltonianModel], lambdas,
                      grid_n=128, dt: Optional[float] = None, pinned_tol=5e-3,
                      fp_tol=1e-4, n_max=200) -> BifurcationDiagram:
    """Classify the family member at each parameter value; each member
    brings its own search window.

    Rows never abort the sweep; failures are recorded per row.  A row
    with lam < 0 is the fixed point: solved by policy iteration to fp_tol
    for a family with a coefficient record, else the period-map limit
    within 60 periods.  The transversality threshold estimate is the
    midpoint between the first positive parameter whose min |dH/dp| is
    not above B_MIN_TOL (NaN included) and the positive parameter before
    it, or 0 when there is none; +inf when transversality holds across
    the whole range.
    """
    rows = []
    for lam in sorted(float(l) for l in lambdas):
        try:
            rows.append(_sweep_row(family, lam, grid_n, dt, pinned_tol,
                                   fp_tol, n_max))
        except Exception as exc:  # a row must never kill the sweep
            rows.append(BifurcationRow(
                lam, "degenerate", math.nan, math.nan, math.nan,
                error=f"{type(exc).__name__}: {exc}"))

    lambda0, prev = math.inf, 0.0
    for row in rows:
        if row.lam <= 0.0:
            continue
        if not row.min_abs_b > B_MIN_TOL:    # NaN is not transverse
            lambda0 = 0.5 * (prev + row.lam)
            break
        prev = row.lam
    return BifurcationDiagram(rows=rows, lambda0_estimate=lambda0)
