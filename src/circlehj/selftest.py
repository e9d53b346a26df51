"""Built-in check suites: fast (closed-form cases) and full (golden runs).

Each check returns (ok, detail).  The CLI prints one line per check and
exits nonzero if any fails.  Each check builds its own reference models;
only ``check_h4_margin`` also accepts a model, so that a deliberately
broken one can exercise the failure path.
"""

from __future__ import annotations

import math
import sys
import time
import warnings

import numpy as np

from . import flow, periodic
from . import semigroup as sg
from .errors import FlatObjective
from .model import (HamiltonianModel, check_assumptions,
                    constant_drift_model, cosine_potential_model,
                    derivative_consistency, legendre_transform,
                    make_quadratic_model)

EPS_CD = 0.5 / (4.0 * math.pi ** 2)  # subsolution amplitude of CD(1, 0.5)


def check_legendre_closed_form():
    model = constant_drift_model(1.0, 0.5)
    L, p = legendre_transform(model, 0.3, 0.0, 0.0)
    if abs(L - 0.5) > 1e-10 or abs(p + 1.0) > 1e-9:
        return False, f"v=0 expected (0.5, -1), got ({L:g}, {p:g})"
    L, p = legendre_transform(model, 0.0, 1.0, 2.0)
    if abs(L - 1.0) > 1e-10 or abs(p) > 1e-9:
        return False, f"v=1,u=2 expected (1.0, 0), got ({L:g}, {p:g})"
    return True, "constant-drift transforms match the closed form"


def check_h4_margin(model=None):
    model = model or constant_drift_model(1.0, 0.5)
    rep = check_assumptions(model)
    if not rep.h4_ok:
        return False, (f"H4 margin check failed: observed decrease rate "
                       f"{rep.h4_margin:g} vs required delta {model.delta:g}")
    return True, f"H4 margin {rep.h4_margin:g} within [delta, kappa]"


def check_assumption_reports():
    cd = constant_drift_model(1.0, 0.5)
    rep = check_assumptions(cd)
    if not rep.all_ok():
        return False, f"reference model failed assumptions: {rep}"
    bad = constant_drift_model(1.0, -0.5)
    rep_bad = check_assumptions(bad)
    if rep_bad.h4_ok:
        return False, "increasing model was not flagged by the H4 check"
    return True, "margins and failure flags behave as expected"


def check_derivative_consistency():
    model = cosine_potential_model()
    worst = derivative_consistency(model)
    ok = worst <= 1e-5
    return ok, f"worst FD mismatch {worst:.2e} (tol 1e-5)"


def check_orbit_cd():
    model = constant_drift_model(1.0, 0.5)
    orbit = flow.shoot_stationary_orbit(model, guess=(0.1, 0.1))
    if abs(orbit.p0) > 1e-10 or abs(orbit.u0) > 1e-10:
        return False, f"orbit start ({orbit.p0:g}, {orbit.u0:g}) != (0, 0)"
    if abs(orbit.period - 1.0) > 1e-8:
        return False, f"period {orbit.period!r} != 1"
    if abs(orbit.period - abs(orbit.loop_integral)) > 1e-8:
        return False, "period does not match the loop integral"
    return True, f"orbit (0,0), period {orbit.period:.12f}"


def nonaffine_model():
    """(p+1)^2/2 - 1/2 + 0.1 cos 2 pi x - 0.5 u - 0.05 sin u as callables."""
    tp = 2.0 * math.pi
    return HamiltonianModel(
        eval_H=lambda x, p, u: (0.5 * (p + 1) ** 2 - 0.5
                                + 0.1 * np.cos(tp * x) - 0.5 * u
                                - 0.05 * np.sin(u)),
        d_p=lambda x, p, u: p + 1.0 + 0.0 * (x + u),
        d_x=lambda x, p, u: -0.1 * tp * np.sin(tp * x) + 0.0 * (p + u),
        d_u=lambda x, p, u: -0.5 - 0.05 * np.cos(u) + 0.0 * (x + p),
        d_pp=lambda x, p, u: 1.0 + 0.0 * (x + p + u),
        kappa=0.55, delta=0.45, name="custom-nonaffine")


def sweep_jacobian_error(model, n, q=(0.1, 0.05)):
    """Relative gap between the sweep Jacobian at q and central differences
    of whole ``integrate_reduced`` sweeps with step 1e-5."""
    field, array_kw = flow._graph_field(model, n)
    _, p, u = flow._graph_sweep(field, q[0], q[1], n)
    got = flow._sweep_jacobian(field, array_kw, p, u)
    want = np.empty((2, 2))
    for j in range(2):
        ends = []
        for sign in (1.0, -1.0):
            qs = np.array(q, dtype=float)
            qs[j] += sign * 1e-5
            _, ps, us = flow.integrate_reduced(model, qs[0], qs[1], n=n)
            ends.append(np.array([ps[-1], us[-1]]))
        want[:, j] = (ends[0] - ends[1]) / 2e-5
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def check_shot_jacobian():
    worst = max(sweep_jacobian_error(m, 256)
                for m in (cosine_potential_model(), nonaffine_model()))
    return worst <= 1e-6, (f"sweep Jacobian vs central differences of sweeps: "
                           f"worst relative {worst:.1e} (tol 1e-6)")


def check_step_trivial():
    model = constant_drift_model(1.0, 0.5)
    g = sg.Grid(128)
    w = sg.lax_oleinik_step(model, sg.Field.constant(g, 0.0), 1e-3)
    if np.max(np.abs(w.values)) > 1e-12:
        return False, "zero datum did not stay put"
    w = sg.lax_oleinik_step(model, sg.Field.constant(g, 0.1), 1e-3)
    err = np.max(np.abs(w.values - 0.1 * math.exp(0.5e-3)))
    if err > 1e-7:
        return False, f"constant datum growth off by {err:.2e}"
    return True, "single steps match the value ODE"


def check_window_minimum_exact():
    model = constant_drift_model(1.0, 0.5)
    rng = np.random.default_rng(0)
    for n, dt in ((1024, 8e-3), (256, 1.0 / 256)):
        ws = sg._StepWorkspace(model, sg.Grid(n), dt, sg.DEFAULT_SEARCH)
        phi = rng.uniform(-0.1, 0.1, n)
        u = rng.uniform(-0.1, 0.1, n)
        block, block_v = ws.cell_block(phi, u)
        first = np.argmin(block, axis=1)
        best, v_star, _ = ws.window_minimum(phi, u)
        if not (np.array_equal(best, block[np.arange(n), first])
                and np.array_equal(v_star, block_v[np.arange(n), first])):
            return False, (f"strided search differs from the full "
                           f"{n}x{ws.offset.size} cell block at dt = {dt:g}")
    return True, "strided search equals the full cell block bit for bit"


def check_generic_step_certified():
    model = nonaffine_model()
    g = sg.Grid(128)
    rng = np.random.default_rng(2)
    ws = sg._StepWorkspace(model, g, 1.0 / 16, sg.DEFAULT_SEARCH)
    for values in (0.1 * np.cos(2 * np.pi * g.nodes),
                   rng.uniform(-0.1, 0.1, g.n)):
        w = sg.lax_oleinik_step(model, sg.Field(g, values), ws.dt).values
        residual = float(np.max(np.abs(ws.window_minimum(values, w)[0] - w)))
        # the plain iteration w = g(w) of full sweeps, from the datum
        plain = values
        for _ in range(sg.INNER_MAX_ITER):
            nxt = ws.window_minimum(values, plain)[0]
            done = float(np.max(np.abs(nxt - plain))) < sg.INNER_TOL
            plain = nxt
            if done:
                break
        gap = float(np.max(np.abs(w - plain)))
        if residual >= sg.INNER_TOL or gap > 1e-12:
            return False, (f"step residual {residual:.1e}, gap to plain "
                           f"iteration {gap:.1e} (tols {sg.INNER_TOL:g}, "
                           "1e-12)")
    return True, "generic step is a certified fixed point of the full sweep"


def check_evolve_matches_steps():
    model = constant_drift_model(1.0, 0.5)
    rng = np.random.default_rng(1)
    # a window narrower than the drift puts capped nodes' minima on its end
    narrow = sg.SearchParams(v_max=0.5)
    for n, dt in ((256, 1.0 / 256), (1024, 8e-3)):
        g = sg.Grid(n)
        pinned = sg.Field.pinned(g, rng.uniform(), 0.1, 50.0)
        for phi, search in ((sg.Field(g, rng.uniform(-0.1, 0.1, n)),
                             sg.DEFAULT_SEARCH),
                            (pinned, sg.DEFAULT_SEARCH), (pinned, narrow)):
            trace = sg.evolve(model, phi, 8 * dt, dt, snapshot_every=3 * dt,
                              search=search)
            # the same run from single steps, window hits from the cell block
            ws = sg._StepWorkspace(model, g, dt, search)
            snaps, hits, current = [phi], 0, phi
            for k in range(1, 9):
                block, block_v = ws.cell_block(current.values, None)
                v = block_v[np.arange(n), np.argmin(block, axis=1)]
                current = sg.lax_oleinik_step(model, current, dt,
                                              search=search)
                edge = np.abs(v) == search.v_max
                if current.cap_value is not None:
                    edge &= ~current.cap_mask
                hits += int(np.count_nonzero(edge))
                if k % 3 == 0 or k == 8:
                    snaps.append(current)
            # the cap mask follows from the values and the cap
            same = (not trace.diverged and trace.window_hits == hits
                    and np.array_equal(trace.times, [0, 3 * dt, 6 * dt, 8 * dt])
                    and len(trace.snapshots) == len(snaps)
                    and all(np.array_equal(got.values, want.values)
                            and got.cap_value == want.cap_value
                            for got, want in zip(trace.snapshots, snaps)))
            if not same:
                kind = "pinned" if phi.cap_value is not None else "free"
                return False, (f"evolve differs from single steps on {kind} "
                               f"data at n = {n}, dt = {dt:g}, "
                               f"v_max = {search.v_max:g}")
    return True, "evolve equals a chain of single steps bit for bit"


def check_policy_fixed_point():
    """The lam < 0 fixed point by policy iteration, certified to round-off."""
    model = make_quadratic_model(1.0, 1.0, "0.2*cos(2*pi*x)", -0.2)
    g = sg.Grid(128)
    ws = sg._contracting_workspace(model, g, g.h)
    if ws is None:
        return False, "the model's step does not contract"
    record = sg.RunRecord()
    with sg.recording(record):
        _, residual = sg._policy_fixed_point(ws, np.full(g.n, 0.1), 1e-10,
                                             1.0 - ws.dt * ws.affine)
    ok = residual <= 1e-13 and record.policy_sweeps <= 10
    return ok, (f"residual {residual:.1e} (tol 1e-13) after "
                f"{record.policy_sweeps} sweeps (at most 10)")


def check_subsolution_cd():
    model = constant_drift_model(1.0, 0.5)
    orbit = flow.shoot_stationary_orbit(model, guess=(0.1, 0.1))
    spec = periodic.build_subsolution(model, orbit, x0=0.0)
    if abs(spec.epsilon - EPS_CD) > 1e-9:
        return False, f"amplitude {spec.epsilon!r} != lambda/(4 pi^2)"
    if abs(spec.value(0.0, 0.0) - orbit.u0_at(0.0)) > 1e-12:
        return False, "w(x0, 0) != u0(x0)"
    resid = periodic.verify_subsolution(model, spec, n_x=128, n_t=32)
    if resid > 1e-6:
        return False, f"subsolution residual {resid:.2e} > 1e-6"
    return True, f"amplitude {spec.epsilon:.8f}, residual {resid:.2e}"


def check_minshift_synthetic():
    g = sg.Grid(64)
    m = 32
    times = np.arange(m + 1) / m
    slices = [sg.Field(g, np.sin(2 * np.pi * (g.nodes - t))) for t in times]
    w = periodic.PeriodicSolution(
        slices=slices, times=times, period=1.0, amplitude=2.0,
        period_residual=0.0, pde_residual=0.0)
    v2 = periodic.min_shift_combine(w, 2)
    expect = -np.abs(np.sin(2 * np.pi * (g.nodes - times[3])))
    err = np.max(np.abs(v2.slices[3].values - expect))
    if err > 1e-12:
        return False, f"shifted-min mismatch {err:.2e}"
    if abs(v2.period - 0.5) > 1e-15 or v2.period_residual > 1e-12:
        return False, "combined period bookkeeping wrong"
    return True, "sin becomes -|sin| with half the period"


def check_detect_period_flat():
    g = sg.Grid(64)
    times = np.linspace(0.0, 7.0, 141)
    snaps = [sg.Field.constant(g, 0.0) for _ in times]
    trace = sg.EvolutionTrace(times, snaps, "flat", dt=0.05)
    try:
        periodic.detect_period(trace, 1.0)
    except FlatObjective:
        return True, "stationary trace rejected"
    return False, "stationary trace produced a period"


def check_orbit_cdv_golden():
    from .golden import CDV_ORBIT
    model = cosine_potential_model()
    orbit = flow.shoot_stationary_orbit(model)
    errs = (abs(orbit.p0 - CDV_ORBIT["p0"]), abs(orbit.u0 - CDV_ORBIT["u0"]),
            abs(orbit.period - CDV_ORBIT["period"]))
    ok = max(errs) <= 1e-7
    return ok, f"golden deviations {tuple(f'{e:.1e}' for e in errs)} (tol 1e-7)"


def check_weak_kam_consistency():
    model = cosine_potential_model()
    orbit = flow.shoot_stationary_orbit(model)
    g = sg.Grid(256)
    u_plus = sg.weak_kam_forward(model, g)
    err = float(np.max(np.abs(u_plus.values - orbit.u0_at(g.nodes))))
    ok = err <= 2e-2
    return ok, f"||u+ - u0|| = {err:.2e} at N=256 (tol 2e-2)"


def check_action_cross():
    model = cosine_potential_model()
    orbit = flow.shoot_stationary_orbit(model)
    g = sg.Grid(256)
    res = sg.action_function(model, 0.0, float(orbit.u0_at(0.0)), 0.3, 0.7,
                             method="both", grid=g, dt=4e-3)
    gap = res.cross_gap
    ok = gap is not None and gap <= 5e-2
    return ok, f"grid/shooting gap {gap:.2e} (tol 5e-2)"


def check_pinned_limit_cd():
    model = constant_drift_model(1.0, 0.5)
    orbit = flow.shoot_stationary_orbit(model, guess=(0.1, 0.1))
    sol = periodic.pinned_periodic_limit(model, orbit, grid=sg.Grid(256))
    if sol.period_residual > 5e-3:
        return False, f"period residual {sol.period_residual:.2e} > 5e-3"
    if sol.amplitude_at_x0 < 0.5 * EPS_CD:
        return False, f"oscillation {sol.amplitude_at_x0:.3e} below the floor"
    return True, (f"residual {sol.period_residual:.2e}, oscillation "
                  f"{sol.amplitude_at_x0:.3f}")


def check_trichotomy_golden():
    model = constant_drift_model(1.0, 0.5)
    g = sg.Grid(256)
    u_plus = sg.Field.constant(g, 0.0)
    data = [
        (sg.Field.constant(g, 0.1), "D3_plus_infinity"),
        (sg.Field.constant(g, -0.1), "D2_minus_infinity"),
        (sg.Field(g, 0.05 - 0.05 * np.cos(2 * np.pi * g.nodes)), "D1_bounded"),
    ]
    for phi, want in data:
        rep = periodic.classify_trichotomy(model, phi, u_plus, t_budget=20.0)
        if rep.klass != want or not rep.confirmed:
            return False, f"expected confirmed {want}, got {rep.klass} " \
                          f"(confirmed={rep.confirmed})"
    return True, "all three golden data classified and confirmed"


def check_critical_value():
    model = make_quadratic_model(1.0, 0.0, "0.2*cos(2*pi*x)", 0.0)
    c = sg.estimate_critical_value(model)
    ok = abs(c - 0.2) <= 1e-2
    return ok, f"mechanical critical value {c:.4f} (expect 0.2 +- 1e-2)"


FAST_CHECKS = [
    ("legendre-closed-form", check_legendre_closed_form),
    ("h4-margin", check_h4_margin),
    ("assumption-reports", check_assumption_reports),
    ("derivative-consistency", check_derivative_consistency),
    ("orbit-constant-drift", check_orbit_cd),
    ("shot-jacobian", check_shot_jacobian),
    ("step-trivial", check_step_trivial),
    ("window-minimum-exact", check_window_minimum_exact),
    ("generic-step-certified", check_generic_step_certified),
    ("evolve-matches-steps", check_evolve_matches_steps),
    ("policy-fixed-point", check_policy_fixed_point),
    ("critical-value-mechanical", check_critical_value),
    ("subsolution-constant-drift", check_subsolution_cd),
    ("min-shift-synthetic", check_minshift_synthetic),
    ("detect-period-flat", check_detect_period_flat),
]

FULL_CHECKS = FAST_CHECKS + [
    ("orbit-cdv-golden", check_orbit_cdv_golden),
    ("weak-kam-consistency", check_weak_kam_consistency),
    ("action-cross-check", check_action_cross),
    ("pinned-limit-constant-drift", check_pinned_limit_cd),
    ("trichotomy-golden", check_trichotomy_golden),
]


def run_selftest(level="fast"):
    """Run the named check suite; returns the number of failures."""
    checks = FAST_CHECKS if level == "fast" else FULL_CHECKS
    failures = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, fn in checks:
            start = time.perf_counter()
            try:
                ok, detail = fn()
            except Exception as exc:  # a crashed check is a failed check
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - start
            status = "PASS" if ok else "FAIL"
            sys.stdout.write(f"[{status}] {name}: {detail} ({took:.1f}s)\n")
            failures += 0 if ok else 1
    return failures
