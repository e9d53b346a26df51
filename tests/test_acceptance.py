"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or on
failure); the assertions carry the same numbers.  Heavy artifacts are
session fixtures shared with the unit tests.
"""

import math
import time

import numpy as np
import pytest

from circlehj import flow, periodic
from circlehj import semigroup as sg
from circlehj.model import make_quadratic_model

from conftest import LAM, cd_pinned_action_exact, random_smooth_field

EPS_CD = 0.0126651  # lambda / (4 pi^2) at lambda = 1/2


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_cd_orbit(cd_model):
    start = time.perf_counter()
    orbit = flow.shoot_stationary_orbit(cd_model, guess=(0.1, 0.1))
    took = time.perf_counter() - start
    ok = (abs(orbit.p0) <= 1e-10 and abs(orbit.u0) <= 1e-10
          and abs(orbit.period - 1.0) <= 1e-8
          and abs(orbit.period - abs(orbit.loop_integral)) <= 1e-8
          and took < 1.0)
    report(1, ok, f"(p0,u0)=({orbit.p0:.1e},{orbit.u0:.1e}) "
                  f"T={orbit.period:.10f} |T-|Z||="
                  f"{abs(orbit.period - abs(orbit.loop_integral)):.1e} "
                  f"runtime={took:.2f}s")


def test_criterion_02_constant_evolution(cd_model, grid256):
    start = time.perf_counter()
    worst = 0.0
    for a in (0.1, -0.1):
        trace = sg.evolve(cd_model, sg.Field.constant(grid256, a), 2.0, 1e-3)
        exact = a * math.exp(LAM * 2.0)
        worst = max(worst, float(np.max(np.abs(trace.final.values - exact))
                                 / abs(exact)))
    took = time.perf_counter() - start
    ok = worst <= 1e-2 and took < 30.0
    report(2, ok, f"relative error {worst:.2e} (tol 1e-2), runtime {took:.1f}s")


def test_criterion_03_weak_kam_consistency(cdv_model, cdv_orbit, cdv_uplus_256,
                                           grid256):
    u0_256 = cdv_orbit.u0_at(grid256.nodes)
    err_256 = float(np.max(np.abs(cdv_uplus_256.values - u0_256)))
    u_minus_256 = sg.weak_kam_backward(cdv_model, cdv_uplus_256)
    gap_256 = sg.sup_dist(u_minus_256, cdv_uplus_256)

    grid1024 = sg.Grid(1024)
    warm = sg.Field(grid1024, cdv_uplus_256.interp(grid1024.nodes))
    u_plus_1024 = sg.weak_kam_forward(cdv_model, grid1024, tol=1e-6,
                                      phi0=warm)
    err_1024 = float(np.max(np.abs(u_plus_1024.values
                                   - cdv_orbit.u0_at(grid1024.nodes))))
    u_minus_1024 = sg.weak_kam_backward(cdv_model, u_plus_1024)
    gap_1024 = sg.sup_dist(u_minus_1024, u_plus_1024)

    ok = (err_256 <= 2e-2 and gap_256 <= 2e-2
          and err_1024 <= 5e-3 and gap_1024 <= 5e-3)
    report(3, ok, f"N=256: |u+-u0|={err_256:.2e} |u--u+|={gap_256:.2e} "
                  f"(tol 2e-2); N=1024: {err_1024:.2e} / {gap_1024:.2e} "
                  f"(tol 5e-3)")


def test_criterion_04_subsolution(cd_model, cd_orbit, grid256):
    spec = periodic.build_subsolution(cd_model, cd_orbit, x0=0.0)
    resid = periodic.verify_subsolution(cd_model, spec, n_x=256, n_t=64)
    phi = sg.Field(grid256, spec.value(grid256.nodes, 0.0))
    worst_gap = -math.inf
    for t in (0.5, 1.0):
        trace = sg.evolve(cd_model, phi, t, 1e-3)
        gap = float(np.min(trace.final.values
                           - spec.value(grid256.nodes, t)))
        worst_gap = max(worst_gap, -gap)
    ok = resid <= 1e-6 and worst_gap <= 5e-3
    report(4, ok, f"max residual {resid:.2e} (tol 1e-6); comparison defect "
                  f"{worst_gap:.2e} (tol 5e-3)")


def test_criterion_05_pinned_periodicity(cd_model, cd_orbit, grid256):
    start = time.perf_counter()
    sol = periodic.pinned_periodic_limit(cd_model, cd_orbit, x0=0.0,
                                         grid=grid256, n_max=200, tol=5e-3)
    trace = sg.evolve(cd_model, sol.slices[0], 7.0, grid256.h,
                      snapshot_every=cd_orbit.period / 32.0)
    period, _ = periodic.detect_period(trace, cd_orbit.period)
    took = time.perf_counter() - start
    ok = (sol.period_residual <= 5e-3
          and abs(period - 1.0) <= 0.02
          and sol.amplitude_at_x0 >= 0.5 * EPS_CD
          and sol.n_periods <= 200
          and took < 600.0)
    report(5, ok, f"residual {sol.period_residual:.2e} (tol 5e-3), period "
                  f"{period:.4f} (2% of 1), oscillation {sol.amplitude_at_x0:.4f} "
                  f">= {0.5 * EPS_CD:.4f}, {sol.n_periods} periods, "
                  f"runtime {took:.0f}s")


def test_criterion_06_min_shift_multiplicity(cd_model, cd_pinned_sol):
    half = periodic.min_shift_combine(cd_pinned_sol, 2)
    periodic.finalize_pde_residual(cd_model, half)
    ok = half.period_residual <= 1e-2 and half.pde_residual <= 5e-2
    report(6, ok, f"half-period residual {half.period_residual:.2e} "
                  f"(tol 1e-2), upwind residual {half.pde_residual:.2e} "
                  f"(tol 5e-2)")


def test_criterion_07_trichotomy(cd_model, grid256):
    u_plus = sg.Field.constant(grid256, 0.0)
    cases = [
        (sg.Field.constant(grid256, 0.1), "D3_plus_infinity"),
        (sg.Field.constant(grid256, -0.1), "D2_minus_infinity"),
        (sg.Field(grid256, 0.05 - 0.05 * np.cos(2 * np.pi * grid256.nodes)),
         "D1_bounded"),
    ]
    results = []
    ok = True
    for phi, want in cases:
        rep = periodic.classify_trichotomy(cd_model, phi, u_plus,
                                           t_budget=20.0)
        results.append(f"{want.split('_')[0]}:{rep.klass.split('_')[0]}"
                       f"{'+' if rep.confirmed else '-'}")
        ok = ok and rep.klass == want and rep.confirmed
    report(7, ok, "static+dynamic " + " ".join(results))


def test_criterion_08_property_suites(cd_model, cd_orbit, grid256):
    start = time.perf_counter()
    dt = 1e-3
    h = grid256.h
    rng = np.random.default_rng(2024)
    kappa = cd_model.kappa

    mono_ok = True
    expans_c = 0.0
    for _ in range(20):
        phi = random_smooth_field(grid256, rng)
        psi = sg.Field(grid256, phi.values
                       - np.abs(random_smooth_field(grid256, rng).values))
        tr_phi = sg.evolve(cd_model, phi, 1.0, dt, snapshot_every=0.1)
        tr_psi = sg.evolve(cd_model, psi, 1.0, dt, snapshot_every=0.1)
        gap0 = float(np.max(np.abs(phi.values - psi.values)))
        for t in (0.1, 1.0):
            a = tr_psi.at(t)
            b = tr_phi.at(t)
            mono_ok = mono_ok and bool(np.all(a <= b + 1e-9))
            slack = float(np.max(np.abs(b - a))) - math.exp(kappa * t) * gap0
            expans_c = max(expans_c, slack / (h + dt))
    expans_ok = expans_c < 5.0

    semi_worst = 0.0
    phi = random_smooth_field(grid256, rng)
    for (t, s) in ((0.3, 0.7), (0.5, 0.5)):
        full = sg.evolve(cd_model, phi, t + s, dt)
        part = sg.evolve(cd_model, sg.evolve(cd_model, phi, s, dt).final, t, dt)
        semi_worst = max(semi_worst, sg.sup_dist(full.final, part.final))
    semi_ok = semi_worst <= 5.0 * (h + dt)

    markov_worst = 0.0
    t, s = 0.4, 0.6
    for _ in range(5):
        x0, u0 = rng.uniform(0, 1), rng.uniform(-0.2, 0.2)
        x = grid256.nodes[grid256.nearest(rng.uniform(0, 1))]
        pinned = sg.Field.pinned(grid256, x0, u0, 50.0)
        tr = sg.evolve(cd_model, pinned, t + s, dt, snapshot_every=t)
        psi_vals = tr.snapshots[1].values
        lhs = tr.final.values[grid256.nearest(x)]
        rhs = min(cd_pinned_action_exact(y, c, x, s)
                  for y, c in zip(grid256.nodes, psi_vals))
        markov_worst = max(markov_worst, abs(lhs - rhs))
    markov_ok = markov_worst <= 5.0 * (h + dt)

    dual_worst = 0.0
    for _ in range(5):
        x0, u0 = rng.uniform(0, 1), rng.uniform(-0.2, 0.2)
        x, tt = rng.uniform(0, 1), rng.uniform(0.4, 1.0)
        fwd = sg.action_function(cd_model, x0, u0, x, tt, grid=grid256, dt=dt)
        back = sg.action_function(cd_model, x, fwd.value, x0, tt,
                                  direction="backward", grid=grid256, dt=dt)
        dual_worst = max(dual_worst, abs(back.value - u0))
    dual_ok = dual_worst <= 5e-2

    u0_field = sg.Field(grid256, cd_orbit.u0_at(grid256.nodes))
    fixed_gap = sg.sup_dist(sg.evolve(cd_model, u0_field, 1.0, dt).final,
                            u0_field)
    fixed_ok = fixed_gap <= 5.0 * h

    took = time.perf_counter() - start
    ok = (mono_ok and expans_ok and semi_ok and markov_ok and dual_ok
          and fixed_ok and took < 900.0)
    report(8, ok, f"monotone={mono_ok} expansC={expans_c:.2f}(<5) "
                  f"semigroup={semi_worst:.1e} markov={markov_worst:.1e} "
                  f"duality={dual_worst:.1e}(<5e-2) fixed={fixed_gap:.1e} "
                  f"runtime {took:.0f}s (<900)")


def test_criterion_09_bifurcation(cd_model):
    family = lambda lam: make_quadratic_model(1.0, 1.0, 0.0, lam)
    diag = periodic.bifurcation_sweep(family, [-0.4, -0.2, 0.0, 0.2, 0.4],
                                      grid_n=128, fp_tol=1e-4)
    by_lam = {row.lam: row for row in diag.rows}
    ok = True
    details = []
    for lam in (-0.4, -0.2):
        row = by_lam[lam]
        good = row.klass == "fixed_point" and row.amplitude <= 1e-4
        ok = ok and good
        details.append(f"{lam:+.1f}:{row.klass}@{row.amplitude:.1e}")
    ok = ok and by_lam[0.0].klass == "degenerate"
    details.append("+0.0:degenerate")
    for lam in (0.2, 0.4):
        row = by_lam[lam]
        floor = 0.5 * lam / (4.0 * math.pi ** 2)
        good = row.klass == "periodic" and row.amplitude >= floor
        ok = ok and good
        details.append(f"{lam:+.1f}:{row.klass}@{row.amplitude:.3f}>={floor:.4f}")
    report(9, ok, " ".join(details))


def test_criterion_10_long_time_limit(cd_model, cd_orbit, grid256):
    phi = sg.Field(grid256, 0.05 - 0.05 * np.cos(2 * np.pi * grid256.nodes))
    sol = periodic.long_time_periodic_limit(cd_model, phi, cd_orbit,
                                            localization_t=5.0)
    ok = (sol.period_residual <= 5e-3 and sol.amplitude > 0.0
          and sol.localization_gap <= 5e-2)
    report(10, ok, f"residual {sol.period_residual:.2e} (tol 5e-3), "
                   f"amplitude {sol.amplitude:.4f} > 0, localization gap "
                   f"{sol.localization_gap:.2e} (tol 5e-2)")
