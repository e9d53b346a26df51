import dataclasses
import math

import numpy as np
import pytest

from circlehj import flow, periodic
from circlehj import semigroup as sg
from circlehj.errors import (FlatObjective, NotNontrivial,
                             SliceCountIncompatible, TouchingViolated)
from circlehj.model import constant_drift_model, make_quadratic_model

from conftest import LAM

EPS_CD = LAM / (4.0 * math.pi ** 2)


# ------------------------------------------------------------------ dilation

@pytest.mark.parametrize("n", [7, 16, 64])
def test_dilate_matches_roll(n):
    rng = np.random.default_rng(n)
    one = np.zeros(n, dtype=bool)
    one[n // 3] = True
    for mask in (rng.random(n) < 0.15, np.zeros(n, dtype=bool), one):
        for radius in range(n + 2):
            want = mask.copy()
            for r in range(1, radius + 1):
                want |= np.roll(mask, r) | np.roll(mask, -r)
            got = periodic._dilate(mask, radius)
            assert got.dtype == bool
            assert np.array_equal(got, want)


# ---------------------------------------------------------------- subsolution

def test_epsilon_constant_drift(cd_model, cd_orbit):
    spec = periodic.build_subsolution(cd_model, cd_orbit, x0=0.0)
    assert spec.epsilon == pytest.approx(EPS_CD, abs=1e-9)
    assert spec.hessian_bound == pytest.approx(0.5, abs=1e-12)


def test_epsilon_drift_invariance(cd2_model):
    # the drift cancels: b = 2 gives the same amplitude
    orbit = flow.shoot_stationary_orbit(cd2_model, n=2048)
    spec = periodic.build_subsolution(cd2_model, orbit, x0=0.0)
    assert spec.epsilon == pytest.approx(EPS_CD, abs=1e-9)


def test_subsolution_pointwise_structure(cd_model, cd_orbit):
    spec = periodic.build_subsolution(cd_model, cd_orbit, x0=0.37)
    # exact touching at the anchor
    assert spec.value(0.37, 0.0) == pytest.approx(float(cd_orbit.u0_at(0.37)),
                                                  abs=1e-12)
    xs = np.linspace(0.0, 1.0, 33)
    ts = np.linspace(0.0, 2.0, 17)
    W = spec.value(xs[:, None], ts[None, :])
    U0 = cd_orbit.u0_at(xs)[:, None]
    assert np.all(W >= U0 - 1e-12)
    assert np.all(W <= U0 + 2 * spec.epsilon + 1e-12)
    period = abs(cd_orbit.loop_integral)
    assert np.max(np.abs(spec.value(xs[:, None], ts[None, :] + period) - W)) <= 1e-12


def test_subsolution_residual_closed_form(cd_model, cd_orbit):
    spec = periodic.build_subsolution(cd_model, cd_orbit, x0=0.0)
    xs = np.linspace(0.0, 1.0, 97)[:, None]
    ts = np.linspace(0.0, 1.0, 53)[None, :]
    resid = periodic.subsolution_residual_exact(cd_model, spec, xs, ts)
    phase = cd_orbit.phase_at(xs) - cd_orbit.phase_at(0.0)
    F = -0.5 * np.pi + phase + 2.0 * np.pi * ts / cd_orbit.loop_integral
    closed = -spec.epsilon * cd_model.delta / 2.0 * (1.0 + np.sin(F)) ** 2
    assert np.max(np.abs(resid - closed)) <= 1e-9
    assert np.max(resid) <= 1e-9


def test_verify_subsolution_cd(cd_model, cd_orbit):
    spec = periodic.build_subsolution(cd_model, cd_orbit, x0=0.0)
    assert periodic.verify_subsolution(cd_model, spec, n_x=256, n_t=64) <= 1e-6


def test_verify_subsolution_cdv(cdv_model, cdv_orbit):
    spec = periodic.build_subsolution(cdv_model, cdv_orbit, x0=0.0)
    assert periodic.verify_subsolution(cdv_model, spec, n_x=512, n_t=64) <= 1e-3


def test_comparison_principle(cd_model, cd_orbit, grid256):
    # evolving the initial slice dominates the subsolution at later times
    spec = periodic.build_subsolution(cd_model, cd_orbit, x0=0.0)
    phi = sg.Field(grid256, spec.value(grid256.nodes, 0.0))
    for t in (0.5, 1.0):
        trace = sg.evolve(cd_model, phi, t, 1e-3)
        w_t = spec.value(grid256.nodes, t)
        assert np.min(trace.final.values - w_t) >= -5e-3


# ------------------------------------------------------------- pinned limits

def test_pinned_limit_cd(cd_pinned_sol):
    sol = cd_pinned_sol
    assert sol.period_residual <= 5e-3
    assert sol.amplitude_at_x0 >= 0.5 * EPS_CD
    assert sol.pde_residual <= 5e-2
    # the increments shrink monotonically over the converged segment
    hist = sol.converge_history
    assert all(hist[i + 1] <= hist[i] * 1.001 for i in range(len(hist) - 1))


def test_pinned_limit_matches_closed_profile(cd_pinned_sol, grid256):
    # the asymptotic state is (lam/2) * dist(x - t, Z)^2 up to scheme bias
    xs = grid256.nodes
    for k in (0, len(cd_pinned_sol.slices) // 2):
        t = cd_pinned_sol.times[k]
        d = np.abs((xs - t + 0.5) % 1.0 - 0.5)
        exact = 0.5 * LAM * d ** 2
        err = np.max(np.abs(cd_pinned_sol.slices[k].values - exact))
        assert err <= 2.5e-2


def test_pinned_limit_amplitude_floor_guard(cd_model, cd_orbit, grid256):
    with pytest.raises(NotNontrivial):
        periodic.pinned_periodic_limit(cd_model, cd_orbit, grid=grid256,
                                       amplitude_floor_factor=100.0)


def test_detected_period_within_two_percent(cd_model, cd_pinned_sol, grid256,
                                            cd_orbit):
    trace = sg.evolve(cd_model, cd_pinned_sol.slices[0], 7.0, grid256.h,
                      snapshot_every=cd_orbit.period / 32.0)
    period, residual = periodic.detect_period(trace, cd_orbit.period)
    assert abs(period - cd_orbit.period) <= 0.02 * cd_orbit.period
    assert residual < 0.1


# ------------------------------------------------------------------ min-shift

def _synthetic_wave(m=32, n=64):
    g = sg.Grid(n)
    times = np.arange(m + 1) / m
    slices = [sg.Field(g, np.sin(2 * np.pi * (g.nodes - t))) for t in times]
    return periodic.PeriodicSolution(slices=slices, times=times, period=1.0,
                                     amplitude=2.0, period_residual=0.0,
                                     pde_residual=0.0)


def test_min_shift_synthetic_sine():
    w = _synthetic_wave()
    v2 = periodic.min_shift_combine(w, 2)
    g = v2.slices[0].grid
    for k, t in enumerate(v2.times):
        expect = -np.abs(np.sin(2 * np.pi * (g.nodes - t)))
        assert np.max(np.abs(v2.slices[k].values - expect)) <= 1e-12
    assert v2.period == pytest.approx(0.5)
    assert v2.period_residual <= 1e-12


def test_min_shift_identity_and_errors():
    w = _synthetic_wave()
    assert periodic.min_shift_combine(w, 1) is w
    with pytest.raises(SliceCountIncompatible):
        periodic.min_shift_combine(w, 5)


def test_min_shift_pipeline(cd_model, cd_pinned_sol):
    v2 = periodic.min_shift_combine(cd_pinned_sol, 2)
    periodic.finalize_pde_residual(cd_model, v2)
    assert v2.period == pytest.approx(cd_pinned_sol.period / 2)
    assert v2.period_residual <= 1e-2
    assert v2.pde_residual <= 5e-2
    assert v2.amplitude > 0.0


def test_shift_closure(cd_pinned_sol):
    # any time shift of a periodic state is periodic with the same bound
    m = len(cd_pinned_sol.slices) - 1
    j = m // 3
    rotated = [cd_pinned_sol.slices[(j + k) % m] for k in range(m + 1)]
    resid = sg.sup_dist(rotated[-1], rotated[0])
    assert resid <= 2.0 * cd_pinned_sol.period_residual + 1e-12


# -------------------------------------------------------------- detect period

def test_detect_period_synthetic():
    g = sg.Grid(64)
    times = np.arange(0, 701) * 1e-2
    snaps = [sg.Field(g, np.sin(2 * np.pi * (g.nodes - t))) for t in times]
    trace = sg.EvolutionTrace(times, snaps, "wave", dt=1e-2)
    period, residual = periodic.detect_period(trace, 1.0)
    assert period == pytest.approx(1.0, abs=1e-3)
    assert residual <= 1e-6


def test_detect_period_flat_trace():
    g = sg.Grid(64)
    times = np.linspace(0.0, 7.0, 141)
    snaps = [sg.Field.constant(g, 0.3) for _ in times]
    trace = sg.EvolutionTrace(times, snaps, "flat", dt=0.05)
    with pytest.raises(FlatObjective):
        periodic.detect_period(trace, 1.0)


def test_detect_period_short_trace_rejected():
    g = sg.Grid(64)
    times = np.linspace(0.0, 2.0, 21)
    snaps = [sg.Field(g, np.sin(2 * np.pi * (g.nodes - t))) for t in times]
    trace = sg.EvolutionTrace(times, snaps, "short", dt=0.1)
    with pytest.raises(ValueError):
        periodic.detect_period(trace, 1.0)


# ------------------------------------------------------------------ trichotomy

def test_trichotomy_classes(cd_model, grid256):
    u_plus = sg.Field.constant(grid256, 0.0)
    cases = [
        (sg.Field.constant(grid256, 0.1), "D3_plus_infinity"),
        (sg.Field.constant(grid256, -0.1), "D2_minus_infinity"),
        (sg.Field(grid256, 0.05 - 0.05 * np.cos(2 * np.pi * grid256.nodes)),
         "D1_bounded"),
    ]
    seen = []
    for phi, want in cases:
        rep = periodic.classify_trichotomy(cd_model, phi, u_plus, t_budget=9.0)
        assert rep.klass == want
        assert rep.confirmed
        seen.append(rep.klass)
    assert len(set(seen)) == 3  # exclusivity


def test_trichotomy_escape_time_matches_ode(cd_model, grid256):
    u_plus = sg.Field.constant(grid256, 0.0)
    rep = periodic.classify_trichotomy(cd_model, sg.Field.constant(grid256, 0.1),
                                       u_plus, t_budget=12.0)
    # 0.1 e^{lam t} = 5  =>  t = ln(50) / 0.5 ~ 7.8; snapshots quantize it
    assert rep.escape_time == pytest.approx(math.log(50.0) / LAM, abs=0.5)


def test_trichotomy_stationary_datum(cd_model, grid256):
    u_plus = sg.Field.constant(grid256, 0.0)
    rep = periodic.classify_trichotomy(cd_model, sg.Field.constant(grid256, 0.0),
                                       u_plus, t_budget=5.0)
    assert rep.klass == "D1_bounded"
    assert rep.confirmed
    assert rep.bound_K <= 1e-6


def test_trichotomy_inconclusive_flag(cd_model, grid256):
    # budget too short to witness the escape: static class kept, flag set
    u_plus = sg.Field.constant(grid256, 0.0)
    rep = periodic.classify_trichotomy(cd_model, sg.Field.constant(grid256, 0.1),
                                       u_plus, t_budget=2.0)
    assert rep.klass == "D3_plus_infinity"
    assert not rep.confirmed
    assert rep.inconclusive_reason


def test_subsolution_epsilon_underflow():
    from circlehj.errors import EpsilonUnderflow
    feeble = make_quadratic_model(1.0, 1.0, 0.0, 1e-12)
    orbit = flow.shoot_stationary_orbit(feeble, n=256)
    with pytest.raises(EpsilonUnderflow):
        periodic.build_subsolution(feeble, orbit, x0=0.0)


# ------------------------------------------------------------ long-time limit

def test_long_time_limit_trivial_datum(cd_model, cd_orbit, grid256):
    sol = periodic.long_time_periodic_limit(
        cd_model, sg.Field.constant(grid256, 0.0), cd_orbit)
    assert sol.amplitude <= 5e-3


def test_long_time_touching_violated(cd_model, cd_orbit, grid256):
    lifted = sg.Field.constant(grid256, 0.5)
    with pytest.raises(TouchingViolated):
        periodic.long_time_periodic_limit(cd_model, lifted, cd_orbit,
                                          auto_shift=False)


# ----------------------------------------------------------------- bifurcation

def test_bifurcation_negative_rows_only():
    family = lambda lam: make_quadratic_model(1.0, 1.0, 0.0, lam)
    diag = periodic.bifurcation_sweep(family, [-0.3], grid_n=128)
    row = diag.rows[0]
    assert row.klass == "fixed_point"
    assert row.amplitude <= 1e-4
    assert math.isinf(diag.lambda0_estimate)


@pytest.mark.parametrize("lam", [-0.05, -0.02])
def test_bifurcation_fixed_point_near_zero(lam):
    # the period map contracts by about exp(lam) per period, too slowly to
    # reach fp_tol within t_fp_max = 60 periods; the policy solve does not
    # iterate periods
    family = lambda lam: make_quadratic_model(1.0, 1.0, "0.2*cos(2*pi*x)", lam)
    fp_tol = 1e-4
    record = sg.RunRecord()
    with sg.recording(record):
        row = periodic.bifurcation_sweep(family, [lam], grid_n=128,
                                         fp_tol=fp_tol).rows[0]
    assert row.klass == "fixed_point" and row.error is None
    assert row.amplitude <= fp_tol
    assert record.policy_sweeps > 0 and record.limit_periods == 0


def test_bifurcation_recordless_family_iterates_periods():
    # without a coefficient record the row is the period-map limit; a
    # coarse grid and step keep the generic steps few
    family = lambda lam: dataclasses.replace(
        make_quadratic_model(1.0, 1.0, 0.0, lam), quad_coeffs=None)
    record = sg.RunRecord()
    with sg.recording(record), pytest.warns(sg.AccuracyWarning):
        row = periodic.bifurcation_sweep(family, [-0.4], grid_n=64,
                                         dt=1.0 / 32, fp_tol=1e-2).rows[0]
    assert row.klass == "fixed_point" and row.error is None
    assert row.amplitude <= 1e-2
    assert record.limit_periods > 0 and record.policy_sweeps == 0


def test_bifurcation_cdv_family():
    family = lambda lam: make_quadratic_model(1.0, 1.0, "0.2*cos(2*pi*x)", lam)
    diag = periodic.bifurcation_sweep(family, [0.1, 0.3, 0.5], grid_n=128)
    for row in diag.rows:
        assert row.klass == "periodic", row.error
        assert row.amplitude >= 0.5 * row.lam / (4.0 * math.pi ** 2)
        assert row.min_abs_b > 0.5
    assert math.isinf(diag.lambda0_estimate)
