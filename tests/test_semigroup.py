import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlehj import semigroup as sg
from circlehj.errors import BracketFail, CapTooSmall, NotConverged
from circlehj.model import conjugate_model, constant_drift_model

from conftest import LAM, cd_pinned_action_exact, random_smooth_field


def test_grid_validation():
    with pytest.raises(ValueError):
        sg.Grid(100)
    with pytest.raises(ValueError):
        sg.Grid(32)
    g = sg.Grid(64)
    assert g.h == pytest.approx(1.0 / 64)


def test_field_validation(grid256):
    with pytest.raises(ValueError):
        sg.Field(grid256, np.zeros(100))
    with pytest.raises(ValueError):
        sg.Field(grid256, np.full(256, np.nan))


def test_step_zero_datum_stationary(cd_model, grid256):
    w = sg.lax_oleinik_step(cd_model, sg.Field.constant(grid256, 0.0), 1e-3)
    assert np.max(np.abs(w.values)) <= 1e-12


def test_step_constant_growth(cd_model, grid256):
    w = sg.lax_oleinik_step(cd_model, sg.Field.constant(grid256, 0.1), 1e-3)
    assert np.max(np.abs(w.values - 0.1 * math.exp(LAM * 1e-3))) <= 1e-7


def test_step_keeps_stationary_state(cdv_model, cdv_orbit):
    # one step from the stationary graph drifts by at most C (h^2 + dt^2)
    C = 0.5
    for n in (256, 512):
        g = sg.Grid(n)
        phi = sg.Field(g, cdv_orbit.u0_at(g.nodes))
        w = sg.lax_oleinik_step(cdv_model, phi, 1e-3)
        drift = np.max(np.abs(w.values - phi.values))
        assert drift <= C * (g.h ** 2 + 1e-6)


def test_generic_inner_iteration_matches_affine(cd_model, grid256):
    generic = dataclasses.replace(cd_model, l_affine_u=None, quad_coeffs=None)
    rng = np.random.default_rng(0)
    phi = random_smooth_field(grid256, rng)
    fast = sg.lax_oleinik_step(cd_model, phi, 1e-3)
    slow = sg.lax_oleinik_step(generic, phi, 1e-3)
    assert np.max(np.abs(fast.values - slow.values)) <= 1e-10


@pytest.mark.parametrize("n, dt", [(1024, 8e-3), (256, 1.0 / 256)])
def test_step_reaches_bracket_minimum(cd_model, n, dt):
    # on rough data the objective is piecewise quadratic in v and need not
    # be unimodal; the step must still attain the minimum over the scan's
    # winning bracket, sampled here at 4001 velocities
    g = sg.Grid(n)
    phi = np.random.default_rng(0).uniform(-0.1, 0.1, n)
    ws = sg._StepWorkspace(cd_model, g, dt, sg.DEFAULT_SEARCH)
    jstar, _ = ws._tiebreak_argmin(ws.foot_matrix(phi) + ws.dtL0)
    lo = ws.v[np.clip(jstar - 1, 0, ws.v.size - 1)]
    hi = ws.v[np.clip(jstar + 1, 0, ws.v.size - 1)]
    w = sg.lax_oleinik_step(cd_model, sg.Field(g, phi), dt, workspace=ws)
    dense_min = np.empty(n)
    for rows in np.array_split(np.arange(n), n // 128):
        x = g.nodes[rows, None]
        v = np.linspace(lo[rows], hi[rows], 4001, axis=1)
        dense_min[rows] = np.min(sg._interp_periodic(phi, x - v * dt)
                                 + dt * cd_model.closed_form_L(x, v, 0.0 * v)[0],
                                 axis=1)
    assert np.max(w.values * (1.0 - LAM * dt) - dense_min) <= 1e-12


def test_window_hits_counted(cd_model, grid256):
    # drift 12 moves characteristics faster than v_max = 10: every node's
    # scan minimum sits on the window end, on both step paths
    drift12 = constant_drift_model(12.0, LAM)
    zero = sg.Field.constant(grid256, 0.0)
    steps = 4
    for model in (drift12, dataclasses.replace(drift12, l_affine_u=None,
                                               quad_coeffs=None)):
        trace = sg.evolve(model, zero, steps * grid256.h, grid256.h)
        assert trace.window_hits == steps * grid256.n
    assert sg.evolve(cd_model, zero, steps * grid256.h,
                     grid256.h).window_hits == 0


def test_generic_paths_match_on_rough_data(cd_model):
    # at a reach of 82 cells the bracket objective of rough data is not
    # unimodal; the generic step, with and without the closed-form L,
    # must find the same minimum as the closed-form step
    g = sg.Grid(1024)
    phi = sg.Field(g, np.random.default_rng(0).uniform(-0.1, 0.1, g.n))
    exact = sg.lax_oleinik_step(cd_model, phi, 8e-3).values
    for dropped in (dict(), dict(closed_form_L=None)):
        generic = dataclasses.replace(cd_model, l_affine_u=None,
                                      quad_coeffs=None, **dropped)
        slow = sg.lax_oleinik_step(generic, phi, 8e-3).values
        assert np.max(np.abs(slow - exact)) <= 1e-10


def test_evolve_constant_exact(cd_model):
    g = sg.Grid(128)
    for a in (0.1, -0.1):
        trace = sg.evolve(cd_model, sg.Field.constant(g, a), 0.5, 1e-3)
        exact = a * math.exp(LAM * 0.5)
        rel = np.max(np.abs(trace.final.values - exact)) / abs(exact)
        assert rel <= 1e-2


def test_evolve_time_zero_identity(cd_model, grid256):
    rng = np.random.default_rng(1)
    phi = random_smooth_field(grid256, rng)
    trace = sg.evolve(cd_model, phi, 0.0, 1e-3)
    assert len(trace.snapshots) == 1
    assert np.array_equal(trace.final.values, phi.values)


def test_evolve_divergence_flagged(cd_model):
    g = sg.Grid(128)
    trace = sg.evolve(cd_model, sg.Field.constant(g, 0.6), 10.0, 2e-3)
    assert trace.diverged
    assert trace.times[-1] < 10.0  # truncated, not discarded
    assert np.max(trace.final.values) > 25.0


def test_evolve_bounded_touching_datum(cd_model, grid256):
    # datum touching the stationary state from above stays bounded; the
    # recorded ceiling doubles as the regression bound
    phi = sg.Field(grid256, 0.05 * np.sin(2 * np.pi * grid256.nodes) + 0.05)
    trace = sg.evolve(cd_model, phi, 10.0, grid256.h, snapshot_every=0.5)
    assert not trace.diverged
    assert float(trace.sup_norms().max()) <= 0.2


def test_evolve_rejects_contraction_break(cd_model, grid256):
    with pytest.raises(ValueError):
        sg.evolve(cd_model, sg.Field.constant(grid256, 0.0), 1.0, 1.5)


def test_forward_zero_fixed(cd_model, grid256):
    trace = sg.evolve_forward(cd_model, sg.Field.constant(grid256, 0.0), 2.0,
                              2e-3)
    assert np.max(np.abs(trace.final.values)) <= 1e-10


def test_forward_constant_decay(cd_model):
    g = sg.Grid(128)
    a = 0.2
    trace = sg.evolve_forward(cd_model, sg.Field.constant(g, a), 1.0, 1e-3)
    exact = a * math.exp(-LAM)
    assert np.max(np.abs(trace.final.values - exact)) / exact <= 1e-2


def test_weak_kam_forward_cd_trivial(cd_model, grid256):
    for lam in (None, 0.25):
        model = cd_model if lam is None else constant_drift_model(1.0, lam)
        u_plus = sg.weak_kam_forward(model, grid256, tol=1e-6, dt=1e-3)
        assert np.max(np.abs(u_plus.values)) <= 1e-6


def test_weak_kam_cdv_matches_orbit(cdv_uplus_256, cdv_orbit, grid256):
    err = np.max(np.abs(cdv_uplus_256.values - cdv_orbit.u0_at(grid256.nodes)))
    assert err <= 2e-2


def test_weak_kam_backward_cd(cd_model, grid256):
    u_minus = sg.weak_kam_backward(cd_model, sg.Field.constant(grid256, 0.0),
                                   tol=1e-6, dt=1e-3)
    assert np.max(np.abs(u_minus.values)) <= 1e-6


def test_weak_kam_backward_cdv(cdv_model, cdv_uplus_256):
    u_minus = sg.weak_kam_backward(cdv_model, cdv_uplus_256)
    assert sg.sup_dist(u_minus, cdv_uplus_256) <= 2e-2


def test_weak_kam_backward_rejects_lifted_datum(cdv_model, cdv_uplus_256,
                                                grid256):
    lifted = sg.Field(grid256, cdv_uplus_256.values + 0.1)
    trace = sg.evolve(cdv_model, lifted, 30.0, grid256.h)
    assert trace.diverged  # the +infinity regime
    with pytest.raises(NotConverged):
        sg.weak_kam_backward(cdv_model, lifted)


def test_action_static_calibration(cd_model, grid256):
    res = sg.action_function(cd_model, 0.0, 0.0, 0.0, 1.0, method="both",
                             grid=grid256, dt=1e-3)
    assert abs(res.grid_value) <= 2e-2       # grid tolerance at N=256, dt=1e-3
    assert abs(res.shooting_value) <= 1e-8   # characteristics are exact here
    res2 = sg.action_function(cd_model, 0.0, 0.0, 0.5, 0.5, method="both",
                              grid=grid256, dt=1e-3)
    assert abs(res2.grid_value) <= 2e-2
    assert abs(res2.shooting_value) <= 1e-8


def test_action_matches_closed_form(cd_model, grid256):
    x0, u0, x, t = 0.2, 0.1, 0.7, 0.8
    exact = cd_pinned_action_exact(x0, u0, x, t)
    res = sg.action_function(cd_model, x0, u0, x, t, method="both",
                             grid=grid256, dt=4e-3)
    assert res.shooting_value == pytest.approx(exact, abs=1e-8)
    assert res.grid_value == pytest.approx(exact, abs=1e-2)


def test_action_cross_check_cdv(cdv_model, cdv_orbit, grid256):
    res = sg.action_function(cdv_model, 0.0, float(cdv_orbit.u0_at(0.0)),
                             0.3, 0.7, method="both", grid=grid256, dt=4e-3)
    assert res.cross_gap <= 5e-2


def test_action_cap_independence(cd_model, grid256):
    vals = []
    for cap in (50.0, 100.0):
        res = sg.action_function(cd_model, 0.0, 0.0, 0.3, 1.0, grid=grid256,
                                 dt=1e-3, u_cap=cap)
        vals.append(res.value)
    assert abs(vals[0] - vals[1]) <= 1e-9


def test_action_cap_too_small(cd_model, grid256):
    with pytest.raises(CapTooSmall):
        sg.action_function(cd_model, 0.0, 49.0, 0.0, 0.5, grid=grid256,
                           dt=1e-3, u_cap=50.0)


def test_action_short_time_rejected(cd_model, grid256):
    with pytest.raises(ValueError):
        sg.action_function(cd_model, 0.0, 0.0, 0.5, 0.005, grid=grid256,
                           dt=1e-3)


def test_shooting_action_lands_exactly(cd_model):
    # a fan endpoint landing near x on the lower-action side must not
    # undercut the bisected landing
    x0, u0, x = 0.2463447121738267, 0.03115871058055633, 0.2992710178387148
    res = sg.action_function(cd_model, x0, u0, x, 0.5, method="shooting")
    assert res.value == pytest.approx(cd_pinned_action_exact(x0, u0, x, 0.5),
                                      abs=1e-8)


def test_shooting_no_trajectory_landed(cd_model):
    from circlehj.errors import NoTrajectoryLanded
    # a vanishing momentum window pins every characteristic to x0 + t
    tiny = sg.SearchParams(p_max=1e-9)
    with pytest.raises(NoTrajectoryLanded):
        sg.action_function(cd_model, 0.0, 0.0, 0.7, 0.2, method="shooting",
                           search=tiny)


def test_duality_roundtrip(cd_model):
    # h_{x0,u0}(x, t) = u  iff  h^{x,u}(x0, t) = u0
    g = sg.Grid(1024)
    x0, u0, x, t = 0.2, 0.1, 0.7, 0.8
    fwd = sg.action_function(cd_model, x0, u0, x, t, method="both", grid=g,
                             dt=8e-3)
    back = sg.action_function(cd_model, x, fwd.value, x0, t,
                              direction="backward", method="both", grid=g,
                              dt=8e-3)
    assert back.grid_value == pytest.approx(u0, abs=5e-2)
    # shooting both ways is essentially exact
    back_sharp = sg.action_function(cd_model, x, fwd.shooting_value, x0, t,
                                    direction="backward", method="shooting")
    assert back_sharp.shooting_value == pytest.approx(u0, abs=1e-6)


def test_reversibility_roundtrip(cd_model):
    g = sg.Grid(1024)
    u0 = sg.solve_reversibility(cd_model, 0.0, 0.0, 1.0, 0.0, grid=g, dt=8e-3)
    assert abs(u0) <= 1e-4
    u0b = sg.solve_reversibility(cd_model, 0.0, 0.0, 1.0, 0.1, grid=g, dt=8e-3)
    res = sg.action_function(cd_model, 0.0, u0b, 0.0, 1.0, grid=g, dt=8e-3)
    assert res.value == pytest.approx(0.1, abs=1e-4)
    # monotonicity witness
    u0c = sg.solve_reversibility(cd_model, 0.0, 0.0, 1.0, 0.2, grid=g, dt=8e-3)
    assert u0c > u0b


def test_reversibility_bracket_fail(cd_model):
    g = sg.Grid(256)
    with pytest.raises(BracketFail):
        sg.solve_reversibility(cd_model, 0.0, 0.0, 1.0, 1e5, grid=g, dt=4e-3,
                               bracket=(-1.0, 1.0))


def test_monotonicity_and_expansiveness_quick(cd_model):
    g = sg.Grid(128)
    rng = np.random.default_rng(2)
    for _ in range(3):
        phi = random_smooth_field(g, rng)
        psi = sg.Field(g, phi.values - np.abs(random_smooth_field(g, rng).values))
        tp = sg.evolve(cd_model, phi, 0.5, 2e-3)
        ts = sg.evolve(cd_model, psi, 0.5, 2e-3)
        assert np.all(ts.final.values <= tp.final.values + 1e-9)
        gap0 = np.max(np.abs(phi.values - psi.values))
        gap1 = np.max(np.abs(tp.final.values - ts.final.values))
        assert gap1 <= math.exp(cd_model.kappa * 0.5) * gap0 + 5 * (g.h + 2e-3)


def test_markov_against_closed_form(cd_model, grid256):
    # grid action at t+s versus exact-action composition through time t
    rng = np.random.default_rng(7)
    t, s = 0.4, 0.6
    for _ in range(3):
        x0, u0 = rng.uniform(0, 1), rng.uniform(-0.2, 0.2)
        x = grid256.nodes[grid256.nearest(rng.uniform(0, 1))]
        pinned = sg.Field.pinned(grid256, x0, u0, 50.0)
        tr = sg.evolve(cd_model, pinned, t + s, 1e-3, snapshot_every=t)
        psi = tr.snapshots[1].values
        lhs = tr.final.values[grid256.nearest(x)]
        rhs = min(cd_pinned_action_exact(y, c, x, s)
                  for y, c in zip(grid256.nodes, psi))
        assert abs(lhs - rhs) <= 5 * (grid256.h + 1e-3)


def test_fixed_point_characterization(cdv_model, cdv_orbit, grid256):
    u0 = sg.Field(grid256, cdv_orbit.u0_at(grid256.nodes))
    trace = sg.evolve(cdv_model, u0, 1.0, grid256.h)
    assert sg.sup_dist(trace.final, u0) <= 1.0 * grid256.h


def test_trace_interpolation(cd_model, grid256):
    phi = sg.Field.constant(grid256, 0.1)
    trace = sg.evolve(cd_model, phi, 1.0, 2e-3, snapshot_every=0.25)
    mid = trace.at(0.375)
    lo = trace.at(0.25)
    hi = trace.at(0.5)
    assert np.all(mid >= np.minimum(lo, hi) - 1e-12)
    assert np.all(mid <= np.maximum(lo, hi) + 1e-12)


# ------------------------------------------------------------- limit driver

def scripted(gaps, capped=(), diverged_at=None):
    """advance() whose k-th period raises the field by gaps[k].

    Periods listed in ``capped`` return a field with one capped node; the
    period ``diverged_at`` returns a diverged trace.  A call past the
    script raises IndexError.
    """
    calls = []

    def advance(field):
        k = len(calls)
        calls.append(k)
        values = field.values + gaps[k]
        if k in capped:
            mask = np.zeros(field.grid.n, dtype=bool)
            mask[0] = True
            values[0] = 50.0
            nxt = sg.Field(field.grid, values, cap_mask=mask, cap_value=50.0)
        else:
            nxt = sg.Field(field.grid, values)
        return sg.EvolutionTrace(np.array([0.0, 1.0]), [field, nxt], "stub",
                                 1.0, diverged=(k == diverged_at))

    return advance, calls


def test_limit_converges_at_tol(recwarn):
    advance, calls = scripted([2.0 ** -1, 2.0 ** -3, 2.0 ** -20])
    start = sg.Field.constant(sg.Grid(64), 0.0)
    state, history, n_done, quasi = sg._iterate_to_limit(
        advance, start, 2.0 ** -20, 10, 2.0 ** -20)
    assert history == [2.0 ** -1, 2.0 ** -3, 2.0 ** -20]
    assert (n_done, quasi, len(calls)) == (3, False, 3)
    assert np.all(state.values == 2.0 ** -1 + 2.0 ** -3 + 2.0 ** -20)
    assert not recwarn.list


def test_limit_turn_around_returns_best():
    # the second increment more than doubles the first but only two are
    # counted: the iteration goes on until the fourth
    gaps = [2.0 ** -6, 2.0 ** -4, 2.0 ** -7, 2.0 ** -5, 1.0]
    advance, calls = scripted(gaps)
    start = sg.Field.constant(sg.Grid(64), 0.0)
    with pytest.warns(sg.AccuracyWarning):
        state, history, n_done, quasi = sg._iterate_to_limit(
            advance, start, 2.0 ** -20, 10, 2.0 ** -7)
    assert history == gaps[:4]
    assert (n_done, quasi, len(calls)) == (4, True, 4)
    assert np.all(state.values == sum(gaps[:3]))


def test_limit_not_converged_above_accept_tol():
    start = sg.Field.constant(sg.Grid(64), 0.0)
    advance, calls = scripted([2.0 ** -6, 2.0 ** -4, 2.0 ** -7, 2.0 ** -5])
    with pytest.raises(NotConverged):
        sg._iterate_to_limit(advance, start, 2.0 ** -20, 10, 2.0 ** -8)
    assert len(calls) == 4
    # a spent budget ends the same way
    advance, calls = scripted([2.0 ** -1, 2.0 ** -2])
    with pytest.raises(NotConverged):
        sg._iterate_to_limit(advance, start, 2.0 ** -20, 2, 2.0 ** -8)
    assert len(calls) == 2


def test_limit_skips_capped_periods():
    # periods 0 and 1 touch a capped field (period 1 starts from one)
    advance, calls = scripted([4.0, 2.0, 2.0 ** -1, 2.0 ** -20], capped=(0,))
    start = sg.Field.constant(sg.Grid(64), 0.0)
    _, history, n_done, quasi = sg._iterate_to_limit(
        advance, start, 2.0 ** -20, 10, 2.0 ** -20)
    assert history == [2.0 ** -1, 2.0 ** -20]
    assert (n_done, quasi) == (4, False)


def test_limit_stops_on_diverged_trace():
    start = sg.Field.constant(sg.Grid(64), 0.0)
    advance, calls = scripted([2.0 ** -6, 2.0 ** -7, 30.0], diverged_at=2)
    with pytest.raises(NotConverged, match="diverged"):
        sg._iterate_to_limit(advance, start, 2.0 ** -20, 10, 2.0 ** -8)
    assert len(calls) == 3
    # the best iterate before the divergence is still accepted
    advance, calls = scripted([2.0 ** -6, 2.0 ** -7, 30.0], diverged_at=2)
    with pytest.warns(sg.AccuracyWarning):
        state, history, n_done, quasi = sg._iterate_to_limit(
            advance, start, 2.0 ** -20, 10, 2.0 ** -7)
    assert history == [2.0 ** -6, 2.0 ** -7]
    assert (n_done, quasi, len(calls)) == (3, True, 3)
    assert np.all(state.values == 2.0 ** -6 + 2.0 ** -7)


# ------------------------------------------------- exact step invariants

N_PROP = 64
H_PROP = 1.0 / N_PROP
rough = st.lists(st.floats(-1.0, 1.0), min_size=N_PROP,
                 max_size=N_PROP).map(np.array)
gaps = st.lists(st.floats(0.0, 1.0), min_size=N_PROP,
                max_size=N_PROP).map(np.array)
# dt = h: a foot crosses up to 10 cells per step; dt = h/v_max: at most one
dts = st.sampled_from((H_PROP, 0.1 * H_PROP, 1e-3))
fast = settings(max_examples=50, deadline=None)


def step(model, values, dt):
    field = sg.Field(sg.Grid(N_PROP), values)
    return sg.lax_oleinik_step(model, field, dt).values


@fast
@given(phi=rough, c=st.floats(-1.0, 1.0), dt=dts)
def test_step_shift_identity(cdv_model, phi, c, dt):
    lhs = step(cdv_model, phi + c, dt)
    rhs = step(cdv_model, phi, dt) + c / (1.0 - LAM * dt)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


@fast
@given(phi=rough, gap=gaps, dt=st.floats(1e-4, 0.1 * H_PROP))
def test_step_monotone_within_one_cell(cdv_model, phi, gap, dt):
    # With dt <= h/v_max the only kink of the objective in the window is
    # at v = 0, a scan sample, so the scan may only pick the wrong convex
    # piece by its sampling error dt*dv^2/(8a) (a = 1).  At larger reach
    # kinks fall between samples and the error is not bounded this way.
    dv = 2.0 * sg.DEFAULT_SEARCH.v_max / (sg.DEFAULT_SEARCH.n_velocities - 1)
    slack = dt * dv ** 2 / 8.0 / (1.0 - LAM * dt) + 1e-14
    assert np.all(step(cdv_model, phi, dt)
                  <= step(cdv_model, phi + gap, dt) + slack)


@fast
@given(phi=rough, shift=st.integers(0, N_PROP - 1), dt=dts)
def test_step_commutes_with_rotation(cd_model, phi, shift, dt):
    lhs = step(cd_model, np.roll(phi, shift), dt)
    rhs = np.roll(step(cd_model, phi, dt), shift)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


@fast
@given(model=st.sampled_from(("cd", "cd2", "conj")),
       dt=st.floats(1e-4, 8e-3))
def test_zero_datum_fixed_under_constant_drift(cd_model, cd2_model, model,
                                               dt):
    chosen = {"cd": cd_model, "cd2": cd2_model,
              "conj": conjugate_model(cd2_model)}[model]
    assert np.all(step(chosen, np.zeros(N_PROP), dt) == 0.0)


@fast
@given(phi=rough, dt=dts)
def test_step_deterministic(cdv_model, phi, dt):
    assert np.array_equal(step(cdv_model, phi, dt), step(cdv_model, phi, dt))
