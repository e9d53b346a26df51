import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlehj import periodic
from circlehj import semigroup as sg
from circlehj.errors import (BracketFail, CapTooSmall, InnerNotConverged,
                             NotConverged)
from circlehj.flow import BLOW_LIMIT
from circlehj.model import (HamiltonianModel, conjugate_model,
                            constant_drift_model, make_quadratic_model)

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


def test_cap_mask_follows_values(cd_model, grid256):
    assert sg.Field.constant(grid256, 50.0).cap_mask is None
    pinned = sg.Field.pinned(grid256, 0.3, 0.1, 50.0)
    assert np.flatnonzero(~pinned.cap_mask).tolist() == [grid256.nearest(0.3)]
    assert np.array_equal(pinned.copy().cap_mask, pinned.cap_mask)
    # a pinned value at the cap counts as capped from the start
    assert sg.Field.pinned(grid256, 0.3, 50.0, 50.0).cap_mask.all()
    stepped = sg.lax_oleinik_step(cd_model, pinned, grid256.h)
    assert np.array_equal(stepped.cap_mask, stepped.values == 50.0)
    with pytest.raises(TypeError):
        sg.Field(grid256, pinned.values, cap_mask=pinned.cap_mask)


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
    generic = dataclasses.replace(cd_model, quad_coeffs=None)
    rng = np.random.default_rng(0)
    phi = random_smooth_field(grid256, rng)
    fast = sg.lax_oleinik_step(cd_model, phi, 1e-3)
    slow = sg.lax_oleinik_step(generic, phi, 1e-3)
    assert np.max(np.abs(fast.values - slow.values)) <= 1e-10


@pytest.mark.parametrize("n, dt", [(1024, 8e-3), (256, 1.0 / 256),
                                   (128, 1.0 / 16), (128, 2e-2)])
def test_step_reaches_window_minimum(cd_model, cdv_model, custom_model, n,
                                     dt):
    # on rough data the objective is piecewise quadratic in v and need not
    # be unimodal; the strided search must give the minimum of the whole
    # (node, window column) block and its leftmost-argmin velocity bit for
    # bit, and the step must attain the minimum over the whole window,
    # sampled here at 4001 velocities.  The capped plateau of a pinned
    # datum ties whole runs of cells.
    g = sg.Grid(n)
    rng = np.random.default_rng(0)
    phi = rng.uniform(-0.1, 0.1, n)
    u = rng.uniform(-0.1, 0.1, n)
    pinned = [sg.Field.pinned(g, 0.25, 0.3, 120.0)]
    for _ in range(5):
        pinned.append(sg.lax_oleinik_step(cd_model, pinned[-1], dt))
    varying = make_quadratic_model("1+0.3*sin(2*pi*x)", "1+0.2*cos(2*pi*x)",
                                   "0.1*cos(4*pi*x)", LAM)
    v = np.linspace(-sg.DEFAULT_SEARCH.v_max, sg.DEFAULT_SEARCH.v_max, 4001)
    for model in (cd_model, cdv_model, varying, custom_model):
        ws = sg._StepWorkspace(model, g, dt)
        for values in [phi] + [f.values for f in pinned]:
            block, block_v = ws.cell_block(values, u)
            j = np.argmin(block, axis=1)
            best, v_star, cols = ws.window_minimum(values, u)
            assert np.array_equal(cols, j)
            assert np.array_equal(best, block.min(axis=1))
            assert np.array_equal(v_star, block_v[np.arange(n), j])
        if model.quad_coeffs is None:
            continue
        w = sg.lax_oleinik_step(model, sg.Field(g, phi), dt)
        dense_min = np.empty(n)
        for rows in np.array_split(np.arange(n), n // 128):
            x = g.nodes[rows, None]
            dense_min[rows] = np.min(sg._interp_periodic(phi, x - v * dt)
                                     + dt * model.quad_coeffs.lagrangian(
                                         x, v, 0.0 * v)[0],
                                     axis=1)
        assert np.max(w.values * (1.0 - LAM * dt) - dense_min) <= 1e-12


@pytest.mark.parametrize("n, dt", [(256, 1.0 / 256), (128, 2e-2)])
def test_step_monotone_across_cells(cd_model, cdv_model, n, dt):
    # a foot crosses up to 10 (26) cells per step and the objective has a
    # kink at every cell end: T(phi) <= T(phi + d) for d >= 0 needs the
    # minimum over the whole window
    g = sg.Grid(n)
    rng = np.random.default_rng(1)
    for model in (cd_model, cdv_model):
        for _ in range(20):
            phi = rng.uniform(-1.0, 1.0, n)
            gap = rng.uniform(0.0, 1.0, n)
            low = sg.lax_oleinik_step(model, sg.Field(g, phi), dt)
            high = sg.lax_oleinik_step(model, sg.Field(g, phi + gap), dt)
            assert np.all(low.values <= high.values + 1e-14)


def test_window_hits_counted(cd_model, grid256):
    # drift 12 moves characteristics faster than v_max = 10: every node's
    # minimizing velocity is the window end, on both step paths
    drift12 = constant_drift_model(12.0, LAM)
    zero = sg.Field.constant(grid256, 0.0)
    steps = 4
    record = sg.RunRecord()
    with sg.recording(record):
        for model in (drift12, dataclasses.replace(drift12, quad_coeffs=None)):
            trace = sg.evolve(model, zero, steps * grid256.h, grid256.h)
            assert trace.window_hits == steps * grid256.n
        assert sg.evolve(cd_model, zero, steps * grid256.h,
                         grid256.h).window_hits == 0
    # the run record sums every evolve inside the context, and only those
    sg.evolve(drift12, zero, steps * grid256.h, grid256.h)
    assert record.window_hits == 2 * steps * grid256.n


def test_generic_paths_match_on_rough_data(cd_model):
    # at a reach of 82 cells the bracket objective of rough data is not
    # unimodal; the generic step must find the same minimum as the
    # closed-form step
    g = sg.Grid(1024)
    phi = sg.Field(g, np.random.default_rng(0).uniform(-0.1, 0.1, g.n))
    exact = sg.lax_oleinik_step(cd_model, phi, 8e-3).values
    generic = dataclasses.replace(cd_model, quad_coeffs=None)
    slow = sg.lax_oleinik_step(generic, phi, 8e-3).values
    assert np.max(np.abs(slow - exact)) <= 1e-10


def plain_step(ws, values):
    """Reference generic step: plain iteration w = g(w) of full window
    sweeps from the datum, stopped at max|g(w) - w| < INNER_TOL."""
    w = values
    for _ in range(sg.INNER_MAX_ITER):
        g, v_star, _ = ws.window_minimum(values, w)
        delta = float(np.max(np.abs(g - w)))
        w = g
        if delta < sg.INNER_TOL:
            return w, v_star
    raise AssertionError("plain iteration did not converge")


def u_drift_model():
    """p^2/2 + (1 + 0.05 sin u) p - u: the minimizing velocity moves with u,
    so a minimizing cell can change between the sweeps of one step."""
    return HamiltonianModel(
        eval_H=lambda x, p, u: 0.5 * p ** 2 + (1.0 + 0.05 * np.sin(u)) * p - u,
        d_p=lambda x, p, u: p + 1.0 + 0.05 * np.sin(u) + 0.0 * x,
        d_x=lambda x, p, u: 0.0 * (x + p + u),
        d_u=lambda x, p, u: 0.05 * np.cos(u) * p - 1.0 + 0.0 * x,
        d_pp=lambda x, p, u: 1.0 + 0.0 * (x + p + u),
        kappa=1.5, delta=0.5, name="u-drift")


def counted_sweeps(monkeypatch):
    calls = []
    window_minimum = sg._StepWorkspace.window_minimum

    def counted(self, *args):
        calls.append(1)
        return window_minimum(self, *args)

    monkeypatch.setattr(sg._StepWorkspace, "window_minimum", counted)
    return calls


def test_generic_step_matches_plain_iteration(cd_model, custom_model):
    g = sg.Grid(128)
    rng = np.random.default_rng(3)
    smooth = random_smooth_field(g, rng).values
    rough = rng.uniform(-0.1, 0.1, g.n)
    pinned = sg.Field.pinned(g, 0.25, 0.3, 120.0)
    replica = dataclasses.replace(cd_model, quad_coeffs=None)
    for model in (custom_model, replica):
        # kappa dt = 0.45 reaches every cell of the circle
        for dt in (g.h, 1.0 / 16, 0.45 / model.kappa):
            ws = sg._StepWorkspace(model, g, dt)
            stepped = sg.lax_oleinik_step(model, pinned, dt)
            for values in (smooth, rough, pinned.values, stepped.values):
                got, got_v = sg._step_generic(ws, values)
                want, want_v = plain_step(ws, values)
                assert np.max(np.abs(got - want)) <= 1e-12
                assert np.max(np.abs(got_v - want_v)) <= 1e-12


def test_generic_step_two_sweeps_on_smooth_data(custom_model, monkeypatch):
    g = sg.Grid(128)
    phi = random_smooth_field(g, np.random.default_rng(4))
    calls = counted_sweeps(monkeypatch)
    steps = 4
    sg.evolve(custom_model, phi, steps / 16, 1.0 / 16)
    assert len(calls) == 2 * steps


def test_generic_step_second_frozen_round(monkeypatch):
    # on rough data a minimizing cell moves between the datum's sweep and
    # the fixed point; the certifying sweep then starts another frozen round
    model = u_drift_model()
    g = sg.Grid(128)
    ws = sg._StepWorkspace(model, g, 1.0 / 16)
    values = np.random.default_rng(0).uniform(-0.1, 0.1, g.n)
    want, want_v = plain_step(ws, values)
    calls = counted_sweeps(monkeypatch)
    got, got_v = sg._step_generic(ws, values)
    assert len(calls) >= 3
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(got_v - want_v)) <= 1e-12


def test_certifying_sweep_reproduces_frozen_cells():
    # with momenta independent of their batch, a full sweep gives the
    # frozen-cell value bit for bit at every node whose cell did not move
    model = u_drift_model()
    g = sg.Grid(128)
    ws = sg._StepWorkspace(model, g, 1.0 / 16)
    values = np.random.default_rng(0).uniform(-0.1, 0.1, g.n)
    first, _, cols = ws.window_minimum(values, values)
    cells = ws.frozen_cells(cols)
    frozen, frozen_v = cells(first)
    best, v_star, moved_cols = ws.window_minimum(values, first)
    kept = cols == moved_cols
    assert 0 < np.count_nonzero(kept) < g.n
    assert np.array_equal(frozen[kept], best[kept])
    assert np.array_equal(frozen_v[kept], v_star[kept])


def test_generic_step_inner_not_converged(custom_model, monkeypatch):
    g = sg.Grid(128)
    phi = random_smooth_field(g, np.random.default_rng(5))
    monkeypatch.setattr(sg, "INNER_MAX_ITER", 1)
    with pytest.raises(InnerNotConverged, match="after 1 sweeps"):
        sg.lax_oleinik_step(custom_model, phi, 1.0 / 16)


def test_replace_without_record_takes_generic_path(cd_model, grid256,
                                                   monkeypatch):
    # the former hooks closed_form_L and l_affine_u are accepted as None
    # only; the model left without its record steps on the generic path
    generic = dataclasses.replace(cd_model, closed_form_L=None,
                                  l_affine_u=None, quad_coeffs=None)
    calls = []
    step_generic = sg._step_generic

    def counted(*args):
        calls.append(1)
        return step_generic(*args)

    monkeypatch.setattr(sg, "_step_generic", counted)
    phi = sg.Field.constant(grid256, 0.1)
    sg.lax_oleinik_step(generic, phi, 1e-3)
    assert len(calls) == 1
    sg.lax_oleinik_step(cd_model, phi, 1e-3)
    assert len(calls) == 1
    for hook in (dict(closed_form_L=cd_model.quad_coeffs.lagrangian),
                 dict(l_affine_u=LAM)):
        with pytest.raises(TypeError):
            dataclasses.replace(cd_model, **hook)


def test_workspace_reused_only_when_it_matches(cd_model, cd_orbit,
                                              monkeypatch):
    # the slot's workspace must not serve another model, even one that
    # differs only in its search window, or another dt: on the zero datum
    # the narrow window (drift 3 > v_max = 2) puts every minimizing
    # velocity on the window end, the default one puts none there
    model = constant_drift_model(3.0, LAM)
    g = sg.Grid(256)
    dt = 0.5 * g.h
    narrow = dataclasses.replace(model, search=sg.SearchParams(v_max=2.0))
    phi = sg.Field.constant(g, 0.0)
    ref = sg.evolve(narrow, phi, 26 * dt, dt)
    assert sg.evolve(model, phi, 26 * dt, dt).window_hits == 0
    got = sg.evolve(narrow, phi, 26 * dt, dt)
    assert got.window_hits == ref.window_hits == 26 * g.n
    assert np.array_equal(got.final.values, ref.final.values)
    step = sg.lax_oleinik_step(narrow, phi, dt).values
    for other, other_dt in ((model, dt), (narrow, 2.0 * g.h),
                            (conjugate_model(narrow), dt)):
        sg.lax_oleinik_step(other, phi, other_dt)
        got = sg.lax_oleinik_step(narrow, phi, dt)
        assert np.array_equal(got.values, step)
    # a matching workspace is reused: one per reversibility solve, and at
    # most two per pinned limit (its periods, then its slices)
    built = []
    workspace = sg._StepWorkspace

    def counted(*args):
        built.append(1)
        return workspace(*args)

    monkeypatch.setattr(sg, "_StepWorkspace", counted)
    with pytest.raises(BracketFail):
        sg.solve_reversibility(model, 0.0, 0.0, 1.0, 1e5, grid=g, dt=4e-3,
                               bracket=(-1.0, 1.0))
    assert len(built) == 1
    built.clear()
    sol = periodic.pinned_periodic_limit(cd_model, cd_orbit, x0=0.25, grid=g)
    assert sol.n_periods >= 2 and len(built) <= 2


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
    # kappa*dt = 0.5 * 1.5 >= 1/2: the workspace refuses to be built, so
    # neither entry point takes a step
    with pytest.raises(ValueError):
        sg.evolve(cd_model, sg.Field.constant(grid256, 0.0), 1.0, 1.5)
    with pytest.raises(ValueError):
        sg.lax_oleinik_step(cd_model, sg.Field.constant(grid256, 0.0), 1.5)
    with pytest.raises(ValueError):
        sg._StepWorkspace(cd_model, grid256, 1.5)


def _step_chain(model, phi, T, dt, snapshot_every=None, u_cap=50.0):
    """evolve's (times, snapshots, window_hits, diverged), rebuilt from
    single lax_oleinik_step calls; the minimizing velocities come from the
    full cell block (quadratic models only)."""
    g = phi.grid
    steps = max(1, math.ceil(T / dt - 1e-12))
    dt_eff = T / steps
    stride = (steps if snapshot_every is None
              else max(1, round(snapshot_every / dt_eff)))
    ws = sg._StepWorkspace(model, g, dt_eff)
    times, snaps = [0.0], [phi]
    current, hits, diverged = phi, 0, False
    for k in range(1, steps + 1):
        block, block_v = ws.cell_block(current.values, None)
        v = block_v[np.arange(g.n), np.argmin(block, axis=1)]
        current = sg.lax_oleinik_step(model, current, dt_eff)
        edge = np.abs(v) == model.search.v_max
        if current.cap_value is not None:
            edge &= ~current.cap_mask
        hits += int(np.count_nonzero(edge))
        if k % stride == 0 or k == steps:
            times.append(k * dt_eff)
            snaps.append(current)
        if (current.cap_value is None
                and np.max(np.abs(current.values)) > u_cap / 2.0):
            diverged = True
            if times[-1] != k * dt_eff:
                times.append(k * dt_eff)
                snaps.append(current)
            break
    return np.array(times), snaps, hits, diverged


def _assert_same_field(got, want):
    # the cap mask follows from the values and the cap
    assert np.array_equal(got.values, want.values)
    assert got.cap_value == want.cap_value


@pytest.mark.parametrize("case", ["uncapped", "snapshots", "pinned",
                                  "pinned_narrow", "diverges", "reach82"])
def test_evolve_equals_step_chain(cd_model, case):
    g = sg.Grid(1024 if case == "reach82" else 256)
    rng = np.random.default_rng(7)
    phi = random_smooth_field(g, rng)
    T, dt, every, u_cap = 0.1, g.h, None, 50.0
    model = cd_model
    if case == "snapshots":
        every = 0.02
    elif case.startswith("pinned"):
        phi = sg.Field.pinned(g, 0.3, 0.1, 50.0)
        every = 0.03
        if case == "pinned_narrow":
            # a window narrower than the drift: capped nodes hit its end too
            model = dataclasses.replace(cd_model,
                                        search=sg.SearchParams(v_max=0.5))
    elif case == "diverges":
        # 0.6 e^{t/2} passes u_cap/2 = 0.65 near t = 0.16, between snapshots
        phi, T, every, u_cap = sg.Field.constant(g, 0.6), 1.0, 0.1, 1.3
    elif case == "reach82":
        phi = sg.Field(g, rng.uniform(-0.1, 0.1, g.n))
        T, dt = 0.04, 8e-3
    trace = sg.evolve(model, phi, T, dt, snapshot_every=every, u_cap=u_cap)
    times, snaps, hits, diverged = _step_chain(model, phi, T, dt, every,
                                               u_cap)
    assert np.array_equal(trace.times, times)
    assert len(trace.snapshots) == len(snaps)
    for got, want in zip(trace.snapshots, snaps):
        _assert_same_field(got, want)
    assert trace.window_hits == hits
    assert trace.diverged == diverged
    assert diverged == (case == "diverges")
    if case.startswith("pinned"):
        assert hits > 0


@pytest.mark.parametrize("pinned", [False, True])
def test_evolve_never_writes_datum(cd_model, grid256, pinned):
    phi = (sg.Field.pinned(grid256, 0.3, 0.1, 50.0) if pinned
           else random_smooth_field(grid256, np.random.default_rng(3)))
    before = phi.values.copy()
    phi.values.flags.writeable = False
    generic = dataclasses.replace(cd_model, quad_coeffs=None)
    for model in (cd_model, generic):
        trace = sg.evolve(model, phi, 8 * grid256.h, grid256.h,
                          snapshot_every=grid256.h)
        sg.lax_oleinik_step(model, phi, grid256.h)
        assert np.array_equal(phi.values, before)
        assert trace.snapshots[0].values is not phi.values


def test_forward_zero_fixed(cd_model, grid256):
    trace = sg.evolve_forward(cd_model, sg.Field.constant(grid256, 0.0), 2.0,
                              2e-3)
    assert np.max(np.abs(trace.final.values)) <= 1e-10


def test_forward_rejects_capped_data(cd_model):
    # negated, the cap -50 would clip every value: the run would collapse
    # to the cap instead of evolving the pinned value
    pinned = sg.Field.pinned(sg.Grid(256), 0.3, 0.1, 50.0)
    with pytest.raises(ValueError, match="uncapped"):
        sg.evolve_forward(cd_model, pinned, 0.1, 1.0 / 256)


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
    # undercut the solved landing
    x0, u0, x = 0.2463447121738267, 0.03115871058055633, 0.2992710178387148
    res = sg.action_function(cd_model, x0, u0, x, 0.5, method="shooting")
    assert res.value == pytest.approx(cd_pinned_action_exact(x0, u0, x, 0.5),
                                      abs=1e-8)


def test_shooting_action_flow_batches(cd_model, custom_model, monkeypatch):
    # one fan plus a few Illinois batches per action, not 52 bisections
    calls = []
    flow_batch = sg._flow_batch

    def counted(*args):
        calls.append(1)
        return flow_batch(*args)

    monkeypatch.setattr(sg, "_flow_batch", counted)
    x0, u0, x = 0.2463447121738267, 0.03115871058055633, 0.2992710178387148
    sg.action_function(cd_model, x0, u0, x, 0.5, method="shooting")
    assert len(calls) <= 6
    for direction in ("forward", "backward"):
        calls.clear()
        sg.action_function(custom_model, 0.3, 0.1, 0.8, 0.5,
                           direction=direction, method="shooting")
        assert len(calls) <= 6


def test_landing_brackets():
    alive = np.ones(2, dtype=bool)
    # a wrap jump of the circle distance across x + 1/2: no landing
    idx, _ = sg._landing_brackets(np.array([0.4914, 0.5358]), alive)
    assert idx.size == 0
    # x and x + 1/2 both crossed: a landing with k = 0
    idx, k = sg._landing_brackets(np.array([-0.1, 0.6]), alive)
    assert idx.tolist() == [0] and k.tolist() == [0.0]
    # a landing one winding on, in either order
    idx, k = sg._landing_brackets(np.array([1.2, 0.9]), alive)
    assert idx.tolist() == [0] and k.tolist() == [1.0]
    # dead members bracket nothing
    d = np.array([-0.1, 0.1, -0.1])
    idx, _ = sg._landing_brackets(d, np.array([True, False, True]))
    assert idx.size == 0


def test_flow_batch_alive_mask():
    # batch twin of test_integrate_contact_blowup: p = 5 grows like
    # 5 exp(t/2) and leaves the blow window before t = 12; p = 0 rides
    # the zero orbit x = t
    zeros = np.zeros(2)
    x, p, u, alive = sg._flow_batch(constant_drift_model(), zeros,
                                    np.array([0.0, 5.0]), zeros, 12.0, 1e-2)
    assert alive.tolist() == [True, False]
    assert x[0] == pytest.approx(12.0, abs=1e-9)
    assert p[0] == 0.0 and u[0] == 0.0
    assert np.isfinite([x[1], p[1], u[1]]).all()
    assert max(abs(p[1]), abs(u[1])) > BLOW_LIMIT


def test_shooting_no_trajectory_landed(cd_model):
    from circlehj.errors import NoTrajectoryLanded
    # a vanishing momentum window pins every characteristic to x0 + t
    tiny = dataclasses.replace(cd_model, search=sg.SearchParams(p_max=1e-9))
    with pytest.raises(NoTrajectoryLanded):
        sg.action_function(tiny, 0.0, 0.0, 0.7, 0.2, method="shooting")


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


def test_duality_roundtrip_shooting_nonaffine(custom_model):
    # twin of the shooting roundtrip above on a model not affine in u,
    # whose characteristics are not closed-form
    x0, u0, x, t = 0.2, 0.1, 0.7, 0.8
    fwd = sg.action_function(custom_model, x0, u0, x, t, method="shooting")
    back = sg.action_function(custom_model, x, fwd.value, x0, t,
                              direction="backward", method="shooting")
    assert back.value == pytest.approx(u0, abs=1e-6)


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
            values[0] = 50.0
            nxt = sg.Field(field.grid, values, cap_value=50.0)
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
    record = sg.RunRecord()
    with pytest.warns(sg.AccuracyWarning), sg.recording(record):
        state, history, n_done, quasi = sg._iterate_to_limit(
            advance, start, 2.0 ** -20, 10, 2.0 ** -7)
    assert history == gaps[:4]
    assert (n_done, quasi, len(calls)) == (4, True, 4)
    assert (record.limit_periods, record.quasi_limits) == (4, 1)
    assert np.all(state.values == sum(gaps[:3]))


def test_limit_not_converged_above_accept_tol():
    start = sg.Field.constant(sg.Grid(64), 0.0)
    advance, calls = scripted([2.0 ** -6, 2.0 ** -4, 2.0 ** -7, 2.0 ** -5])
    record = sg.RunRecord()
    with pytest.raises(NotConverged), sg.recording(record):
        sg._iterate_to_limit(advance, start, 2.0 ** -20, 10, 2.0 ** -8)
    assert len(calls) == 4
    # the periods of a failed limit were run all the same
    assert (record.limit_periods, record.quasi_limits) == (4, 0)
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


# ------------------------------------------------------ policy fixed point

def cosine_family(lam):
    return make_quadratic_model(1.0, 1.0, "0.2*cos(2*pi*x)", lam)


def policy_solve(model, grid, tol, w0=0.1):
    """(w, residual, sweeps, window hits, AccuracyWarnings) of one solve
    at dt = h from the constant w0."""
    record = sg.RunRecord()
    with warnings.catch_warnings(record=True) as caught, sg.recording(record):
        warnings.simplefilter("always")
        ws = sg._contracting_workspace(model, grid, grid.h)
        w, residual = sg._policy_fixed_point(ws, np.full(grid.n, w0), tol,
                                             1.0 - ws.dt * ws.affine)
    accuracy = sum(issubclass(c.category, sg.AccuracyWarning) for c in caught)
    return w, residual, record.policy_sweeps, record.window_hits, accuracy


def test_contracting_workspace_needs_record_and_negative_lam():
    g = sg.Grid(128)
    assert sg._contracting_workspace(cosine_family(-0.2), g, g.h).affine == -0.2
    # the step evolve takes over one unit period at dt = 0.3
    ws = sg._contracting_workspace(cosine_family(-0.2), g, 0.3)
    assert ws.dt == 0.25
    assert sg._contracting_workspace(cosine_family(0.2), g, g.h) is None
    stripped = dataclasses.replace(cosine_family(-0.2), quad_coeffs=None)
    assert sg._contracting_workspace(stripped, g, g.h) is None


def test_policy_fixed_point_satisfies_one_step():
    g = sg.Grid(128)
    model = cosine_family(-0.2)
    w, residual, sweeps, _, accuracy = policy_solve(model, g, 1e-10)
    step = sg.lax_oleinik_step(model, sg.Field(g, w), g.h)
    # the certifying residual is the increment of one step, bit for bit
    assert residual == np.max(np.abs(step.values - w))
    assert residual <= 1e-13
    assert sweeps <= 10
    # dt = h is above h/v_max: one warning per solve, as per evolve
    assert accuracy == 1


def test_policy_fixed_point_within_bound_of_period_map_limit():
    g = sg.Grid(128)
    lam, fp_tol = -0.2, 1e-4
    model = cosine_family(lam)
    w, residual, _, _, _ = policy_solve(model, g, fp_tol)
    assert residual <= (1.0 - 1.0 / (1.0 - g.h * lam)) * fp_tol
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sg.AccuracyWarning)
        limit = sg._iterate_to_limit(
            lambda f: sg.evolve(model, f, 1.0, g.h), sg.Field.constant(g, 0.1),
            fp_tol, 60, fp_tol)[0]
    # an increment <= fp_tol of the period map, which contracts by
    # (1 - dt lam)^(-1/dt), bounds its distance to the fixed point
    bound = fp_tol / (1.0 - (1.0 - g.h * lam) ** (-1.0 / g.h))
    assert np.max(np.abs(limit.values - w)) <= bound


def test_policy_fixed_point_counts_window_hits():
    # the drift b = 1 puts every node's vertex at v = 1, past v_max = 0.5:
    # the certifying sweep's n nodes are hits; dt = h <= h/v_max, no warning
    g = sg.Grid(128)
    model = dataclasses.replace(constant_drift_model(1.0, -0.2),
                                search=sg.SearchParams(v_max=0.5))
    _, residual, sweeps, hits, accuracy = policy_solve(model, g, 1e-4)
    assert (hits, accuracy) == (g.n, 0)
    assert sweeps == 2 and residual <= 1e-4


def test_policy_fixed_point_not_converged(monkeypatch):
    monkeypatch.setattr(sg, "INNER_MAX_ITER", 1)
    with pytest.raises(NotConverged, match="policy iteration"):
        policy_solve(cosine_family(-0.2), sg.Grid(128), 1e-4)


def test_weak_kam_forward_takes_policy_path(cdv_model):
    g = sg.Grid(128)
    record = sg.RunRecord()
    with sg.recording(record), warnings.catch_warnings():
        warnings.simplefilter("ignore", sg.AccuracyWarning)
        u_plus = sg.weak_kam_forward(cdv_model, g, tol=1e-10)
    assert record.policy_sweeps > 0 and record.limit_periods == 0
    # a fixed point of the forward step: the conjugate step fixes -u_plus
    step = sg.lax_oleinik_step(conjugate_model(cdv_model),
                               sg.Field(g, -u_plus.values), g.h)
    assert np.max(np.abs(step.values + u_plus.values)) <= 1e-13
    with pytest.raises(ValueError, match="uncapped"):
        sg.weak_kam_forward(cdv_model, g, phi0=sg.Field.pinned(g, 0.0, 0.0,
                                                               50.0))


def test_weak_kam_backward_takes_policy_path():
    g = sg.Grid(128)
    model = cosine_family(-0.2)
    record = sg.RunRecord()
    with sg.recording(record), warnings.catch_warnings():
        warnings.simplefilter("ignore", sg.AccuracyWarning)
        u_minus = sg.weak_kam_backward(model, sg.Field.constant(g, 0.1),
                                       tol=1e-10)
    assert record.policy_sweeps > 0 and record.limit_periods == 0
    step = sg.lax_oleinik_step(model, u_minus, g.h)
    assert np.max(np.abs(step.values - u_minus.values)) <= 1e-13


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
@given(phi=rough, gap=gaps, dt=dts)
def test_step_monotone(cdv_model, phi, gap, dt):
    assert np.all(step(cdv_model, phi, dt)
                  <= step(cdv_model, phi + gap, dt) + 1e-14)


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
