from dataclasses import replace

import numpy as np
import pytest

from circlehj import flow
from circlehj.errors import BlowUp, TurningPoint
from circlehj.golden import CDV_ORBIT
from circlehj.model import (conjugate_model, make_quadratic_model,
                            shift_hamiltonian)
from circlehj.selftest import sweep_jacobian_error


def test_integrate_contact_cd_winding(cd_model):
    times, states, winding = flow.integrate_contact(
        cd_model, flow.ContactState(0.0, 0.0, 0.0), (0.0, 1.0), 1e-3)
    final = states[-1]
    assert winding == 1
    assert final.x == pytest.approx(0.0, abs=1e-12)
    assert final.p == pytest.approx(0.0, abs=1e-12)
    assert final.u == pytest.approx(0.0, abs=1e-12)


def test_integrate_contact_cd2_period(cd2_model):
    _, states, winding = flow.integrate_contact(
        cd2_model, flow.ContactState(0.0, 0.0, 0.0), (0.0, 0.5), 1e-3)
    assert winding == 1
    assert states[-1].x == pytest.approx(0.0, abs=1e-12)


def test_integrate_contact_blowup(cd_model):
    with pytest.raises(BlowUp):
        flow.integrate_contact(cd_model, flow.ContactState(0.0, 5.0, 0.0),
                               (0.0, 12.0), 1e-2)


def test_integrate_reduced_trivial(cd_model, cd2_model):
    t, p, u = flow.integrate_reduced(cd_model, 0.0, 0.0, n=256)
    assert np.max(np.abs(p)) == 0.0
    assert np.max(np.abs(u)) == 0.0
    assert t[-1] == pytest.approx(1.0, abs=1e-12)
    t2, _, _ = flow.integrate_reduced(cd2_model, 0.0, 0.0, n=256)
    assert t2[-1] == pytest.approx(0.5, abs=1e-12)


def test_reduced_periodicity_of_shot(cdv_model, cdv_orbit):
    t, p, u = flow.integrate_reduced(cdv_model, cdv_orbit.p0, cdv_orbit.u0,
                                     n=2048)
    assert abs(p[-1] - p[0]) <= 1e-10
    assert abs(u[-1] - u[0]) <= 1e-10


def test_shot_keeps_accepted_sweep(cd_model, cdv_model, monkeypatch):
    # the orbit tables are those of the last accepted Newton sweep: no
    # extra sweep at the end, and the same tables as a fresh sweep
    calls = []
    sweep = flow._graph_sweep

    def counted(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(flow, "_graph_sweep", counted)
    for model, guess, n in ((cd_model, (0.1, 0.1), 1024),
                            (cdv_model, (0.0, 0.0), 512)):
        del calls[:]
        orbit = flow.shoot_stationary_orbit(model, guess=guess, n=n)
        # one sweep for the guess, then one accepted full step per Newton
        # update: the Jacobian comes from the accepted sweep's tables
        assert len(calls) == orbit.newton_iterations
        t, p, u = flow.integrate_reduced(model, orbit.p0, orbit.u0, n=n)
        for got, want in ((orbit.t_of_x, t), (orbit.p_of_x, p),
                          (orbit.u_of_x, u)):
            assert np.array_equal(got, want)
    del calls[:]
    flow.shoot_stationary_orbit(cd_model, guess=(0.1, 0.1))
    assert len(calls) == 5


def test_shot_jacobian_matches_sweep_differences(cdv_model, custom_model):
    # at a point that is not a root, on the table path, its callback
    # replica, variable coefficients and a model not affine in u
    varying = make_quadratic_model("1+0.3*sin(2*pi*x)", "1+0.2*cos(2*pi*x)",
                                   "0.1*cos(4*pi*x)", 0.5)
    for model in (cdv_model, replace(cdv_model, quad_coeffs=None), varying,
                  custom_model):
        for n in (1, 3, 256):
            assert sweep_jacobian_error(model, n, q=(0.1, 0.05)) <= 1e-6


def test_nonfinite_sweep_jacobian_raises_turning_point(cdv_model):
    # finite at the sweep's float points, not at the Jacobian's array
    # points: the Newton step must not solve with a non-finite Jacobian
    base = replace(cdv_model, quad_coeffs=None)

    def d_u(x, p, u):
        if np.ndim(p) == 0:
            return base.d_u(x, p, u)
        return np.full(np.shape(p), np.nan)

    with pytest.raises(TurningPoint, match="shooting Jacobian"):
        flow.shoot_stationary_orbit(replace(base, d_u=d_u), n=64)


def _fd_shot(model, guess, n, newton_tol=1e-12, max_iter=100):
    """((p0, u0), Newton iterations) of the shot whose Jacobian takes two
    extra sweeps per step.

    The reference for the sweep Jacobian: forward differences of whole
    sweeps with step 1e-7 (1 + |q_j|), the same damping and stopping rule.
    """
    def residual(qv):
        _, p, u = flow.integrate_reduced(model, qv[0], qv[1], n=n)
        return np.array([p[-1] - qv[0], u[-1] - qv[1]])

    q = np.array(guess, dtype=float)
    r = residual(q)
    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(r)) <= newton_tol:
            return q, iterations
        jac = np.empty((2, 2))
        for j in range(2):
            eps = 1e-7 * (1.0 + abs(q[j]))
            qp = q.copy()
            qp[j] += eps
            jac[:, j] = (residual(qp) - r) / eps
        step = np.linalg.solve(jac, -r)
        for scale in 0.5 ** np.arange(9):
            try:
                trial = residual(q + scale * step)
            except (TurningPoint, BlowUp):
                continue
            if np.max(np.abs(trial)) < np.max(np.abs(r)):
                q, r = q + scale * step, trial
                break
        else:
            raise AssertionError("reference shot failed to damp")
    raise AssertionError("reference shot did not converge")


@pytest.mark.parametrize("n", [1, 3, 255])
def test_shot_matches_difference_jacobian_shot(cdv_model, custom_model, n):
    # one cell and odd cell counts: the tree product carries an odd matrix
    for model in (cdv_model, custom_model):
        orbit = flow.shoot_stationary_orbit(model, n=n)
        want, iterations = _fd_shot(model, (0.0, 0.0), n)
        assert orbit.newton_iterations == iterations
        assert abs(orbit.p0 - want[0]) <= 1e-12
        assert abs(orbit.u0 - want[1]) <= 1e-12


def test_shoot_cd_exact(cd_orbit):
    assert abs(cd_orbit.p0) <= 1e-10
    assert abs(cd_orbit.u0) <= 1e-10
    assert cd_orbit.period == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(cd_orbit.speed, 1.0, atol=1e-12)
    assert np.allclose(cd_orbit.phase, 2 * np.pi * cd_orbit.x_nodes, atol=1e-9)


def test_shoot_cd2_period(cd2_model):
    orbit = flow.shoot_stationary_orbit(cd2_model)
    assert orbit.period == pytest.approx(0.5, abs=1e-8)
    assert orbit.loop_integral == pytest.approx(-0.5, abs=1e-8)


def test_shoot_cdv_golden(cdv_orbit):
    assert cdv_orbit.p0 == pytest.approx(CDV_ORBIT["p0"], abs=1e-7)
    assert cdv_orbit.u0 == pytest.approx(CDV_ORBIT["u0"], abs=1e-7)
    assert cdv_orbit.period == pytest.approx(CDV_ORBIT["period"], abs=1e-7)


def test_energy_surface_residual(cd_orbit, cdv_orbit):
    assert cd_orbit.h_residual <= 1e-8
    assert cdv_orbit.h_residual <= 1e-8


def test_period_matches_loop_integral(cd_orbit, cdv_orbit):
    assert abs(cd_orbit.period - abs(cd_orbit.loop_integral)) <= 1e-8
    assert abs(cdv_orbit.period - abs(cdv_orbit.loop_integral)) <= 1e-8


def test_refinement_fourth_order(cdv_model):
    sols = {}
    for n in (256, 512, 1024):
        o = flow.shoot_stationary_orbit(cdv_model, n=n)
        sols[n] = np.array([o.p0, o.u0, o.period])
    d1 = np.abs(sols[512] - sols[256])
    d2 = np.abs(sols[1024] - sols[512])
    ratios = d1 / np.maximum(d2, 1e-300)
    assert np.all(ratios >= 8.0)


def test_graph_property(cdv_model, cdv_orbit):
    # the stationary equation holds along the graph and p tabulates u0'
    resid = np.abs(cdv_model.eval_H(cdv_orbit.x_nodes, cdv_orbit.p_of_x,
                                    cdv_orbit.u_of_x))
    assert np.max(resid) <= 1e-8
    du = np.gradient(cdv_orbit.u_of_x, cdv_orbit.x_nodes)
    interior = slice(2, -2)
    assert np.max(np.abs(du[interior] - cdv_orbit.p_of_x[interior])) <= 1e-4


def test_phase_normalization(cdv_orbit):
    assert cdv_orbit.phase[0] == 0.0
    assert cdv_orbit.phase[-1] == pytest.approx(2 * np.pi, abs=0.0)
    assert np.all(np.diff(cdv_orbit.phase) > 0.0)


def test_condition_A(cd_orbit, cdv_orbit):
    holds, min_b = flow.check_condition_A(cd_orbit)
    assert holds and min_b == pytest.approx(1.0, abs=1e-12)
    holds_v, min_bv = flow.check_condition_A(cdv_orbit)
    assert holds_v
    assert min_bv == pytest.approx(CDV_ORBIT["min_abs_speed"], abs=1e-6)


def test_turning_point_on_rest_point():
    # crest of the stationary set is a rest point: dH/dp = p = 0 there;
    # the sweep reads coefficient tables, or calls back without them
    degenerate = make_quadratic_model(1.0, 0.0, -0.1, 1.0)
    for model in (degenerate, replace(degenerate, quad_coeffs=None)):
        with pytest.raises(TurningPoint):
            flow.shoot_stationary_orbit(model, guess=(0.0, 0.0))


def test_graph_field_tables_match_callbacks():
    # the conjugate and the shifted model carry a transformed record: its
    # tables must still match the transformed callables
    model = make_quadratic_model("1+0.3*sin(2*pi*x)", "1+0.2*cos(2*pi*x)",
                                 "0.1*cos(4*pi*x)", 0.5)
    for m in (model, conjugate_model(model), shift_hamiltonian(model, 0.3)):
        tables = flow.integrate_reduced(m, 0.1, 0.2, n=256)
        callbacks = flow.integrate_reduced(replace(m, quad_coeffs=None),
                                           0.1, 0.2, n=256)
        for a, b in zip(tables, callbacks):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_contact_flow_closes_on_shot(cdv_model, cdv_orbit):
    s0 = flow.ContactState(0.0, cdv_orbit.p0, cdv_orbit.u0)
    _, states, winding = flow.integrate_contact(cdv_model, s0,
                                                (0.0, cdv_orbit.period), 1e-4)
    final = states[-1]
    assert winding == 1
    assert abs(final.x % 1.0) <= 1e-8 or abs(final.x % 1.0 - 1.0) <= 1e-8
    assert final.p == pytest.approx(cdv_orbit.p0, abs=1e-8)
    assert final.u == pytest.approx(cdv_orbit.u0, abs=1e-8)


def test_orbit_samples_ordered(cdv_orbit):
    samples = cdv_orbit.samples()
    assert np.all(np.diff(samples[:, 0]) >= 0.0)
    assert samples.shape[1] == 4
