import dataclasses
import math

import numpy as np
import pytest

from circlehj import semigroup as sg
from circlehj.errors import NoBracket, NonPositiveA, NotConverged
from circlehj.model import (HamiltonianModel, check_assumptions,
                            compile_expression, conjugate_model,
                            constant_drift_model, cosine_potential_model,
                            derivative_consistency, freeze_classical,
                            lagrangian, legendre_transform,
                            make_quadratic_model, shift_hamiltonian,
                            solve_p_star_batch)
from circlehj.semigroup import estimate_critical_value


def quartic_model():
    """H = p^4/4 + p^2/2 - 0.3 u: not quadratic, so Newton takes a
    different number of steps per momentum."""
    return HamiltonianModel(
        eval_H=lambda x, p, u: p ** 4 / 4 + p ** 2 / 2 - 0.3 * u,
        d_p=lambda x, p, u: p ** 3 + p + 0.0 * (x + u),
        d_x=lambda x, p, u: 0.0 * (x + p + u),
        d_u=lambda x, p, u: -0.3 + 0.0 * (x + p + u),
        d_pp=lambda x, p, u: 3.0 * p ** 2 + 1.0 + 0.0 * (x + u),
        kappa=0.3, delta=0.3, name="quartic")


def test_legendre_trivial_cd(cd_model):
    L, p = legendre_transform(cd_model, 0.3, 0.0, 0.0)
    assert L == pytest.approx(0.5, abs=1e-10)
    assert p == pytest.approx(-1.0, abs=1e-9)
    L, p = legendre_transform(cd_model, 0.0, 1.0, 2.0)
    assert L == pytest.approx(1.0, abs=1e-10)
    assert p == pytest.approx(0.0, abs=1e-9)


def test_legendre_cdv_brute_force(cdv_model):
    # independent oracle: dense supremum of v p - H over the momentum window
    x, v, u = 0.25, 0.5, 0.0
    ps = np.linspace(-10.0, 10.0, 400001)
    brute = np.max(v * ps - cdv_model.eval_H(x, ps, u))
    assert brute == pytest.approx(0.125, abs=1e-8)
    L, _ = legendre_transform(cdv_model, x, v, u)
    assert L == pytest.approx(0.125, abs=1e-10)
    Lq, _ = cdv_model.quad_coeffs.lagrangian(x, v, u)
    assert Lq == pytest.approx(0.125, abs=1e-12)


def test_legendre_quartic_brute_force():
    # independent oracle on a model without closed form: dense supremum of
    # v p - H over the momentum window, spacing 5e-5
    quartic = quartic_model()
    ps = np.linspace(-10.0, 10.0, 400001)
    for x, v, u in ((0.1, 0.0, 0.0), (0.4, 0.7, 1.5), (0.9, -3.2, -0.8),
                    (0.6, 9.5, 0.3)):
        objective = v * ps - quartic.eval_H(x, ps, u)
        brute, p_brute = np.max(objective), ps[np.argmax(objective)]
        L, p = legendre_transform(quartic, x, v, u)
        assert brute - 1e-12 <= L <= brute + 1e-8
        assert abs(p - p_brute) <= 5e-5
        assert abs(p ** 3 + p - v) <= 1e-12 * (1.0 + abs(v))


def test_legendre_matches_closed_form(cd_model, cdv_model):
    rng = np.random.default_rng(3)
    models = [cd_model, cdv_model, make_quadratic_model(2.0, 0.0, 0.0, 1.0)]
    for model in models:
        for _ in range(0, 334):
            x = rng.uniform(0.0, 1.0)
            v = rng.uniform(-5.0, 5.0)
            u = rng.uniform(-2.0, 2.0)
            L, p = legendre_transform(model, x, v, u)
            Lc, pc = model.quad_coeffs.lagrangian(x, v, u)
            assert abs(L - Lc) <= 1e-10
            assert abs(p - pc) <= 1e-8


@pytest.mark.parametrize("transform", [
    lambda m: m, conjugate_model, freeze_classical,
    lambda m: shift_hamiltonian(m, 0.3),
    lambda m: conjugate_model(freeze_classical(m))],
    ids=["identity", "conjugate", "classical", "shift", "conjugate-classical"])
def test_record_lagrangian_through_transforms(cd_model, cdv_model, transform):
    # each transform rewrites the callables and the coefficient record
    # separately; the record's closed form must stay the Legendre
    # transform of the transformed callables
    varying = make_quadratic_model("1+0.3*sin(2*pi*x)", "1+0.2*cos(2*pi*x)",
                                   "0.1*cos(4*pi*x)", 0.5)
    rng = np.random.default_rng(7)
    for model in (cd_model, cdv_model, varying):
        moved = transform(model)
        for _ in range(50):
            x = rng.uniform(0.0, 1.0)
            v = rng.uniform(-5.0, 5.0)
            u = rng.uniform(-2.0, 2.0)
            L, p = legendre_transform(moved, x, v, u)
            Lq, pq = moved.quad_coeffs.lagrangian(x, v, u)
            assert abs(L - Lq) <= 1e-10
            assert abs(p - pq) <= 1e-8


def test_fenchel_inequality(cdv_model):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, 1000)
    v = rng.uniform(-5.0, 5.0, 1000)
    p = rng.uniform(-5.0, 5.0, 1000)
    u = rng.uniform(-3.0, 3.0, 1000)
    L = lagrangian(cdv_model, x, v, u)
    H = cdv_model.eval_H(x, p, u)
    assert np.all(v * p <= L + H + 1e-9)


def test_involution_recovers_hamiltonian(cdv_model):
    # tabulate L on a fine velocity grid, then take the discrete transform back
    vs = np.linspace(-10.0, 10.0, 10001)
    for x, p, u in [(0.1, 0.3, 0.0), (0.6, -0.8, 1.0), (0.35, 1.4, -2.0)]:
        Ltab = lagrangian(cdv_model, np.full_like(vs, x), vs, np.full_like(vs, u))
        H_rec = np.max(p * vs - Ltab)
        assert H_rec == pytest.approx(float(cdv_model.eval_H(x, p, u)), abs=1e-6)


def test_assumptions_cd(cd_model):
    rep = check_assumptions(cd_model)
    assert rep.all_ok()
    assert rep.h1_margin == pytest.approx(1.0)
    assert rep.h4_margin == pytest.approx(0.5)
    assert rep.c_margin == pytest.approx(-0.5, abs=1e-9)
    assert rep.sample_count >= 1000


def test_assumptions_cdv(cdv_model):
    rep = check_assumptions(cdv_model)
    assert rep.all_ok()
    # min_p H(x, p, 0) = V(x) - 1/2 peaks at x = 0
    assert rep.c_margin == pytest.approx(-0.3, abs=1e-6)


def test_assumptions_recordless_numeric_lagrangian(cdv_model):
    # without a coefficient record min_p H comes from the numeric momentum
    # solve, and must match the closed form
    bare = dataclasses.replace(cdv_model, quad_coeffs=None)
    rep = check_assumptions(bare)
    assert rep.c_margin == pytest.approx(check_assumptions(cdv_model).c_margin,
                                         abs=1e-12)
    assert rep.c_margin == pytest.approx(-0.3, abs=1e-6)


def test_assumptions_increasing_flagged():
    rep = check_assumptions(constant_drift_model(1.0, -0.5))
    assert not rep.h4_ok
    assert rep.h4_margin == pytest.approx(-0.5)


def test_make_quadratic_examples():
    m = make_quadratic_model(2.0, 0.0, 0.0, 1.0)  # H = p^2 - u
    assert float(m.eval_H(0.3, 2.0, 1.0)) == pytest.approx(3.0)
    L, p = legendre_transform(m, 0.0, 2.0, 0.0)
    assert L == pytest.approx(1.0, abs=1e-10)
    assert p == pytest.approx(1.0, abs=1e-9)


def test_quadratic_coefficients_shape_and_value():
    a_f, a_d, b_f, b_d, V_f, V_d, _ = cosine_potential_model().quad_coeffs
    x = np.linspace(0.0, 1.0, 8, endpoint=False).reshape(2, 4)
    for f, expect in ((a_f, np.ones_like(x)), (b_d, np.zeros_like(x)),
                      (V_f, 0.2 * np.cos(2 * np.pi * x))):
        out = f(x)
        assert out.shape == x.shape and out.dtype == float
        assert np.array_equal(out, expect)
        assert type(f(0.25)) is float and f(0.25) == float(expect[0, 2])


def test_numeric_coefficients_keep_every_digit():
    # numbers and their repr strings must reach the record unrounded
    rng = np.random.default_rng(2000)
    for a, b, V in rng.uniform(0.5, 2.0, (100, 3)):
        for spec in ((a, b, V), tuple(repr(float(c)) for c in (a, b, V))):
            q = make_quadratic_model(*spec, 0.5).quad_coeffs
            assert (q.a(0.3), q.b(0.3), q.V(0.3)) == (a, b, V)
            assert np.all(q.b(np.linspace(0.0, 1.0, 5)) == b)
    q = make_quadratic_model(1.0, 1.2345678901234567, 0.0, 0.5).quad_coeffs
    assert q.b(0.0) == 1.2345678901234567


TP = 2.0 * np.pi


@pytest.mark.parametrize("text, value, deriv", [
    ("0.1*cos(4*pi*x)", lambda x: 0.1 * np.cos(2 * TP * x),
     lambda x: -0.4 * np.pi * np.sin(2 * TP * x)),
    ("x**2 - x/3", lambda x: x ** 2 - x / 3, lambda x: 2 * x - 1 / 3),
    ("1/(2 + sin(2*pi*x))", lambda x: 1 / (2 + np.sin(TP * x)),
     lambda x: -TP * np.cos(TP * x) / (2 + np.sin(TP * x)) ** 2),
    ("-x**-2 + +(1 + 0.5*x)**1.5", lambda x: -x ** -2.0 + (1 + 0.5 * x) ** 1.5,
     lambda x: 2 * x ** -3.0 + 0.75 * (1 + 0.5 * x) ** 0.5),
    ("3*sin(x)**2*cos(pi*x)", lambda x: 3 * np.sin(x) ** 2 * np.cos(np.pi * x),
     lambda x: (6 * np.sin(x) * np.cos(x) * np.cos(np.pi * x)
                - 3 * np.pi * np.sin(x) ** 2 * np.sin(np.pi * x))),
    ("2*pi - 1", lambda x: TP - 1 + 0 * x, lambda x: 0 * x),
], ids=["cos", "poly-quotient", "reciprocal", "powers-unary", "product",
        "constant"])
def test_compiled_derivatives(text, value, deriv):
    f, f_x = compile_expression(text)
    x = np.linspace(0.05, 0.95, 8).reshape(2, 4)
    e = 1e-6
    for fn, expect in ((f, value), (f_x, deriv)):
        out = fn(x)
        assert out.shape == x.shape and out.dtype == float
        assert np.all(np.abs(out - expect(x)) <= 1e-12 * (1 + np.abs(out)))
        assert type(fn(0.35)) is float
        assert abs(fn(0.35) - expect(0.35)) <= 1e-12 * (1 + abs(fn(0.35)))
    central = (f(x + e) - f(x - e)) / (2 * e)
    assert np.all(np.abs(f_x(x) - central) <= 1e-7 * (1 + np.abs(central)))


def test_p_star_batch_settles_clamped_momenta(custom_model):
    # a 128 x 129 batch of nodes and velocities: 896 velocities v < -9 have
    # p* = v - 1 outside the window and settle at -p_max after one Newton
    # sweep; they must not keep the sweeps (or a bisection) running
    calls = []

    def d_p(x, p, u):
        calls.append(1)
        return custom_model.d_p(x, p, u)

    counted = dataclasses.replace(custom_model, d_p=d_p)
    x = np.linspace(0.0, 1.0, 128, endpoint=False)[:, None]
    v = np.linspace(-10.0, 10.0, 129)[None, :]
    u = 0.3 * np.cos(2 * np.pi * x)
    p = solve_p_star_batch(counted, x, v, u)
    assert len(calls) <= 6
    clamped = np.broadcast_to(v - 1.0 < -10.0, p.shape)
    assert clamped.sum() == 896
    assert np.all(p[clamped] == -10.0)
    assert np.max(np.abs(p - (v - 1.0))[~clamped]) <= 1e-12


def test_p_star_batch_independent_of_batch():
    # Newton takes a different number of steps per element, and a settled
    # element must not take the batch's extra steps; each momentum equals
    # its one-element solve bit for bit
    quartic = quartic_model()
    rng = np.random.default_rng(7)
    x, v, u = (rng.uniform(0.0, 1.0, 200), rng.uniform(-20.0, 20.0, 200),
               rng.uniform(-1.0, 1.0, 200))
    batch = solve_p_star_batch(quartic, x, v, u)
    alone = [solve_p_star_batch(quartic, x[k:k + 1], v[k:k + 1],
                                u[k:k + 1])[0] for k in range(200)]
    assert np.array_equal(batch, alone)


def test_make_quadratic_rejects_nonpositive_a():
    with pytest.raises(NonPositiveA):
        make_quadratic_model("0.5 + cos(2*pi*x)", 1.0, 0.0, 0.5)


def test_derivative_consistency(cd_model, cdv_model):
    assert derivative_consistency(cd_model) <= 1e-5
    assert derivative_consistency(cdv_model) <= 1e-5


def test_conjugate_model_identities(cdv_model):
    conj = conjugate_model(cdv_model)
    rng = np.random.default_rng(5)
    x, p, u = rng.uniform(0, 1, 50), rng.uniform(-3, 3, 50), rng.uniform(-2, 2, 50)
    assert np.allclose(conj.eval_H(x, p, u), cdv_model.eval_H(x, -p, -u))
    assert np.allclose(conj.d_u(x, p, u), -cdv_model.d_u(x, -p, -u))
    # increasing in u now
    assert np.all(np.asarray(conj.d_u(x, p, u)) >= cdv_model.delta - 1e-12)
    L, ps = conj.quad_coeffs.lagrangian(0.3, 0.7, 0.4)
    L0, ps0 = cdv_model.quad_coeffs.lagrangian(0.3, -0.7, -0.4)
    assert L == pytest.approx(L0) and ps == pytest.approx(-ps0)


def test_freeze_classical(cdv_model):
    frozen = freeze_classical(cdv_model)
    assert float(frozen.eval_H(0.2, 0.3, 7.0)) == pytest.approx(
        float(cdv_model.eval_H(0.2, 0.3, 0.0)))
    assert float(frozen.d_u(0.2, 0.3, 7.0)) == 0.0


def test_derived_models_keep_window(cd_model):
    # a derived model carries its parent's search window: the conjugate
    # (forward semigroup, backward action), the frozen model (critical
    # value) and the shifted one (--normalize-c) all step in it
    window = sg.SearchParams(v_max=0.5, p_max=2.0)
    model = dataclasses.replace(cd_model, search=window)
    for derived in (conjugate_model(model), freeze_classical(model),
                    shift_hamiltonian(model, 0.1),
                    conjugate_model(freeze_classical(model))):
        assert derived.search == window
    assert (conjugate_model(model).kappa, shift_hamiltonian(model, 0.1).delta
            ) == (model.kappa, model.delta)
    assert (freeze_classical(model).kappa, freeze_classical(model).delta
            ) == (0.0, 0.0)


def test_no_bracket_raised(cd_model):
    # d_p = p + 1 never reaches -9.5 inside |p| <= 10... it does at p = -10.5
    with pytest.raises(NoBracket):
        legendre_transform(cd_model, 0.0, -9.5, 0.0)


def test_critical_value_cd(cd_model):
    c = estimate_critical_value(cd_model)
    assert abs(c) <= 1e-3


def test_critical_value_free():
    free = make_quadratic_model(1.0, 0.0, 0.0, 0.0)
    c = estimate_critical_value(free)
    assert abs(c) <= 1e-6


def test_critical_value_mechanical():
    mech = make_quadratic_model(1.0, 0.0, "0.2*cos(2*pi*x)", 0.0)
    c = estimate_critical_value(mech)
    assert c == pytest.approx(0.2, abs=1e-2)


def test_critical_value_cosine_closed_form():
    # H = (p+1)^2/2 - 1/2 + V: c = E - 1/2 with mean sqrt(2(E - V)) = 1,
    # E > max V; the periodic integrand makes the node mean exact
    cdv = make_quadratic_model(1.0, 1.0, "0.2*cos(2*pi*x)", 0.0)
    V = 0.2 * np.cos(2 * np.pi * np.arange(4096) / 4096)
    lo, hi = 0.2, 1.0
    for _ in range(100):
        E = 0.5 * (lo + hi)
        lo, hi = (lo, E) if np.mean(np.sqrt(2 * (E - V))) > 1 else (E, hi)
    assert estimate_critical_value(cdv) == pytest.approx(E - 0.5, abs=1e-7)


def test_critical_value_without_record():
    # the frozen record-less model takes the generic cell minimum at u = 0
    mech = make_quadratic_model(1.0, 0.0, "0.2*cos(2*pi*x)", 0.0)
    bare = dataclasses.replace(mech, quad_coeffs=None)
    assert estimate_critical_value(bare) == pytest.approx(
        estimate_critical_value(mech), abs=1e-9)


def test_critical_value_not_converged(monkeypatch):
    # one policy sweep cannot certify the drifted potential's solve
    monkeypatch.setattr(sg, "INNER_MAX_ITER", 1)
    drifted = make_quadratic_model(1.0, 2.0, "0.3*cos(2*pi*x)", 0.0)
    with pytest.raises(NotConverged):
        estimate_critical_value(drifted)
