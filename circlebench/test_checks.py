"""Fast tests of the benchmark's answer checks; no solver runs.

Each checker accepts an exact answer built here from its closed form and
rejects the same answer perturbed past its tolerance.

    PYTHONPATH=src python3 -m pytest -q circlebench/test_checks.py
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracing  # noqa: E402

LAM = 0.5
XS = np.arange(256) / 256.0
GOLDEN = {"p0": -0.21078731748587307, "u0": 0.022856658241129046,
          "period": 1.021095005338232, "loop_integral": -1.0210950053382162}


def ok(result):
    return result[0]


def test_constant_drift_orbit():
    assert ok(checks.constant_drift_orbit(0.0, 0.0, 0.5, -0.5, b=2.0))
    assert not ok(checks.constant_drift_orbit(0.0, 0.0, 0.5 + 2e-8, -0.5, b=2.0))
    assert not ok(checks.constant_drift_orbit(2e-10, 0.0, 1.0, -1.0))


def test_period_matches_loop_integral():
    assert ok(checks.period_matches_loop_integral(1.02, -1.02))
    assert not ok(checks.period_matches_loop_integral(1.02, -1.02 - 2e-8))


@pytest.mark.parametrize("k,tol", [(1, 2.5e-2), (2, 1e-2), (4, 5e-3)])
def test_profile_shifted_by_twice_its_tolerance(k, tol):
    x0 = 37 / 256
    times = np.linspace(0.0, 1.0 / k, 9)
    exact = [checks.pinned_profile(XS, x0, t, LAM, k) for t in times]
    assert ok(checks.profile_error(exact, times, XS, x0, LAM, k, tol))
    shifted = [v + 2 * tol for v in exact]
    assert not ok(checks.profile_error(shifted, times, XS, x0, LAM, k, tol))


def test_profile_lattice():
    # the T/k profile repeats with period 1/k in time and vanishes at the pin
    a = checks.pinned_profile(XS, 0.25, 0.1, LAM, 4)
    b = checks.pinned_profile(XS, 0.25, 0.35, LAM, 4)
    assert np.allclose(a, b)
    assert checks.pinned_profile(np.array([0.25]), 0.25, 0.0, LAM)[0] == 0.0
    assert checks.pinned_profile(np.array([0.75]), 0.25, 0.0, LAM)[0] == \
        pytest.approx(0.5 * LAM * 0.25)


def test_amplitude_floor():
    floor = 0.5 * LAM / (4 * math.pi ** 2)
    assert ok(checks.amplitude_floor(floor * 1.001, LAM))
    assert not ok(checks.amplitude_floor(floor * 0.999, LAM))


def test_pinned_action_closed_form():
    # staying on the characteristic x0 + t costs nothing
    assert checks.pinned_action(0.2, 0.0, 0.7, 0.5, LAM) == pytest.approx(0.0)
    assert checks.pinned_action(0.2, 0.1, 0.7, 0.5, LAM) == \
        pytest.approx(0.1 * math.exp(0.25))
    exact = checks.pinned_action(0.2, 0.1, 0.9, 0.8, LAM)
    assert ok(checks.shooting_action(exact, 0.2, 0.1, 0.9, 0.8, LAM))
    assert not ok(checks.shooting_action(exact + 2e-8, 0.2, 0.1, 0.9, 0.8, LAM))


def test_reversibility():
    x0, x, t, u0 = 0.1, 0.45, 0.504, 0.293
    target = checks.pinned_action(x0, u0, x, t, LAM)
    assert ok(checks.reversibility(u0, target, x0, x, t, LAM, 5e-3))
    assert not ok(checks.reversibility(u0 + 1e-2, target, x0, x, t, LAM, 5e-3))


def test_comparison():
    phi = np.sin(2 * np.pi * XS)
    assert ok(checks.comparison(phi - 0.1, phi))
    bad = phi - 0.1
    bad[17] = phi[17] + 2e-9
    assert not ok(checks.comparison(bad, phi))


def test_same_values():
    assert ok(checks.same_values([1.0, 2.0], [1.0, 2.0 + 1e-11], 1e-10, "d"))
    assert not ok(checks.same_values([1.0, 2.0], [1.0, 2.0 + 2e-10], 1e-10, "d"))
    assert not ok(checks.same_values(0.5, 0.5 + 1e-16, 0.0, "root"))


ROWS = [(-0.4, "fixed_point", 8e-5, math.nan), (-0.2, "fixed_point", 8e-5, math.nan),
        (0.0, "degenerate", math.nan, math.nan), (0.2, "periodic", 0.0387, 1.0),
        (0.4, "periodic", 0.0596, 1.0)]


def test_bifurcation_rows():
    assert ok(checks.bifurcation_rows(ROWS))


@pytest.mark.parametrize("i,row", [
    (0, (-0.4, "periodic", 8e-5, math.nan)),          # flipped class
    (3, (0.2, "fixed_point", 0.0387, 1.0)),           # flipped class
    (2, (0.0, "periodic", 0.01, 1.0)),                # lambda = 0 not degenerate
    (4, (0.4, "periodic", 0.4 / (8 * math.pi ** 2) * 0.99, 1.0)),  # below floor
    (4, (0.4, "periodic", 0.0596, 1.0 + 2e-8)),       # period off
    (1, (-0.2, "fixed_point", 2e-4, math.nan)),       # not stationary
])
def test_bifurcation_rows_perturbed(i, row):
    rows = list(ROWS)
    rows[i] = row
    assert not ok(checks.bifurcation_rows(rows))


def test_bifurcation_csv_rows():
    text = ("lambda,class,amplitude,period,min_abs_B\n"
            "-0.40000000000000002,fixed_point,8.2e-05,nan,1\n"
            "0,degenerate,nan,nan,nan\n")
    rows = checks.bifurcation_csv_rows(text)
    assert rows[0][:2] == (-0.4, "fixed_point")
    assert math.isnan(rows[1][3])


def test_golden_orbit():
    assert ok(checks.golden_orbit(dict(GOLDEN), GOLDEN))
    off = dict(GOLDEN, period=GOLDEN["period"] + 1e-6)
    assert not ok(checks.golden_orbit(off, GOLDEN))


def orbit_csv(p_shift=0.0):
    xs = np.linspace(0.0, 1.0, 65)
    lines = ["x,t,p,u,B,f"]
    for x in xs:
        lines.append(f"{float(x)!r},{float(x)!r},{p_shift!r},0.0,1.0,0.0")
    return "\n".join(lines) + "\n"


def test_orbit_csv_energy():
    assert ok(checks.orbit_csv_energy(orbit_csv(), LAM, 0.0))
    # p = 2e-9 gives H = p + p^2/2 = 2e-9, twice the tolerance
    assert not ok(checks.orbit_csv_energy(orbit_csv(2e-9), LAM, 0.0))
    # the flat orbit is no orbit of the cosine-potential model
    assert not ok(checks.orbit_csv_energy(orbit_csv(), LAM, 0.2))


def test_identical():
    assert ok(checks.identical("a,b\n1,2\n", "a,b\n1,2\n", "csv"))
    assert not ok(checks.identical("a,b\n1,2\n", "a,b\n1,2.0000000000000004\n",
                                   "csv"))


def test_check_model_report():
    good = {"h1_ok": True, "h4_ok": True, "condition_C_ok": True,
            "h1_margin": 1.0, "h4_margin": 0.5, "c_margin": -0.3}
    assert ok(checks.check_model_report(good, LAM, 0.2))
    assert not ok(checks.check_model_report(good, LAM, 0.0))
    assert not ok(checks.check_model_report(dict(good, h4_ok=False), LAM, 0.2))


def test_subsolution_epsilon():
    exact = LAM / (4 * math.pi ** 2)
    assert ok(checks.subsolution_epsilon(exact, LAM))
    assert not ok(checks.subsolution_epsilon(exact + 2e-9, LAM))


def test_period_residual_from_slices():
    lines = ["t,x,value"]
    for t, vals in ((0.0, (0.0, 0.1)), (0.5, (0.2, 0.3)), (1.0, (0.001, 0.1))):
        for x, v in zip((0.0, 0.5), vals):
            lines.append(f"{t!r},{x!r},{v!r}")
    text = "\n".join(lines) + "\n"
    assert ok(checks.period_residual_from_slices(text, 0.001))
    assert not ok(checks.period_residual_from_slices(text, 0.002))


def test_layer_metrics_self_time_and_counts():
    # step spans under one evolve; refine and scan under the steps
    spans = [
        ("evolve", 0.0, 10.0, -1, 1, 0),
        ("step", 1.0, 4.0, 0, 1, 0),
        ("refine", 1.5, 3.0, 1, 1, 0),
        ("step", 5.0, 9.0, 0, 1, 0),
        ("scan", 5.0, 5.5, 3, 1, 0),
        ("reversibility", 10.0, 20.0, -1, 1, 0),
        ("action", 10.0, 12.0, 5, 1, 0),
        ("action", 12.0, 14.0, 5, 1, 0),
    ]
    m = tracing.layer_metrics(spans, 0, len(spans))
    assert m["step.calls"][0] == 2
    assert m["step.s"][0] == pytest.approx(7.0)
    assert m["evolve.s"][0] == pytest.approx(3.0)
    assert m["step.refine_s"][0] == pytest.approx(1.5)
    assert m["step.scan_s"][0] == pytest.approx(0.5)
    assert m["reversibility.bisections"][0] == 2
    assert m["sweep.row_s_max"][0] == 0.0


def test_tracer_skips_removed_entry_points():
    # a program version without _golden or the sweep still traces its steps
    from types import SimpleNamespace as NS

    class Workspace:
        def foot_matrix(self, values):
            return values

    def step_values(ws, values):
        return ws.foot_matrix(values)

    sg = NS(_StepWorkspace=Workspace, _step_values=step_values)
    fake = NS(semigroup=sg, flow=NS(), periodic=NS(), reporting=NS(),
              model=NS(), cli=NS())
    tracer = tracing.Tracer()
    tracer.install(fake)
    try:
        sg._step_values(Workspace(), 1.0)
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, 0, tracer.mark())
    assert m["step.calls"][0] == 1
    assert m["step.gather_s"][0] > 0.0
    assert m["step.refine_s"][0] == 0.0
    assert sg._step_values is step_values


def test_known_fault_counts_a_failed_operation():
    import workloads

    r = workloads.Round()
    r.op("shooting_action", lambda: 0.0)
    r.known_fault("shooting", (False, "off"))
    assert (r.attempted, r.failed, r.checks) == (1, 1, [])
    r.known_fault("shooting", (True, "mended"))
    assert r.failed == 1 and r.checks == [("shooting", True, "mended")]


def test_shooting_case_reported_value_is_rejected():
    # the value _shooting_action returns on the fixed case (a fan endpoint
    # 3.3e-3 past x) against its closed form
    import workloads

    x0, u0, x = workloads.GenericCharacteristics.SHOOTING_CASE
    exact = checks.pinned_action(x0, u0, x, 0.5, LAM)
    assert exact == pytest.approx(0.2659077577869258, abs=1e-12)
    assert ok(checks.shooting_action(exact + 5e-9, x0, u0, x, 0.5, LAM))
    assert not ok(checks.shooting_action(0.2626012606703547, x0, u0, x, 0.5,
                                         LAM))
