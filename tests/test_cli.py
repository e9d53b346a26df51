import glob
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from circlehj import cli, selftest
from circlehj.config import load_config, parse_config_text
from circlehj.errors import ConfigError
from circlehj.model import constant_drift_model
from circlehj.reporting import emit_plot_script

CD_CFG = """
model.family = quadratic
model.a = 1
model.b = 1
model.V = 0
model.lambda = 0.5
grid.n = 256
evolve.dt = 0.001
evolve.T = 0.5
evolve.snapshot_every = 0.1
evolve.phi = 0.05 - 0.05*cos(2*pi*x)
"""


SHIPPED_CD = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "constant_drift.cfg")


@pytest.fixture()
def cd_cfg_path(tmp_path):
    path = tmp_path / "cd.cfg"
    path.write_text(CD_CFG)
    return str(path)


def manifest_of(out_dir):
    with open(os.path.join(out_dir, "manifest")) as fh:
        return json.load(fh)


# -------------------------------------------------------------------- config

def test_config_defaults_and_parse():
    cfg = parse_config_text(CD_CFG)
    assert cfg.get("model", "lambda") == 0.5
    assert cfg.get("grid", "n") == 256
    assert cfg.get("caps", "U_cap") == 50.0  # untouched default
    assert cfg.get("evolve", "phi").startswith("0.05")


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("model.lambduh = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config_text("nosection = 3\n")


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config_text("grid.n = -4\n")
    with pytest.raises(ConfigError):
        parse_config_text("evolve.dt = zero\n")
    for key in ("periodic.dt", "trichotomy.dt", "weakkam.dt"):
        for value in ("0", "-0.01"):
            with pytest.raises(ConfigError):
                parse_config_text(f"{key} = {value}\n")


def test_config_lambda_list_and_jobs():
    cfg = parse_config_text("bifurcate.lambdas = -0.4,-0.2,0,0.2\n")
    assert cfg.get("bifurcate", "lambdas") == [-0.4, -0.2, 0.0, 0.2]
    with pytest.raises(ConfigError):
        parse_config_text("jobs = 3\n")


def test_config_hash_stable(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text(CD_CFG)
    assert load_config(p).hash() == load_config(p).hash()


# ------------------------------------------------------------------ commands

def test_orbit_command_and_determinism(cd_cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert cli.main(["orbit", "--config", cd_cfg_path, "--out", out1]) == 0
    assert cli.main(["orbit", "--config", cd_cfg_path, "--out", out2]) == 0
    with open(os.path.join(out1, "orbit.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(out2, "orbit.csv"), "rb") as fh:
        second = fh.read()
    assert first == second
    assert first.splitlines()[0] == b"x,t,p,u,B,f"
    meta = manifest_of(out1)
    assert meta["exit_status"] == 0
    assert meta["period"] == pytest.approx(1.0, abs=1e-8)
    # no limit is taken: the counters are reported as zero
    assert (meta["limit_periods"], meta["quasi_limits"]) == (0, 0)
    for name in meta["files"]:
        assert os.path.exists(os.path.join(out1, name))


def test_check_model_honours_search_window(tmp_path):
    # h2_margin = min(d_p(p_max), -d_p(-p_max)) = p_max - 1 for constant drift
    margins = []
    for extra in ("", "search.P_max = 2\n"):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(CD_CFG + extra)
        out = str(tmp_path / f"w{len(margins)}")
        assert cli.main(["check-model", "--config", str(cfg), "--out",
                         out]) == 0
        with open(os.path.join(out, "check_model.json")) as fh:
            margins.append(float(json.load(fh)["h2_margin"]))
    assert margins == [9.0, 1.0]


def test_bifurcate_honours_search_window(tmp_path):
    # the family's members carry the configured window: with V_max = 0.5,
    # below the drift b = 1, the lam = 0.2 member's pinned limit runs into
    # the window's end and degenerates; at the default V_max = 10 it is
    # periodic with a handful of window hits
    classes, hits = [], []
    for extra in ("", "search.V_max = 0.5\n"):
        cfg = tmp_path / "bif.cfg"
        cfg.write_text("model.lambda = 0.5\nbifurcate.lambdas = -0.2,0.2\n"
                       "bifurcate.grid_n = 128\n" + extra)
        out = str(tmp_path / f"bif{len(hits)}")
        assert cli.main(["bifurcate", "--config", str(cfg), "--out",
                         out]) == 0
        with open(os.path.join(out, "bifurcation.csv")) as fh:
            classes.append([line.split(",")[1]
                            for line in fh.read().splitlines()[1:]])
        hits.append(manifest_of(out)["window_hits"])
    assert classes == [["fixed_point", "periodic"],
                       ["fixed_point", "degenerate"]]
    assert hits[0] < 1000 < hits[1]


def test_check_model_failure_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.lambda = -0.5\n")
    out = str(tmp_path / "out")
    assert cli.main(["check-model", "--config", str(cfg), "--out", out]) == 2
    assert manifest_of(out)["exit_status"] == 2


def test_config_error_exit_4(tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("model.lambduh = 0.5\n")
    out = str(tmp_path / "out")
    assert cli.main(["orbit", "--config", str(cfg), "--out", out]) == 4
    assert manifest_of(out)["exit_status"] == 4
    missing = str(tmp_path / "gone")
    assert cli.main(["orbit", "--config", str(tmp_path / "nope.cfg"),
                     "--out", missing]) == 4


def test_bifurcate_grid_error_exit_4(tmp_path):
    # a bad sweep grid fails the command, not each row as degenerate
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("bifurcate.lambdas = -0.2,0.2\nbifurcate.grid_n = 100\n")
    out = str(tmp_path / "out")
    assert cli.main(["bifurcate", "--config", str(cfg), "--out", out]) == 4
    assert manifest_of(out)["exit_status"] == 4
    assert not os.path.exists(os.path.join(out, "bifurcation.csv"))


@pytest.mark.parametrize("line", [
    "model.V = exp(x", 'model.V = __import__("os").getpid()*0',
    "evolve.phi = sqrt(x)", "model.b = x.real", "model.V = cos(x, 1)",
    "model.a = x**x", "evolve.phi = 1/x", "model.V = 1/x",
    "model.a = 10**400"])
def test_bad_expression_exit_4(tmp_path, line):
    # every expression key is checked at parse time, whatever the command;
    # the last three are in the grammar but not finite on the grid
    cfg = tmp_path / "expr.cfg"
    cfg.write_text(CD_CFG + line + "\n")
    out = str(tmp_path / "out")
    assert cli.main(["check-model", "--config", str(cfg), "--out", out]) == 4
    assert manifest_of(out)["exit_status"] == 4


@pytest.mark.parametrize("line", [
    "evolve.T = -1", "evolve.dt = nan", "search.V_max = inf",
    "evolve.T = inf", "caps.U_cap = nan", "evolve.T 1",
    "model.family = cubic", "action.method = bogus",
    "action.direction = sideways"])
def test_bad_number_exit_4(tmp_path, line):
    # a float that is not finite, a negative horizon, a line without '='
    # or a string outside its key's choices (model family, action method
    # or direction) is a config error, not a failure of the command, even
    # for a command that never reads the key
    cfg = tmp_path / "num.cfg"
    cfg.write_text(CD_CFG.replace("grid.n = 256", "grid.n = 64") + line + "\n")
    out = str(tmp_path / "out")
    assert cli.main(["evolve", "--config", str(cfg), "--out", out]) == 4
    assert manifest_of(out)["exit_status"] == 4


def test_import_does_not_load_sympy():
    import circlehj
    src = os.path.dirname(os.path.dirname(circlehj.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, circlehj, circlehj.cli; "
         "print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert res.stdout.strip() == "False"


def test_evolve_command_with_plot(cd_cfg_path, tmp_path):
    out = str(tmp_path / "ev")
    assert cli.main(["evolve", "--config", cd_cfg_path, "--out", out,
                     "--plot"]) == 0
    meta = manifest_of(out)
    assert set(meta["files"]) >= {"trace.csv", "trace_supnorm.csv",
                                  "field.csv", "plot.gp"}
    with open(os.path.join(out, "plot.gp")) as fh:
        script = fh.read()
    assert "trace_supnorm.csv" in script
    with open(os.path.join(out, "trace.csv")) as fh:
        assert fh.readline().strip() == "t,x,value"
    assert meta["window_hits"] == 0
    # dt = 1e-3 exceeds h/v_max = 3.9e-4: counted, never written to data
    assert meta["accuracy_warnings"] >= 1
    fine = tmp_path / "fine.cfg"
    fine.write_text(CD_CFG.replace("evolve.dt = 0.001\n", "evolve.dt = 0.0003\n")
                    .replace("evolve.T = 0.5", "evolve.T = 0.03"))
    out_fine = str(tmp_path / "ev_fine")
    assert cli.main(["evolve", "--config", str(fine), "--out", out_fine]) == 0
    assert manifest_of(out_fine)["accuracy_warnings"] == 0
    # characteristic speed 12 exceeds the velocity window v_max = 10
    fast = tmp_path / "fast.cfg"
    fast.write_text(CD_CFG.replace("model.b = 1\n", "model.b = 12\n")
                    .replace("evolve.T = 0.5", "evolve.T = 0.02"))
    out_fast = str(tmp_path / "ev_fast")
    assert cli.main(["evolve", "--config", str(fast), "--out", out_fast]) == 0
    assert manifest_of(out_fast)["window_hits"] > 0


def test_weak_kam_command(cd_cfg_path, tmp_path):
    out = str(tmp_path / "wk")
    assert cli.main(["weak-kam", "--config", cd_cfg_path, "--out", out]) == 0
    assert manifest_of(out)["window_hits"] == 0
    with open(os.path.join(out, "weak_kam.json")) as fh:
        report = json.load(fh)
    assert float(report["sup_gap"]) <= 1e-6
    u_plus = np.loadtxt(os.path.join(out, "u_plus.csv"), delimiter=",",
                        skiprows=1)
    assert np.max(np.abs(u_plus[:, 1])) <= 1e-6


def test_action_command(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(CD_CFG + "action.x = 0.5\naction.t = 0.5\n")
    out = str(tmp_path / "act")
    assert cli.main(["action", "--config", str(cfg), "--out", out]) == 0
    # the interpolated front of a pinned datum is reached at v = +-v_max
    assert manifest_of(out)["window_hits"] > 0
    with open(os.path.join(out, "action.json")) as fh:
        report = json.load(fh)
    assert abs(float(report["shooting_value"])) <= 1e-8
    assert abs(float(report["grid_value"])) <= 2e-2


def test_subsolution_command(cd_cfg_path, tmp_path):
    out = str(tmp_path / "sub")
    assert cli.main(["subsolution", "--config", cd_cfg_path, "--out", out]) == 0
    with open(os.path.join(out, "subsolution.json")) as fh:
        report = json.load(fh)
    assert float(report["epsilon"]) == pytest.approx(0.0126651, abs=1e-6)
    assert float(report["max_residual"]) <= 1e-6


def test_periodic_command(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(CD_CFG.replace("grid.n = 256", "grid.n = 128")
                   + "periodic.slices = 16\n")
    out = str(tmp_path / "per")
    assert cli.main(["periodic", "--config", str(cfg), "--out", out,
                     "--plot"]) == 0
    assert manifest_of(out)["window_hits"] > 0  # pinned limit, as in action
    with open(os.path.join(out, "periodic.json")) as fh:
        report = json.load(fh)
    assert float(report["period_residual"]) <= 5e-3
    assert float(report["amplitude"]) > 0.0
    with open(os.path.join(out, "plot.gp")) as fh:
        assert "periodic.csv" in fh.read()


def test_periodic_command_longtime_mode(tmp_path):
    # the long-time limit of the zero datum, which touches u+ = 0 of the
    # constant drift everywhere
    cfg = tmp_path / "lt.cfg"
    cfg.write_text(CD_CFG.replace("grid.n = 256", "grid.n = 128")
                   + "periodic.mode = longtime\nperiodic.slices = 16\n")
    out = str(tmp_path / "lt")
    assert cli.main(["periodic", "--config", str(cfg), "--out", out]) == 0
    with open(os.path.join(out, "periodic.json")) as fh:
        report = json.load(fh)
    assert report["mode"] == "longtime"
    assert report["amplitude_at_x0"] is None
    assert float(report["shift_applied"]) == 0.0
    assert float(report["localization_gap"]) <= 1e-6
    assert float(report["period_residual"]) <= 5e-3


@pytest.mark.parametrize("line, status", [("periodic.mode = bogus", 4),
                                          ("periodic.n_max = 1", 3)])
def test_periodic_command_failures(tmp_path, line, status):
    # an unknown mode is a config error; one period cannot reach tol
    with open(SHIPPED_CD) as fh:
        text = fh.read()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + line + "\n")
    out = str(tmp_path / "out")
    assert cli.main(["periodic", "--config", str(cfg), "--out", out]) == status
    assert manifest_of(out)["exit_status"] == status
    assert not os.path.exists(os.path.join(out, "periodic.csv"))


def test_periodic_command_counts_limits(tmp_path):
    # the shipped cosine-potential config's pinned limit stagnates above tol
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "cosine_potential.cfg")
    out = str(tmp_path / "per_cos")
    assert cli.main(["periodic", "--config", cfg, "--out", out]) == 0
    meta = manifest_of(out)
    assert meta["quasi_limits"] >= 1
    assert meta["limit_periods"] >= 3


def test_trichotomy_command(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(CD_CFG + "trichotomy.phi = 0.1\ntrichotomy.T_budget = 10\n")
    out = str(tmp_path / "tri")
    assert cli.main(["trichotomy", "--config", str(cfg), "--out", out]) == 0
    assert manifest_of(out)["window_hits"] == 0
    with open(os.path.join(out, "trichotomy.json")) as fh:
        report = json.load(fh)
    assert report["class"] == "D3_plus_infinity"
    assert report["confirmed"] is True


def test_bifurcate_command(tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("model.lambda = 0.5\nbifurcate.lambdas = -0.2,0,0.2\n"
                   "bifurcate.grid_n = 128\n")
    out = str(tmp_path / "bif")
    assert cli.main(["bifurcate", "--config", str(cfg), "--out", out,
                     "--plot"]) == 0
    manifest = manifest_of(out)
    assert manifest["window_hits"] > 0  # pinned limits, as in action
    assert manifest["policy_sweeps"] > 0  # the lambda < 0 row
    rows = {}
    with open(os.path.join(out, "bifurcation.csv")) as fh:
        assert fh.readline().strip() == "lambda,class,amplitude,period,min_abs_B"
        for line in fh:
            cells = line.strip().split(",")
            rows[float(cells[0])] = cells[1]
    assert rows == {-0.2: "fixed_point", 0.0: "degenerate", 0.2: "periodic"}


SHIPPED = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                        "configs", "*.cfg")))


@pytest.mark.parametrize("cfg", SHIPPED, ids=os.path.basename)
def test_bifurcate_runs_on_every_shipped_config(cfg, tmp_path):
    out = str(tmp_path / "bif")
    assert cli.main(["bifurcate", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "bifurcation.csv")) as fh:
        assert len(fh.read().splitlines()) == 1 + 5


def test_verbose_streams_events_and_keeps_outputs(tmp_path, capsys):
    # --verbose streams the run's events to stderr and changes no output:
    # data files identical, the manifest identical but for its timestamps
    cfg = tmp_path / "v.cfg"
    cfg.write_text("model.lambda = 0.5\nbifurcate.lambdas = -0.2,0.2\n"
                   "bifurcate.grid_n = 128\n")
    logger = logging.getLogger("circlehj")
    handlers = list(logger.handlers)
    outputs = []
    for k, flag in enumerate(([], ["--verbose"], ["--verbose"])):
        out = str(tmp_path / f"out{k}")
        assert cli.main(["bifurcate", "--config", str(cfg), "--out", out,
                         "--normalize-c"] + flag) == 0
        assert logger.handlers == handlers
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name)) as fh:
                files[name] = [line for line in fh.read().splitlines()
                               if not line.lstrip().startswith(
                                   ('"started"', '"ended"'))]
        outputs.append(files)
        err = capsys.readouterr().err
        if not flag:
            assert err == ""
            continue
        assert "period-map limit" in err and "window hits" in err
        assert "policy fixed point after" in err
        assert "AccuracyWarning: dt = " in err
        # a repeated in-process run logs each record once: no stacked handler
        assert err.count("bifurcate: exit 0") == 1
    assert {"bifurcation.csv", "bifurcation.json", "manifest"} <= set(outputs[0])
    assert outputs[0] == outputs[1] == outputs[2]


def test_normalize_c_flag(tmp_path):
    cfg = tmp_path / "n.cfg"
    cfg.write_text(CD_CFG)
    out = str(tmp_path / "norm")
    assert cli.main(["orbit", "--config", str(cfg), "--out", out,
                     "--normalize-c"]) == 0
    meta = manifest_of(out)
    assert abs(meta["normalized_c"]) <= 1e-3  # already normalized family
    assert meta["period"] == pytest.approx(1.0, abs=1e-6)
    # the critical-value solve runs dt = 4e-3 above h/v_max = 7.8e-4
    assert meta["accuracy_warnings"] == 1


# ------------------------------------------------------------------ selftest

def test_selftest_fast_passes(capsys):
    assert selftest.run_selftest("fast") == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_selftest_seeded_fault_names_h4():
    import dataclasses
    cd = constant_drift_model(1.0, 0.5)
    broken = dataclasses.replace(cd, d_u=lambda x, p, u: -cd.d_u(x, p, u))
    ok, detail = selftest.check_h4_margin(broken)
    assert not ok
    assert "H4" in detail


@pytest.mark.parametrize("command", ["check-model", "subsolution",
                                     "trichotomy", "action"])
def test_plot_skipped_without_csv(tmp_path, command):
    # these commands write JSON only: --plot has nothing to draw, and the
    # run still succeeds
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", SHIPPED_CD, "--out", out,
                     "--plot"]) == 0
    meta = manifest_of(out)
    assert meta["exit_status"] == 0
    assert "plot.gp" not in meta["files"]
    assert not os.path.exists(os.path.join(out, "plot.gp"))


def test_plot_script_requires_csv(tmp_path):
    with pytest.raises(ValueError):
        emit_plot_script(str(tmp_path), "orbit", [])
