"""Experiment runner: config in, CSV artifacts and a manifest out.

Exit codes: 0 success, 1 unexpected failure or selftest failure,
2 structural assumption violated (decrease band, transversality,
negativity of min_p H), 3 iteration did not converge, 4 configuration
problem.  A manifest is written even when a command fails.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import logging
import math
import os
import sys
import traceback
import warnings

from . import errors, flow, periodic, reporting
from . import semigroup as sg
from .config import ExperimentConfig, build_model, load_config
from .model import compile_expression, shift_hamiltonian
from .selftest import run_selftest

_ASSUMPTION_ERRORS = (errors.NonPositiveA, errors.TurningPoint,
                      errors.EpsilonUnderflow, errors.TouchingViolated)
_CONVERGENCE_ERRORS = (errors.NotConverged, errors.InnerNotConverged,
                       errors.NoTrajectoryLanded, errors.CapTooSmall,
                       errors.BracketFail, errors.BlowUp,
                       errors.NotNontrivial, errors.FlatObjective,
                       errors.NoBracket)

_log = logging.getLogger("circlehj")

COMMANDS = ("check-model", "orbit", "evolve", "weak-kam", "action",
            "subsolution", "periodic", "trichotomy", "bifurcate")


def _search_params(cfg: ExperimentConfig) -> sg.SearchParams:
    return sg.SearchParams(v_max=cfg.get("search", "V_max"),
                           p_max=cfg.get("search", "P_max"),
                           u_max=cfg.get("search", "U_max"))


def _grid(cfg, key=("grid", "n")) -> sg.Grid:
    try:
        return sg.Grid(cfg.get(*key))
    except ValueError as exc:
        raise errors.ConfigError(str(exc)) from exc


def _phi_field(cfg, grid, key=("evolve", "phi")) -> sg.Field:
    phi, _ = compile_expression(cfg.get(*key))
    return sg.Field(grid, phi(grid.nodes))


def _orbit(model, cfg):
    return flow.shoot_stationary_orbit(
        model, guess=(cfg.get("orbit", "guess_p"), cfg.get("orbit", "guess_u")),
        n=cfg.get("orbit", "nodes"))


def cmd_check_model(model, cfg, out, files):
    from .model import check_assumptions, derivative_consistency

    search = _search_params(cfg)
    report = check_assumptions(model, search)
    fd = derivative_consistency(model, search)
    files.append(reporting.write_flat_json(os.path.join(out, "check_model.json"), {
        "h1_ok": report.h1_ok, "h4_ok": report.h4_ok,
        "condition_C_ok": report.condition_c_ok,
        "h1_margin": report.h1_margin, "h4_margin": report.h4_margin,
        "c_margin": report.c_margin, "h2_margin": report.h2_margin,
        "sample_count": report.sample_count, "fd_consistency": fd,
    }))
    if not (report.h4_ok and report.condition_c_ok and report.h1_ok):
        raise errors.TurningPoint(
            "assumption check failed: "
            + ", ".join(name for name, ok in
                        [("H1", report.h1_ok), ("H4", report.h4_ok),
                         ("C", report.condition_c_ok)] if not ok))
    return {"h4_margin": report.h4_margin}


def cmd_orbit(model, cfg, out, files):
    orbit = _orbit(model, cfg)
    files.append(reporting.write_csv(os.path.join(out, "orbit.csv"),
                                     ("x", "t", "p", "u", "B", "f"),
                                     reporting.orbit_rows(orbit)))
    holds, min_b = flow.check_condition_A(orbit)
    files.append(reporting.write_flat_json(os.path.join(out, "orbit_meta.json"), {
        "p0": orbit.p0, "u0": orbit.u0, "period": orbit.period,
        "loop_integral": orbit.loop_integral, "h_residual": orbit.h_residual,
        "condition_A": holds, "min_abs_B": min_b,
        "newton_iterations": orbit.newton_iterations,
    }))
    if not holds:
        raise errors.TurningPoint(f"condition (A) fails: min |B| = {min_b:g}")
    return {"period": orbit.period}


def cmd_evolve(model, cfg, out, files):
    grid = _grid(cfg)
    phi = _phi_field(cfg, grid)
    trace = sg.evolve(model, phi, cfg.get("evolve", "T"),
                      cfg.get("evolve", "dt"),
                      snapshot_every=cfg.get("evolve", "snapshot_every"),
                      search=_search_params(cfg),
                      u_cap=cfg.get("caps", "U_cap"))
    files.append(reporting.write_csv(os.path.join(out, "trace.csv"),
                                     ("t", "x", "value"),
                                     reporting.time_rows(trace.times,
                                                         trace.snapshots)))
    files.append(reporting.write_csv(
        os.path.join(out, "trace_supnorm.csv"), ("t", "supnorm"),
        list(zip(trace.times.tolist(), trace.sup_norms().tolist()))))
    files.append(reporting.write_csv(os.path.join(out, "field.csv"),
                                     ("x", "value"),
                                     reporting.field_rows(trace.final)))
    return {"diverged": trace.diverged, "t_end": float(trace.times[-1])}


def cmd_weak_kam(model, cfg, out, files):
    grid = _grid(cfg)
    tol = cfg.get("weakkam", "tol")
    t_max = cfg.get("weakkam", "T_max")
    dt = cfg.get("weakkam", "dt")
    search = _search_params(cfg)
    u_plus = sg.weak_kam_forward(model, grid, tol=tol, t_max=t_max, dt=dt,
                                 search=search)
    files.append(reporting.write_csv(os.path.join(out, "u_plus.csv"),
                                     ("x", "value"),
                                     reporting.field_rows(u_plus)))
    u_minus = sg.weak_kam_backward(model, u_plus, tol=tol, t_max=t_max, dt=dt,
                                   search=search)
    files.append(reporting.write_csv(os.path.join(out, "u_minus.csv"),
                                     ("x", "value"),
                                     reporting.field_rows(u_minus)))
    gap = sg.sup_dist(u_plus, u_minus)
    files.append(reporting.write_flat_json(os.path.join(out, "weak_kam.json"),
                                           {"sup_gap": gap, "tol": tol}))
    return {"sup_gap": gap}


def cmd_action(model, cfg, out, files):
    grid = _grid(cfg)
    res = sg.action_function(
        model, cfg.get("action", "x0"), cfg.get("action", "u0"),
        cfg.get("action", "x"), cfg.get("action", "t"),
        direction=cfg.get("action", "direction"),
        method=cfg.get("action", "method"), grid=grid,
        dt=cfg.get("action", "dt"), u_cap=cfg.get("caps", "U_cap"),
        search=_search_params(cfg))
    files.append(reporting.write_flat_json(os.path.join(out, "action.json"), {
        "x0": res.x0, "u0": res.u0, "x": res.x, "t": res.t,
        "value": res.value, "method": res.method, "cap_used": res.cap_used,
        "grid_value": res.grid_value, "shooting_value": res.shooting_value,
    }))
    return {"value": res.value}


def cmd_subsolution(model, cfg, out, files):
    orbit = _orbit(model, cfg)
    spec = periodic.build_subsolution(model, orbit,
                                      x0=cfg.get("subsolution", "x0"))
    n_x = cfg.get("subsolution", "n_x")
    n_t = cfg.get("subsolution", "n_t")
    resid = periodic.verify_subsolution(model, spec, n_x=n_x, n_t=n_t)
    files.append(reporting.write_flat_json(os.path.join(out, "subsolution.json"), {
        "x0": spec.x0, "epsilon": spec.epsilon,
        "hessian_bound": spec.hessian_bound, "max_residual": resid,
        "period": orbit.period, "loop_integral": orbit.loop_integral,
    }))
    return {"epsilon": spec.epsilon, "max_residual": resid}


def cmd_periodic(model, cfg, out, files):
    grid = _grid(cfg)
    orbit = _orbit(model, cfg)
    mode = cfg.get("periodic", "mode")
    kwargs = dict(n_max=cfg.get("periodic", "n_max"),
                  tol=cfg.get("periodic", "tol"),
                  m_slices=cfg.get("periodic", "slices"),
                  dt=cfg.get("periodic", "dt"),
                  u_cap=cfg.get("caps", "U_cap"),
                  search=_search_params(cfg))
    if mode == "pinned":
        sol = periodic.pinned_periodic_limit(model, orbit,
                                             x0=cfg.get("periodic", "x0"),
                                             grid=grid, **kwargs)
    elif mode == "longtime":
        phi = _phi_field(cfg, grid, key=("periodic", "phi"))
        sol = periodic.long_time_periodic_limit(model, phi, orbit, **kwargs)
    else:
        raise errors.ConfigError(f"periodic.mode must be pinned or longtime, "
                                 f"got {mode!r}")
    files.append(reporting.write_csv(os.path.join(out, "periodic.csv"),
                                     ("t", "x", "value"),
                                     reporting.time_rows(sol.times, sol.slices)))
    files.append(reporting.write_flat_json(os.path.join(out, "periodic.json"), {
        "mode": mode, "period": sol.period, "amplitude": sol.amplitude,
        "period_residual": sol.period_residual,
        "pde_residual": sol.pde_residual, "n_periods": sol.n_periods,
        "quasi_converged": sol.quasi_converged,
        "amplitude_at_x0": sol.amplitude_at_x0,
        "localization_gap": sol.localization_gap,
        "shift_applied": sol.shift_applied,
    }))
    return {"amplitude": sol.amplitude, "slice_times": sol.times.tolist()}


def cmd_trichotomy(model, cfg, out, files):
    grid = _grid(cfg)
    phi = _phi_field(cfg, grid, key=("trichotomy", "phi"))
    search = _search_params(cfg)
    u_plus = sg.weak_kam_forward(model, grid, tol=cfg.get("weakkam", "tol"),
                                 t_max=cfg.get("weakkam", "T_max"),
                                 dt=cfg.get("weakkam", "dt"), search=search)
    rep = periodic.classify_trichotomy(
        model, phi, u_plus, t_budget=cfg.get("trichotomy", "T_budget"),
        dt=cfg.get("trichotomy", "dt"), u_cap=cfg.get("caps", "U_cap"),
        search=search)
    files.append(reporting.write_flat_json(os.path.join(out, "trichotomy.json"), {
        "class": rep.klass, "confirmed": rep.confirmed,
        "evidence_min": rep.evidence_min, "evidence_max": rep.evidence_max,
        "touch_tol": rep.touch_tol, "bound_K": rep.bound_K,
        "onset_T_phi": rep.onset_T_phi, "escape_time": rep.escape_time,
        "inconclusive_reason": rep.inconclusive_reason,
    }))
    return {"class": rep.klass}


def cmd_bifurcate(model, cfg, out, files):
    lambdas = cfg.get("bifurcate", "lambdas")
    if not lambdas:
        raise errors.ConfigError("bifurcate.lambdas is required")
    mdl_cfg = cfg.values["model"]

    def family(lam):
        from .model import make_quadratic_model
        return make_quadratic_model(mdl_cfg["a"], mdl_cfg["b"], mdl_cfg["V"],
                                    lam)

    diag = periodic.bifurcation_sweep(
        family, lambdas, grid_n=_grid(cfg, ("bifurcate", "grid_n")).n,
        pinned_tol=cfg.get("bifurcate", "tol"),
        fp_tol=cfg.get("bifurcate", "fp_tol"),
        n_max=cfg.get("bifurcate", "n_max"), search=_search_params(cfg))
    rows = [(r.lam, r.klass, r.amplitude, r.period_estimate, r.min_abs_b)
            for r in diag.rows]
    files.append(reporting.write_csv(os.path.join(out, "bifurcation.csv"),
                                     ("lambda", "class", "amplitude", "period",
                                      "min_abs_B"), rows))
    files.append(reporting.write_flat_json(os.path.join(out, "bifurcation.json"), {
        "lambda0_estimate": ("inf" if math.isinf(diag.lambda0_estimate)
                             else diag.lambda0_estimate),
        "row_errors": {format(r.lam, ".17g"): r.error
                       for r in diag.rows if r.error},
    }))
    return {"rows": len(rows)}


_DISPATCH = {
    "check-model": cmd_check_model,
    "orbit": cmd_orbit,
    "evolve": cmd_evolve,
    "weak-kam": cmd_weak_kam,
    "action": cmd_action,
    "subsolution": cmd_subsolution,
    "periodic": cmd_periodic,
    "trichotomy": cmd_trichotomy,
    "bifurcate": cmd_bifurcate,
}


def _classify_exit(exc) -> int:
    if isinstance(exc, errors.ConfigError):
        return 4
    if isinstance(exc, _ASSUMPTION_ERRORS):
        return 2
    if isinstance(exc, _CONVERGENCE_ERRORS):
        return 3
    if isinstance(exc, errors.SliceCountIncompatible):
        return 4
    return 1


def run_command(command, config_path, out_dir, normalize_c=False,
                plot=False) -> int:
    """Execute one experiment command; always leaves a manifest in out_dir."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    files: list = []
    status = 0
    extra = {}
    cfg_hash = ""
    accuracy_warnings = 0
    record = sg.RunRecord()
    show = warnings.showwarning

    def count_accuracy(message, category, *args, **kwargs):
        # AccuracyWarnings are counted and logged as they happen; others
        # are shown as usual
        nonlocal accuracy_warnings
        if issubclass(category, sg.AccuracyWarning):
            accuracy_warnings += 1
            _log.info("AccuracyWarning: %s", message)
        else:
            show(message, category, *args, **kwargs)

    try:
        os.makedirs(out_dir, exist_ok=True)
        cfg = load_config(config_path)
        cfg_hash = cfg.hash()
        model = build_model(cfg)
        with warnings.catch_warnings(), sg.recording(record):
            warnings.simplefilter("always", sg.AccuracyWarning)
            warnings.showwarning = count_accuracy
            if normalize_c:
                c = sg.estimate_critical_value(model,
                                               search=_search_params(cfg))
                model = shift_hamiltonian(model, c)
                extra["normalized_c"] = c
            extra.update(_DISPATCH[command](model, cfg, out_dir, files))
        if plot:
            csvs = [os.path.basename(f) for f in files if f.endswith(".csv")]
            plot_extra = extra.get("slice_times", [])
            if command == "periodic" and plot_extra:
                step = max(1, (len(plot_extra) - 1) // 8)
                plot_extra = plot_extra[:-1][::step][:8]
            files.append(os.path.join(out_dir, reporting.emit_plot_script(
                out_dir, command, csvs, extra=plot_extra)))
    except Exception as exc:
        status = _classify_exit(exc)
        sys.stderr.write(f"error: {exc}\n")
        if status == 1:
            traceback.print_exc()
    finally:
        extra.pop("slice_times", None)
        ended = datetime.datetime.now(datetime.timezone.utc).isoformat()
        manifest = {
            "command": command,
            "config_hash": cfg_hash,
            "started": started,
            "ended": ended,
            "files": sorted(os.path.basename(f) for f in files),
            "exit_status": status,
            "accuracy_warnings": accuracy_warnings,
            "window_hits": record.window_hits,
            "limit_periods": record.limit_periods,
            "quasi_limits": record.quasi_limits,
            "policy_sweeps": record.policy_sweeps,
        }
        manifest.update({k: v for k, v in extra.items()
                         if isinstance(v, (int, float, str, bool))})
        try:
            reporting.write_flat_json(os.path.join(out_dir, "manifest"),
                                      manifest)
        except OSError:
            pass
        _log.info("%s: exit %d, window hits %d, limit periods %d, quasi "
                  "limits %d, policy sweeps %d, accuracy warnings %d",
                  command, status, record.window_hits, record.limit_periods,
                  record.quasi_limits, record.policy_sweeps,
                  accuracy_warnings)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlehj",
        description="contact Hamilton-Jacobi laboratory on the circle")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--normalize-c", action="store_true")
        p.add_argument("--plot", action="store_true")
        p.add_argument("--verbose", action="store_true")
    st = sub.add_parser("selftest")
    st.add_argument("--level", choices=("fast", "full"), default="fast")
    st.add_argument("--verbose", action="store_true")
    return parser


@contextlib.contextmanager
def _log_to_stderr():
    """Stream the package's INFO records to stderr for one command."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = _log.level
    _log.addHandler(handler)
    _log.setLevel(logging.INFO)
    try:
        yield
    finally:
        _log.removeHandler(handler)
        _log.setLevel(level)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _log_to_stderr() if args.verbose else contextlib.nullcontext():
        if args.command == "selftest":
            failures = run_selftest(args.level)
            if failures:
                sys.stderr.write(f"{failures} check(s) failed\n")
                return 1
            return 0
        return run_command(args.command, args.config, args.out,
                           normalize_c=args.normalize_c, plot=args.plot)


if __name__ == "__main__":
    sys.exit(main())
