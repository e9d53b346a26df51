"""Step counting and span tracing, installed from outside the program.

Two independent ways to count Lax-Oleinik steps:

* ``StepCounter`` wraps ``evolve`` and reads every returned
  ``EvolutionTrace``: steps = final time / dt.  It is cheap enough to stay
  on in untraced runs, where it gives ``lo_steps``.
* ``Tracer`` wraps ``_step_values`` itself (and the other layer entry
  points listed in ``layer_table``) and records one span per call.  Its
  ``step.calls`` must equal the step counter's total.

Spans are kept in memory as tuples (name, start, end, parent, thread,
extra) and written out once, at exit.  Wrappers are thread-safe because
the bifurcation sweep evolves rows from a thread pool.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time


class _Patches:
    """Module attributes swapped for wrappers, restored by uninstall()."""

    def __init__(self):
        self._lock = threading.Lock()
        self._undo = []

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper(original))
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class StepCounter(_Patches):
    """Counts steps from the dt and final time of each returned trace."""

    def __init__(self):
        super().__init__()
        self.steps = 0

    def install(self, semigroup, periodic):
        # periodic imported evolve by name, so both bindings are replaced
        for owner in (semigroup, periodic):
            self._replace(owner, "evolve", self._wrap)

    def _wrap(self, evolve):
        def counted(*args, **kwargs):
            trace = evolve(*args, **kwargs)
            steps = round(float(trace.times[-1]) / trace.dt)
            with self._lock:
                self.steps += steps
            return trace
        return counted


def layer_table(circlehj):
    """(owner, attribute, span name, extra) for every traced entry point.

    ``extra(args, kwargs, result)`` returns a number stored on the span:
    Newton iterations of a shot, periods of a period-map limit, RK4 steps
    of a characteristic batch, bytes of a written report.
    """
    sg = circlehj.semigroup
    fl = circlehj.flow
    pr = circlehj.periodic
    rp = circlehj.reporting
    md = circlehj.model
    cli = circlehj.cli

    def newton(args, kwargs, result):
        return result.newton_iterations

    def periods(args, kwargs, result):
        return result.n_periods

    def rk4_steps(args, kwargs, result):
        t_total, dt = args[4], args[5]
        return max(1, math.ceil(abs(t_total) / dt - 1e-12))

    def file_bytes(args, kwargs, result):
        return os.path.getsize(result)

    def plot_bytes(args, kwargs, result):
        return os.path.getsize(os.path.join(args[0], result))

    ws = sg._StepWorkspace
    return [
        (md, "make_quadratic_model", "model_build", None),
        (cli, "run_command", "cli", None),
        (sg, "evolve", "evolve", None),
        (pr, "evolve", "evolve", None),
        (sg, "_step_values", "step", None),
        (sg, "_step_generic", "step_generic", None),
        (ws, "foot_matrix", "gather", None),
        (ws, "_tiebreak_argmin", "scan", None),
        (ws, "_golden", "refine", None),
        (sg, "solve_p_star_batch", "legendre", None),
        (sg, "_flow_batch", "characteristics", rk4_steps),
        (sg, "action_function", "action", None),
        (sg, "solve_reversibility", "reversibility", None),
        (fl, "shoot_stationary_orbit", "shoot", newton),
        (pr, "shoot_stationary_orbit", "shoot", newton),
        (getattr(cli, "flow", None), "shoot_stationary_orbit", "shoot", newton),
        (fl, "_quad_sweep", "sweep_ode", None),
        (fl, "_generic_sweep", "sweep_ode", None),
        (pr, "_period_map_limit", "period_map", None),
        (pr, "pinned_periodic_limit", "periodic_limit", periods),
        (pr, "long_time_periodic_limit", "periodic_limit", periods),
        (pr, "bifurcation_sweep", "sweep", None),
        (pr, "_sweep_row", "sweep_row", None),
        (rp, "write_csv", "report", file_bytes),
        (rp, "write_flat_json", "report", file_bytes),
        (rp, "emit_plot_script", "report", plot_bytes),
    ]


class Tracer(_Patches):
    """Records a span around each call into a traced layer."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self._local = threading.local()

    def install(self, circlehj):
        done = set()
        for owner, attr, name, extra in layer_table(circlehj):
            # an entry point a later version removes stays at 0 calls;
            # cli.flow is circlehj.flow, so each binding is wrapped once
            if not hasattr(owner, attr) or (id(owner), attr) in done:
                continue
            done.add((id(owner), attr))
            self._replace(owner, attr,
                          lambda fn, n=name, e=extra: self._wrap(fn, n, e))

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, extra):
        spans = self.spans
        lock = self._lock

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            with lock:
                index = len(spans)
                spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                threading.get_ident(), 0)
            if extra is not None:
                spans[index] = spans[index][:5] + (extra(args, kwargs, result),)
            return result
        return traced

    def mark(self):
        """Index separating the spans recorded so far from later ones."""
        return len(self.spans)

    def write(self, path):
        """Write every span as one CSV line: name,start,end,parent,thread,extra."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,thread,extra\n")
            for i, (name, start, end, parent, thread, extra) in \
                    enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{thread},"
                         f"{extra}\n")


def layer_metrics(spans, begin, end):
    """Per-layer numbers of the spans recorded in [begin, end).

    Self time is a span's duration minus that of its direct children.
    """
    window = range(begin, end)
    calls, total, extra, longest = {}, {}, {}, {}
    child = {}      # (parent name, child name) -> time of direct children
    child_calls = {}
    child_of = {}   # parent index -> time of all direct children
    for i in window:
        name, start, stop, parent, _, x = spans[i]
        d = stop - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + d
        extra[name] = extra.get(name, 0) + x
        longest[name] = max(longest.get(name, 0.0), d)
        if parent >= 0:
            key = (spans[parent][0], name)
            child[key] = child.get(key, 0.0) + d
            child_calls[key] = child_calls.get(key, 0) + 1
            child_of[parent] = child_of.get(parent, 0.0) + d
    cli_self = sum(spans[i][2] - spans[i][1] - child_of.get(i, 0.0)
                   for i in window if spans[i][0] == "cli")
    solves = calls.get("reversibility", 0)

    def t(name):
        return total.get(name, 0.0)

    def c(parent, name):
        return child.get((parent, name), 0.0)

    return {
        "step.calls": (calls.get("step", 0), "count"),
        "step.s": (t("step"), "s"),
        "step.refine_s": (t("refine"), "s"),
        "step.gather_s": (t("gather"), "s"),
        "step.scan_s": (t("scan"), "s"),
        # the value fixed point: generic steps outside refinement and scans
        "step.fixed_point_s": (t("step_generic") - c("step_generic", "refine")
                               - c("step_generic", "scan"), "s"),
        "step.legendre_calls": (calls.get("legendre", 0), "count"),
        "evolve.calls": (calls.get("evolve", 0), "count"),
        "evolve.s": (t("evolve") - c("evolve", "step"), "s"),
        "characteristics.s": (t("characteristics"), "s"),
        "characteristics.rk4_steps": (extra.get("characteristics", 0), "count"),
        "shoot.calls": (calls.get("shoot", 0), "count"),
        "shoot.s": (t("shoot"), "s"),
        "shoot.newton_iters": (extra.get("shoot", 0), "count"),
        "shoot.sweeps": (calls.get("sweep_ode", 0), "count"),
        "period_map.periods": (extra.get("periodic_limit", 0), "count"),
        "period_map.s": (t("period_map"), "s"),
        # action evaluations per solve_reversibility call
        "reversibility.bisections": (
            child_calls.get(("reversibility", "action"), 0) / solves
            if solves else 0.0, "count"),
        "sweep.s": (t("sweep"), "s"),
        "sweep.row_s_max": (longest.get("sweep_row", 0.0), "s"),
        "report.write_s": (t("report"), "s"),
        "report.bytes": (extra.get("report", 0), "bytes"),
        "cli.self_s": (cli_self, "s"),
    }


def median_metrics(per_round):
    """Median over rounds of each metric in a list of layer_metrics dicts."""
    out = {}
    for name, (_, unit) in per_round[0].items():
        out[name] = (statistics.median(r[name][0] for r in per_round), unit)
    return out
