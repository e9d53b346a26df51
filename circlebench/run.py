"""circlehj benchmark: one workload, one seed, one process.

    python3 circlebench/run.py --workload periodic_cd256 --seed 1 \
        --seconds 25 --trace 0

Run from the root of a source tree holding src/circlehj and configs/.
After a timed set-up (import, config parse, model build), the workload
runs whole rounds of the same operations until the next round would end
past --seconds (at least one round).  Every answer is checked against a
closed form or a property (see checks.py).  The last stdout line is one
JSON object: correct, attempted, failed and the metrics.

--trace 0 reports the end-to-end metrics; --trace 1 installs the span
tracer, reports the per-layer metrics (medians over rounds) and writes
the spans to .circlebench_out/.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the script's first statement

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".circlebench_out")


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    src = os.path.join(ROOT, "src")
    if not (os.path.isfile(os.path.join(src, "circlehj", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "configs"))):
        sys.stderr.write(f"no circlehj source tree (src/circlehj, configs/) "
                         f"under {ROOT}\n")
        return 2
    sys.path.insert(0, src)
    os.makedirs(SCRATCH, exist_ok=True)

    t_import = time.perf_counter()
    import circlehj
    import circlehj.cli
    import circlehj.config
    import_s = time.perf_counter() - t_import
    warnings.simplefilter("ignore", circlehj.semigroup.AccuracyWarning)

    counter = tracing.StepCounter()
    counter.install(circlehj.semigroup, circlehj.periodic)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(circlehj)

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(circlehj, args.seed, ROOT, SCRATCH)
    setup_s = time.perf_counter() - _T0
    setup_spans = tracer.mark() if tracer else 0

    rounds = []
    began = time.perf_counter()
    while True:
        steps_before = counter.steps
        span_begin = tracer.mark() if tracer else 0
        r = workloads.Round()
        workload.run_round(circlehj, r)
        r.steps = counter.steps - steps_before
        if tracer:
            r.layers = tracing.layer_metrics(tracer.spans, span_begin,
                                             tracer.mark())
        rounds.append(r)
        elapsed = time.perf_counter() - began
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    if hasattr(workload, "cleanup"):
        workload.cleanup()

    failures = [(name, detail) for r in rounds for name, ok, detail in r.checks
                if not ok]
    step_counts = sorted({r.steps for r in rounds})
    if len(step_counts) != 1:
        failures.append(("steps repeat", f"rounds took {step_counts} steps"))
    if tracer:
        for r in rounds:
            if r.layers["step.calls"][0] != r.steps:
                failures.append(("step count paths", (
                    f"traced step.calls {r.layers['step.calls'][0]} != "
                    f"trace arithmetic {r.steps}")))
    for name, ok, detail in rounds[0].checks:
        sys.stderr.write(f"check {name}: {detail}\n")
    for name, detail in rounds[0].faults:
        sys.stderr.write(f"known fault, operation failed: {name}: {detail}\n")
    for name, detail in failures:
        sys.stderr.write(f"CHECK FAILED {name}: {detail}\n")
    n_checks = sum(len(r.checks) for r in rounds)
    sys.stderr.write(f"{args.workload} seed {args.seed}: {len(rounds)} "
                     f"round(s), {n_checks} checks, {len(failures)} failed; "
                     f"round times "
                     f"{', '.join(f'{r.solve_s:.3f}' for r in rounds)} s\n")

    if tracer:
        metrics = tracing.median_metrics([r.layers for r in rounds])
        metrics["model.build_s"] = (
            sum(s[2] - s[1] for s in tracer.spans[:setup_spans]
                if s[0] == "model_build"), "s")
        metrics["import_s"] = (import_s, "s")
        metrics["solve_s_traced"] = (
            statistics.median(r.solve_s for r in rounds), "s")
        tracer.uninstall()
        tracer.write(os.path.join(
            SCRATCH, f"spans-{args.workload}-seed{args.seed}.csv"))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s": (statistics.median(r.solve_s for r in rounds), "s"),
            "lo_steps": (rounds[0].steps, "count"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0, "MiB"),
        }
    counter.uninstall()
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
