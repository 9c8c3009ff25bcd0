"""infopay benchmark: one workload, one seed, one timed run.

Usage (from the repository root):

    python3 perfbench/run.py --workload suites-exact --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer metrics from the span tracer.  The last line of
standard output is the result object; the line before it is the run
record (versions, machine, workload settings, spreads).  See README.md
for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import json
import os
import platform
import statistics
import sys
import time

import workloads as wl

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # --tiny shrinks every size for the self-test; --setup-only is the
    # set-up probe this script runs in fresh interpreters
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def end_to_end(args, spec, inputs):
    if spec is None:
        return wl.run_cli_workload(inputs, args.seed, args.seconds)
    return wl.run_suite_workload(spec, inputs, args.seed, args.seconds)


def per_layer(args, spec, inputs):
    from tracer import COUNTERS, LAYERS, Tracer

    tracer = Tracer()
    if spec is None:
        plain, traced, windows, tally = wl.trace_cli_workload(
            inputs, args.seed, args.seconds, tracer
        )
    else:
        plain, traced, windows, tally = wl.trace_suite_workload(
            spec, inputs, args.seed, args.seconds, tracer
        )
    totals = [tracer.layer_totals(lo, hi) for lo, hi in windows]
    counts = [
        ({layer: t[layer]["calls"] for layer in LAYERS}, {c: t[c] for c in COUNTERS})
        for t in totals
    ]
    if any(c != counts[0] for c in counts):
        tally.correct = False
        tally.note("traced counts differ between identical repeats")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (totals[0][layer]["calls"], "count")
        for key in ("busy_s", "self_s"):
            metrics[f"{layer}.{key}"] = (
                statistics.median(t[layer][key] for t in totals), "s"
            )
    for name in COUNTERS:
        unit = "count" if name.endswith("lp_cells") else "bits"
        metrics[name] = (totals[0][name], unit)
    imports = wl.import_times_ms(1 if args.tiny else IMPORTTIME_REPEATS)
    metrics["import.numpy_ms"] = (imports["numpy"], "ms")
    metrics["import.infopay_ms"] = (imports["infopay"], "ms")
    metrics["trace.delta_trials_per_s"] = (
        statistics.median(traced) - statistics.median(plain), "trials/s"
    )
    spans_file = wl.OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(str(spans_file))
    record = {
        "traced_repeats": len(windows),
        "untraced_rate": wl.quartiles(plain),
        "traced_rate": wl.quartiles(traced),
        "spans": len(tracer),
        "spans_file": str(spans_file.relative_to(wl.ROOT)),
    }
    return metrics, record, tally


def versions() -> dict:
    import infopay
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "infopay": infopay.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (wl.SRC / "infopay" / "__init__.py").is_file():
        print(f"error: no infopay sources under {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    # one CPU for this process and its children: calibration and the
    # timed work then share it, and runs do not migrate between CPUs
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    spec = wl.WORKLOADS[args.workload]
    if spec is not None and args.tiny:
        spec = dataclasses.replace(spec, **wl.TINY)
    if args.setup_only:
        wl.release(wl.prepare(args.workload, args.seed))
        return 0

    compileall.compile_dir(str(wl.SRC), quiet=1)  # the build: bytecode for every run
    setup = wl.measure_setup(args.workload, args.seed, 1 if args.tiny else SETUP_REPEATS)
    inputs = wl.prepare(args.workload, args.seed)
    try:
        started = time.perf_counter()
        if args.trace:
            metrics, record, tally = per_layer(args, spec, inputs)
        else:
            metrics, record, tally = end_to_end(args, spec, inputs)
            metrics["setup_s"] = (statistics.median(setup.ref), "s")
        elapsed = time.perf_counter() - started
    finally:
        wl.release(inputs)

    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **versions(),
        "pinned_cpu": cpu,
        "setup": setup.summary(),
        "reference_calibration_s": wl.REF_CAL_S,
        "measured_s": elapsed,
        **record,
        "failure_notes": tally.notes,
    }
    print(json.dumps({"record": run_record}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
