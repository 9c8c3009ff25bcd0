"""Self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload of BENCHMARK.json at a tiny size, untraced and
traced, and checks that each result line carries exactly the metrics
BENCHMARK.json names, with their units.  It checks that the installed
tracer leaves no ``infopay`` module holding an unwrapped traced
function, that ``attempted`` and ``failed`` do not change with
``--seconds``, and that the benchmark refuses to run without the
package sources.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result(line: str, expected: dict[str, str], where: str) -> dict:
    result = json.loads(line)
    assert set(result) == RESULT_KEYS, f"{where}: keys {sorted(result)}"
    assert isinstance(result["correct"], bool), where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and 0 <= result["failed"], where
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected, f"{where}: metrics differ: {set(units) ^ set(expected)}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, f"{where}: {name}"
        value = m["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name}"
    return result


def check_workloads(spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            where = f"{workload} --trace {trace}"
            done = run_benchmark(ROOT, "--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace), "--tiny")
            assert done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}"
            lines = done.stdout.splitlines()
            assert "record" in json.loads(lines[-2]), f"{where}: no run record"
            result = check_result(lines[-1], expected, where)
            assert result["correct"], f"{where}: {lines[-2]}"
            print(f"ok  {where}: {len(result['metrics'])} metrics")


def check_counts_steady() -> None:
    """``attempted`` and ``failed`` depend on the seed, not on how long
    a run lasts or how fast the host is."""
    for workload in ("suites-float", "cli-cold"):
        counts = []
        for seconds in ("0.1", "3"):
            done = run_benchmark(ROOT, "--workload", workload, "--seed", "1",
                                 "--seconds", seconds, "--trace", "0", "--tiny")
            assert done.returncode == 0, f"{workload}: exit {done.returncode}\n{done.stderr}"
            result = json.loads(done.stdout.splitlines()[-1])
            counts.append((result["attempted"], result["failed"]))
        assert counts[0] == counts[1], f"{workload}: counts change with --seconds: {counts}"
        print(f"ok  {workload}: attempted and failed do not depend on --seconds")


def check_tracer() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import infopay
    from tracer import Tracer, package_modules, traced_targets, unwrapped_leftovers

    functions, classes = traced_targets()
    tracer = Tracer()
    tracer.install()
    try:
        missed = unwrapped_leftovers()
        assert not missed, f"unwrapped after install: {missed}"
        infopay.run_suite("garbling", trials=1, seed=0)
        infopay.run_suite("theorem1", trials=1, seed=0, mode="float")
        totals = tracer.layer_totals()
        for layer in ("suites.run_suite", "simplex.feasible_point", "model.to_float",
                      "generators", "decomposition", "garbling.kernel_reproduces"):
            assert totals[layer]["calls"] > 0, f"no spans for {layer}"
    finally:
        tracer.uninstall()
    for module in package_modules():
        for name, value in vars(module).items():
            assert getattr(value, "__wrapped__", None) is None, f"{module.__name__}.{name}"
    for cls in classes:
        assert getattr(cls.to_float, "__wrapped__", None) is None, cls.__qualname__
    print(f"ok  tracer: {len(functions)} functions and {len(classes)} to_float "
          f"methods wrapped, none missed, all restored")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark(bare, "--workload", "cli-cold", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        assert done.returncode != 0 and not done.stdout, "ran without sources"
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without the package sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_tracer()
    check_refuses_without_sources()
    check_workloads(spec)
    check_counts_steady()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
