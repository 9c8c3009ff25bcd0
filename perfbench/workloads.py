"""The four benchmark workloads: inputs, timed loops and correctness gates.

Suite workloads call ``infopay.run_suite`` in this process.  A round
runs ``round_trials`` trials of every suite, split into calls of
``unit_trials``; call ``c`` of round ``r`` draws its instances from
suite seed ``seed * 10**7 + r * 100 + c``.  A run works through a cycle
of ``cycle_rounds`` rounds and repeats the cycle until ``--seconds``
have passed, so the instances a run checks depend on ``--seed`` alone,
never on how fast the host is.  theorem1 runs its round in one call: it
takes the LP-witness path on trials whose index is a multiple of 50 and
rotates its perception class with the index mod 3, so shorter calls
would change its mix.  ``cli-cold`` starts a fresh ``python -m infopay``
process per command; a pass runs the four commands in an order drawn
from the seed.

Host speed: on a shared virtual machine the same work can take twice
as long for a while.  Every timed unit (a ``run_suite`` call, a
command, a set-up probe) is therefore followed by a host-speed probe
that runs only benchmark code, and its time is reported in
reference-host seconds (see ``HostClock``).  The raw wall-clock figures
go into the run record.

Correctness: ``failed`` counts every operation whose output failed a
check: a suite claim check that found a counterexample, a float-mode
result that leaves the rational oracle by more than the documented
tolerance (the known tie defect at lambda = 4/5), a command that exits
non-zero or prints a wrong result.  Each distinct operation counts once
(a claim check on the cycle's first pass, a cli-cold command over all
its passes), so ``attempted`` and ``failed`` depend on ``--seed`` alone.
``correct`` turns false only when an output with a fixed oracle is
wrong: a render that changes between identical repeats, a rational
sweep CSV that is not byte-identical, a worked example or instance
check that does not pass, a failed exit.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
COMMAND_TIMEOUT_S = 60
# host-speed probes and what they take on the 2-vCPU Xeon VM this was tuned on
CAL_STEPS = 1000
REF_CAL_S = 0.0045
PROBE_CODE = (
    "from fractions import Fraction as F\n"
    "s = F(0)\n"
    "for i in range(1, 3000): s += F(1, i % 97 + 1)\n"
)
REF_PROBE_S = 0.09
SMOOTH_UNITS = 2  # host speed for a unit: the probes of two units either side too
# sha256 of the default rational sweep CSV (grid 1/2:1:1/520), which the
# package promises to keep byte-identical
SWEEP_SHA256 = "bb65654cb114765418b2152b2bf6c6cb7eb5d37f9edb69919afaf9d0c96c2b94"


@dataclass(frozen=True)
class SuiteWorkload:
    mode: str
    suites: tuple[str, ...]
    round_trials: int  # trials of each suite per round
    unit_trials: int  # trials per run_suite call, a timed unit of 10-100 ms
    cycle_rounds: int  # distinct rounds a run repeats, 10-15 s of work
    trace_rounds: int  # rounds per traced repeat, about 2 s of work

    def calls(self, suite: str) -> list[int]:
        """Trials of each call that makes up ``suite``'s share of a round."""
        if suite == "theorem1":
            return [self.round_trials]
        return [self.unit_trials] * (self.round_trials // self.unit_trials)


EXACT_SUITES = ("theorem1", "lemma1", "corollary1", "corollary2", "prop1", "prop3", "orders")
WORKLOADS = {
    "suites-exact": SuiteWorkload("rational", EXACT_SUITES, 50, 5, 7, 1),
    "garbling-exact": SuiteWorkload("rational", ("garbling",), 4, 4, 200, 20),
    "suites-float": SuiteWorkload("float", EXACT_SUITES + ("garbling",), 50, 10, 12, 2),
    "cli-cold": None,
}
TINY = {"round_trials": 2, "unit_trials": 1, "cycle_rounds": 1, "trace_rounds": 1}


@dataclass
class Tally:
    """Operations attempted and failed, and whether fixed-oracle outputs held."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)

    def record(self, ok: bool, oracle: bool, note: str) -> None:
        """Count one operation; a failure against a fixed oracle also
        clears ``correct``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if oracle:
                self.correct = False
            self.note(note)

    def note(self, text: str) -> None:
        if len(self.notes) < 10:
            self.notes.append(text)


def calibrate() -> float:
    """Seconds taken by a fixed loop of exact fraction sums (garbage
    collection paused), measuring how fast the host runs Python now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, CAL_STEPS):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class HostClock:
    """Times units of work in reference-host seconds.

    A host-speed probe runs before the first unit and after every unit.
    A unit's wall time is scaled by the probe's reference time over the
    mean of the probes from ``SMOOTH_UNITS`` units before it to
    ``SMOOTH_UNITS`` units after it.  One probe lasts a few milliseconds
    and catches the host's speed of that moment only; scaling each unit
    by its two neighbouring probes alone added that noise to every unit
    and widened the tail percentiles on a busy host.  The window still
    follows host speed changes that last a second or more.  In-process
    units use ``calibrate``; units that start a process use
    ``probe_process``, because process start-up slows differently from
    the interpreter loop.
    """

    def __init__(self, probe=calibrate, probe_ref_s: float = REF_CAL_S):
        self.probe = probe
        self.probe_ref_s = probe_ref_s
        self.wall: list[float] = []
        self.probe_s: list[float] = [self.probe()]

    def measure(self, fn, *args):
        """Return ``fn(*args)``, timing it as one unit."""
        t0 = time.perf_counter()
        result = fn(*args)
        self.wall.append(time.perf_counter() - t0)
        self.probe_s.append(self.probe())
        return result

    @property
    def ref(self) -> list[float]:
        """Each unit's time in reference-host seconds; unit ``i`` ran
        between probes ``i`` and ``i + 1``."""
        scaled = []
        for i, wall in enumerate(self.wall):
            window = self.probe_s[max(i - SMOOTH_UNITS, 0):i + SMOOTH_UNITS + 2]
            scaled.append(wall * self.probe_ref_s * len(window) / sum(window))
        return scaled

    def summary(self) -> dict:
        ref = self.ref
        return {
            "units": len(ref),
            "ref_s": quartiles(ref),
            "wall_s": quartiles(self.wall),
            "probe_s": quartiles(self.probe_s),
            "total_ref_s": sum(ref),
            "total_wall_s": sum(self.wall),
        }


def probe_process() -> float:
    """Seconds for a fresh interpreter to run ``PROBE_CODE``."""
    t0 = time.perf_counter()
    done = run_process([sys.executable, "-c", PROBE_CODE], "probe")
    seconds = time.perf_counter() - t0
    if done.status != 0:
        raise RuntimeError(f"host probe failed: {done.stderr.strip()[-200:]}")
    return seconds


def process_clock() -> HostClock:
    return HostClock(probe_process, REF_PROBE_S)


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def call_seed(seed: int, r: int, c: int = 0) -> int:
    return seed * 10**7 + r * 100 + c


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-len(ordered) * pct // 100)
    return ordered[max(int(rank), 1) - 1]


# -- set-up -------------------------------------------------------------------


def prepare(name: str, seed: int) -> dict:
    """Import the package and build the workload's inputs."""
    import infopay

    if name != "cli-cold":
        return {"package": infopay}  # calls look up the attribute, so the tracer sees them
    record = next(
        r for r in infopay.narrowing_counterexamples() if r.name == "kink-crossing"
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"kink-crossing-{seed}-{os.getpid()}.txt"
    path.write_text(infopay.serialize_instance(record.scenario), encoding="utf-8")
    return {"instance": path.relative_to(ROOT)}  # commands run from ROOT


def release(inputs: dict) -> None:
    path = inputs.get("instance")
    if path is not None:
        (ROOT / path).unlink(missing_ok=True)


@dataclass
class Finished:
    status: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_process(argv: list[str], tag: str) -> Finished:
    """Run ``argv`` from the repository root to completion and keep the
    child's own peak RSS."""
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{tag}-{os.getpid()}.out"
    err_path = OUT / f"{tag}-{os.getpid()}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=subprocess_env())
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Finished(proc.returncode, stdout, stderr, usage.ru_maxrss)


def measure_setup(workload: str, seed: int, repeats: int) -> HostClock:
    """Fresh interpreter to ``import infopay`` done and the workload's
    inputs built, once per repeat."""
    argv = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
            "--setup-only", "--workload", workload, "--seed", str(seed)]
    clock = process_clock()
    for _ in range(repeats):
        done = clock.measure(run_process, argv, "setup")
        if done.status != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
    return clock


def end_to_end_metrics(trials: int, clock: HostClock) -> dict:
    """Throughput over the timed units and their latency percentiles."""
    ref = clock.ref
    return {
        "trials_per_s": (trials / sum(ref), "trials/s"),
        "cmd_p50_ms": (statistics.median(ref) * 1000, "ms"),
        "cmd_p90_ms": (percentile(ref, 90) * 1000, "ms"),
    }


# -- suite workloads ----------------------------------------------------------


def _suite_round(spec: SuiteWorkload, package, seed: int, r: int, tally: Tally | None,
                 clock: HostClock | None, renders: dict | None = None) -> int:
    """Round ``r`` of every suite; return the trials completed.  With a
    tally, claim checks count as operations; with a clock, each call is
    one timed unit; with ``renders``, each call's render digest goes in."""
    trials = 0
    for suite in spec.suites:
        for c, n in enumerate(spec.calls(suite)):
            args = (suite, n, call_seed(seed, r, c), spec.mode)
            if clock is None:
                result = package.run_suite(*args)
            else:
                result = clock.measure(package.run_suite, *args)
            trials += result.trials
            if tally is not None:
                for claim in result.claims:
                    tally.attempted += claim.attempts
                    tally.failed += claim.failures
                    if claim.failures:
                        tally.note(f"{suite} suite seed {args[2]}, {n} trials: "
                                   f"claim {claim.name} failed")
            if renders is not None:
                renders[(suite, c)] = digest(result.render())
    return trials


def run_suite_workload(spec: SuiteWorkload, inputs: dict, seed: int,
                       seconds: float) -> tuple[dict, dict, Tally]:
    """Repeat the cycle of rounds until ``seconds`` have passed, and at
    least once.  Claim checks count on the first pass only; in rational
    mode every run of round 0 must render as the first did."""
    package = inputs["package"]
    rational = spec.mode == "rational"
    tally = Tally()
    clock, first, changed, trials = HostClock(), {}, set(), 0
    deadline = time.perf_counter() + seconds
    r = 0
    while r < spec.cycle_rounds or time.perf_counter() < deadline:
        k = r % spec.cycle_rounds
        renders = {} if rational and k == 0 else None
        trials += _suite_round(spec, package, seed, k,
                               tally if r < spec.cycle_rounds else None, clock, renders)
        if renders is not None:
            first = first or renders
            changed.update(key for key, d in renders.items() if first[key] != d)
        r += 1
    if rational:  # repeat round 0 once more, so a one-cycle run is checked too
        again = {}
        _suite_round(spec, package, seed, 0, None, None, again)
        changed.update(key for key, d in again.items() if first[key] != d)
        for key in first:
            tally.record(key not in changed, True, f"{key}: render changed on repeat")
    metrics = end_to_end_metrics(trials, clock)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    record = {
        "mode": spec.mode,
        "suites": list(spec.suites),
        "round_trials": spec.round_trials,
        "unit_trials": spec.unit_trials,
        "cycle_rounds": spec.cycle_rounds,
        "rounds": r,
        "trials": trials,
        "calls": clock.summary(),
        "wall_trials_per_s": trials / sum(clock.wall),
    }
    return metrics, record, tally


def trace_suite_workload(spec: SuiteWorkload, inputs: dict, seed: int, seconds: float,
                         tracer) -> tuple[list, list, list, Tally]:
    """Alternate untraced and traced runs of rounds ``0..trace_rounds-1``;
    return untraced and traced rates, traced span windows and tally.
    Claim checks count on the first run only."""
    package = inputs["package"]
    tally = Tally()
    plain, traced, windows = [], [], []
    deadline = time.perf_counter() + seconds
    while not windows or time.perf_counter() < deadline:
        for rates, on in ((plain, False), (traced, True)):
            clock = HostClock()
            if on:
                tracer.install()
            lo = len(tracer)
            try:
                counted = tally if not plain else None
                trials = sum(
                    _suite_round(spec, package, seed, r, counted, clock)
                    for r in range(spec.trace_rounds)
                )
            finally:
                if on:
                    tracer.uninstall()
            if on:
                windows.append((lo, len(tracer)))
            rates.append(trials / sum(clock.ref))
    return plain, traced, windows, tally


# -- cli-cold -----------------------------------------------------------------


def cli_commands(instance: Path) -> dict:
    return {
        "example": ["example", "ex1-reversal"],
        "check": ["check", str(instance), "--claim", "theorem1"],
        "sweep-rational": ["sweep-figure1"],
        "sweep-float": ["--mode", "float", "sweep-figure1"],
    }


def pass_order(seed: int, k: int) -> list[str]:
    order = ["example", "check", "sweep-rational", "sweep-float"]
    random.Random(call_seed(seed, k)).shuffle(order)
    return order


def float_sweep_mismatches(float_csv: str, rational_csv: str, tol: float) -> list[str]:
    """Lambdas of the rows where the float sweep leaves the rational one:
    a value off by more than ``tol`` or a different assignment column."""
    f_rows = list(csv.reader(io.StringIO(float_csv)))
    r_rows = list(csv.reader(io.StringIO(rational_csv)))
    if len(f_rows) != len(r_rows) or not f_rows or f_rows[0] != r_rows[0]:
        return ["shape"]
    bad = []
    for f_row, r_row in zip(f_rows[1:], r_rows[1:]):
        try:
            values_ok = all(
                abs(float(f) - float(Fraction(r))) <= tol
                for f, r in zip(f_row[:4], r_row[:4])
            )
        except ValueError:
            values_ok = False
        if not values_ok or f_row[4:] != r_row[4:]:
            bad.append(r_row[0])
    return bad


class CliChecker:
    """Correctness gate for the four cli-cold commands.  Each command is
    one operation, whatever the number of passes: it fails if any of its
    runs failed, and ``finish`` counts it into the tally."""

    def __init__(self, tally: Tally):
        from infopay.numeric import DEFAULT_TOL

        self.tally = tally
        self.tol = DEFAULT_TOL
        self.first: dict[str, str] = {}
        self.float_mismatch_rows: list[str] = []
        self.verdicts: dict[str, tuple[bool, bool, str]] = {}  # ok, oracle, note

    def _judge(self, cmd: str, ok: bool, oracle: bool, note: str) -> None:
        was_ok, was_oracle, first_note = self.verdicts.get(cmd, (True, False, ""))
        if ok:
            self.verdicts[cmd] = (was_ok, was_oracle, first_note)
        else:
            self.verdicts[cmd] = (False, was_oracle or oracle, first_note or note)

    def check_pass(self, results: dict[str, Finished], k: int) -> None:
        for cmd, done in results.items():
            if done.status != 0:
                self._judge(cmd, False, True, f"{cmd} pass {k}: exit {done.status}: "
                            + done.stderr.strip()[-200:])
            elif cmd == "sweep-rational":
                self._judge(cmd, digest(done.stdout) == SWEEP_SHA256, True,
                            f"pass {k}: rational sweep CSV changed")
            elif cmd == "sweep-float":
                bad = float_sweep_mismatches(
                    done.stdout, results["sweep-rational"].stdout, self.tol
                )
                self.float_mismatch_rows = bad
                self._judge(cmd, not bad, False,
                            f"pass {k}: float sweep leaves rational at lambda {bad}")
            else:
                stable = self.first.setdefault(cmd, digest(done.stdout)) == digest(done.stdout)
                passed = done.stdout.rstrip().endswith("result: PASS")
                self._judge(cmd, stable and passed, True,
                            f"{cmd} pass {k}: PASS={passed}, same output={stable}")

    def finish(self) -> None:
        for cmd in sorted(self.verdicts):
            ok, oracle, note = self.verdicts[cmd]
            self.tally.record(ok, oracle, note)


def module_launcher(cmd: str, args: list[str]) -> Finished:
    return run_process([sys.executable, "-m", "infopay", *args], cmd)


def _cli_pass(commands: dict, order: list[str], launcher, clock: HostClock) -> dict:
    return {cmd: clock.measure(launcher, cmd, commands[cmd]) for cmd in order}


def run_cli_workload(inputs: dict, seed: int, seconds: float) -> tuple[dict, dict, Tally]:
    commands = cli_commands(inputs["instance"])
    tally = Tally()
    checker = CliChecker(tally)
    clock, rss_kb = process_clock(), []
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        results = _cli_pass(commands, pass_order(seed, k), module_launcher, clock)
        rss_kb.extend(done.maxrss_kb for done in results.values())
        checker.check_pass(results, k)
        k += 1
    checker.finish()
    metrics = end_to_end_metrics(len(clock.wall), clock)
    metrics["peak_rss_mb"] = (max(rss_kb) / 1024, "MB")
    record = {
        "mode": "rational and float",
        "commands": {c: " ".join(a) for c, a in commands.items()},
        "passes": k,
        "calls": clock.summary(),
        "wall_trials_per_s": len(clock.wall) / sum(clock.wall),
        "float_sweep_mismatch_lambdas": checker.float_mismatch_rows,
    }
    return metrics, record, tally


def trace_cli_workload(inputs: dict, seed: int, seconds: float,
                       tracer) -> tuple[list, list, list, Tally]:
    """Alternate untraced and traced runs of pass 0's commands; traced
    commands run under ``tracecli.py`` and hand their spans back."""
    commands = cli_commands(inputs["instance"])
    order = pass_order(seed, 0)
    tally = Tally()
    checker = CliChecker(tally)
    tracecli = str(Path(__file__).resolve().parent / "tracecli.py")

    def traced_launcher(cmd: str, args: list[str]) -> Finished:
        spans = OUT / f"spans-{cmd}-{os.getpid()}.json"
        done = run_process([sys.executable, tracecli, str(spans), *args], cmd)
        if spans.exists():
            with open(spans, encoding="utf-8") as fh:
                tracer.extend(json.load(fh))
            spans.unlink()
        return done

    plain, traced, windows = [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while not windows or time.perf_counter() < deadline:
        for rates, launcher in ((plain, module_launcher), (traced, traced_launcher)):
            lo = len(tracer)
            clock = process_clock()
            results = _cli_pass(commands, order, launcher, clock)
            rates.append(len(results) / sum(clock.ref))
            checker.check_pass(results, k)
            k += 1
            if launcher is traced_launcher:
                windows.append((lo, len(tracer)))
    checker.finish()
    return plain, traced, windows, tally


def import_times_ms(repeats: int) -> dict:
    """Median cumulative import time of numpy and infopay reported by
    ``python -X importtime -c 'import infopay'`` (0 when not imported)."""
    found = {"numpy": [], "infopay": []}
    for _ in range(repeats):
        done = run_process([sys.executable, "-X", "importtime", "-c", "import infopay"],
                           "importtime")
        if done.status != 0:
            raise RuntimeError(f"import infopay failed: {done.stderr.strip()[-200:]}")
        seen = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                seen[parts[2].strip()] = int(parts[1]) / 1000
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in found.items()}
