"""Comparison-flip mutation check for modules of the package.

Usage, from the repository root::

    python tests/mutants.py src/infopay/decomposition.py src/infopay/orders.py
    python tests/mutants.py --suites src/infopay/model.py

For each module given, every comparison operator is flipped one at a
time (``<`` with ``<=``, ``>`` with ``>=``, ``==`` with ``!=``) in a
temporary copy of the tree (``src/``, ``tests/``, ``pyproject.toml`` and
``README.md``).
Each mutant first meets a fast subset, ``tests/test_<module>.py`` when
that file exists, and a mutant that survives it meets the full tier-1
suite.  A mutant is killed when the set of failing tests
differs from the set the unmutated copy fails, so a test that fails by
design (criterion 7) stays in both runs and is never deselected.  A
mutant that runs past three times the baseline's time (plus a minute)
counts as killed too.  The exit status is 1 when some mutant survives.

``--suites`` measures the suites instead of the tests: each mutant runs
all nine suites (100 trials, seed 1, both modes) and no test, and is
killed when the renders differ from the unmutated copy's ("claim" when
some claim then fails, "render" when only counts or texts differ), when
the run raises, or when it passes the same timeout.  Mutants run one at
a time in either mode.

Pytest does not collect this file (its name does not start with
``test_``), as with ``joint_law.py``.

Known equivalent mutants, which no test can kill:

* ``orders.separating_signal_structure``: ``0 <= idx_lo < n`` flipped to
  ``0 <= idx_lo <= n``.  The index ``idx_lo = n`` still fails, because
  ``idx_hi < n`` and ``idx_lo < idx_hi`` are checked too.
* ``orders.separating_signal_structure``: ``0 <= idx_hi`` flipped to
  ``0 < idx_hi``.  The index ``idx_hi = 0`` still fails, because
  ``0 <= idx_lo`` and ``idx_lo < idx_hi`` are checked too.
* ``simplex``, the ratio-test tie rule of both loops: ``basis[i] <
  basis[leave]`` flipped to ``<=``.  Two rows never hold the same basic
  variable, so the two sides are never equal.  (The exact loop's first
  candidate beats its starting ratio ``1 / 0`` outright, so the tie rule
  never reads ``basis[-1]``.)
* ``simplex``, Bland's slot scan of both loops: ``var < enter`` flipped
  to ``<=``.  The slots hold distinct variables and ``enter`` starts at
  ``n + m``, which no slot holds, so the two sides are never equal.
* ``garbling.within_eps_of_full``: ``eps > 0`` flipped to ``eps >= 0``
  after ``math.isinf(eps)``.  An infinite ``eps`` is never 0.
* ``garbling.within_eps_of_full``: ``col[star] > 0`` flipped to ``>=``.
  A zero entry passes as the dominant one only when every other entry
  of the column is at most the pad (0 on exact input, ``tol`` times 1 on
  float input).  No signal has zero likelihood everywhere, so the
  column's largest entry is positive, and it then passes as well: the
  verdict is the same.
* ``suites._judge_prop2``: ``report.gap_change > slack`` flipped to
  ``>=`` after ``not report.star_holds``.  ``star_holds`` is
  ``gap_fine <= gap_coarse + slack``, so on exact input its negation
  already means ``gap_change > slack``; on float input the two sides
  differ only if ``gap_fine - gap_coarse`` rounds to exactly the slack
  while ``gap_coarse + slack`` rounds below ``gap_fine``.
* ``examples``: ``res.total < 0`` (ex1-reversal) and ``total_gap < 0``
  (ex1-disc) flipped to ``<=``.  Each check is made only when the
  perception exceeds the truth by more than the equality slack, so the
  total is ``p1 - q1`` (or ``p1 - qj1``) below 0: exactly on exact
  input, and by more than the slack, up to rounding, on float input.
  Only a float run at ``tol = 0`` could meet a total of 0 there, and at
  that tolerance every closed-form check compares floats with no slack.
"""

from __future__ import annotations

import argparse
import ast
import functools
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FLIP = {
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
}
ROOT = Path(__file__).resolve().parents[1]


def _offset(line_starts: list[int], lineno: int, col: int) -> int:
    return line_starts[lineno - 1] + col


def mutants(source: bytes) -> list[tuple[int, int, int, str, str]]:
    """(byte offset, line, column, operator, replacement) per comparison.

    The operator is the only run of ``<>=!`` between its two operands
    once comments are blanked out (ast column offsets are in bytes).
    """
    line_starts = [0]
    for line in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if type(op) not in FLIP:
                continue
            old, new = FLIP[type(op)]
            lo = _offset(line_starts, left.end_lineno, left.end_col_offset)
            hi = _offset(line_starts, right.lineno, right.col_offset)
            gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), source[lo:hi])
            at = lo + re.search(rb"[<>=!]+", gap).start()
            assert source[at:at + len(old)].decode() == old, (node.lineno, old)
            line = source.count(b"\n", 0, at) + 1
            found.append((at, line, at - line_starts[line - 1], old, new))
    return sorted(found)


def failing_tests(tree: Path, tests: list[str], timeout: float | None):
    """(failing test ids, seconds), or (None, seconds) on a timeout."""
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", *tests,
    ]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    try:
        out = subprocess.run(
            cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=timeout
        ).stdout
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    failed = set(re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out, re.M))
    if " passed" not in out and not failed:  # no summary at all: treat as broken
        failed = {"<no test summary>"}
    return failed, time.perf_counter() - start


def _kill(tree: Path, tests: list[str], base, timeout: float, label: str):
    """The verdict on a mutant run, or None when it fails what ``base`` fails."""
    failed, _ = failing_tests(tree, tests, timeout)
    if failed is None:
        return "killed (timeout)"
    return f"killed ({label})" if failed != base else None


SUITE_RUN = """
from infopay.suites import SUITE_NAMES, run_suite
for mode in ("rational", "float"):
    for name in SUITE_NAMES:
        print(run_suite(name, trials=100, seed=1, mode=mode).render())
"""


def suite_renders(tree: Path, timeout: float | None):
    """((exit status, renders), seconds) of one run of every suite, or
    (None, seconds) on a timeout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-c", SUITE_RUN], cwd=tree, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    return (done.returncode, done.stdout), time.perf_counter() - start


def _suite_kill(tree: Path, base, timeout: float):
    """The verdict on a mutant's suite run, or None when it renders ``base``."""
    got, _ = suite_renders(tree, timeout)
    if got is None:
        return "killed (timeout)"
    if got[0] != 0:
        return "killed (raised)"
    if got != base:
        return "killed (claim)" if "result: FAIL" in got[1] else "killed (render)"
    return None


def _test_judge(tree: Path, rel: Path, full_base, full_timeout: float):
    """The tests' verdict on a mutant of ``rel``: the fast subset first,
    then tier-1."""
    guess = Path("tests") / f"test_{rel.stem}.py"
    fast = [str(guess)] if (tree / guess).exists() else []
    fast_base, fast_secs = failing_tests(tree, fast, None) if fast else (None, 0)

    def judge():
        verdict = fast and _kill(tree, fast, fast_base, 3 * fast_secs + 60, "fast")
        return verdict or _kill(tree, [], full_base, full_timeout, "tier-1")
    return judge


def audit(tree: Path, rel: Path, judge) -> int:
    """Run every mutant of the module at ``tree / rel`` past ``judge()``,
    which gives a verdict or None; the survivor count."""
    target = tree / rel
    original = target.read_bytes()
    found = mutants(original)
    survivors = 0
    for at, line, col, old, new in found:
        target.write_bytes(original[:at] + new.encode() + original[at + len(old):])
        try:
            verdict = judge()
        finally:
            target.write_bytes(original)
        verdict = verdict or "SURVIVED"
        survivors += verdict == "SURVIVED"
        text = original.splitlines()[line - 1].decode().strip()
        print(f"{rel}:{line}:{col}: {old} -> {new}: {verdict}    {text}")
    print(f"{rel}: {len(found)} mutants, {survivors} survived")
    return survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="source files to mutate")
    parser.add_argument(
        "--suites", action="store_true", help="kill by suite renders, not tests"
    )
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)

    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, tree / sub, ignore=skip)
        for name in ("pyproject.toml", "README.md"):  # a test reads README's samples
            shutil.copy(ROOT / name, tree / name)
        if args.suites:
            base, secs = suite_renders(tree, None)
            print(f"baseline suites: exit {base[0]}, {secs:.0f} s")
        else:
            full_base, full_secs = failing_tests(tree, [], None)
            print(f"baseline tier-1: {sorted(full_base)} fail, {full_secs:.0f} s")
        for module in args.modules:
            rel = Path(module).resolve().relative_to(ROOT)
            if args.suites:
                judge = functools.partial(_suite_kill, tree, base, 3 * secs + 60)
            else:
                judge = _test_judge(tree, rel, full_base, 3 * full_secs + 60)
            survivors += audit(tree, rel, judge)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
