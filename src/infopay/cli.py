"""Command line front end.

Subcommands: ``example`` (named worked instances), ``sweep-figure1``
(accuracy-sweep CSV), ``suite`` (randomized property suites), ``check``
(claims on instance files).  ``example all`` and ``suite all`` run every
example or suite and print a tally.  Each command imports the modules it
runs when it runs, so a sweep never loads the suites.  Exit status: 0 when
every check passes, 1 when a claim is violated, 2 on usage or parse errors
and on files that cannot be read or written.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InfopayError, InputError
from .numeric import check_tol, parse_exact, parse_float

__all__ = ["CLAIM_IDS", "build_parser", "main"]

CLAIM_IDS = ("invariants", "theorem1", "corollary2", "narrowing", "nearly-full")

_EXAMPLE_NUMBER_FLAGS = ("p1", "q1", "qi1", "qj1", "delta")


def _nonneg_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a real number: {text!r}") from exc
    try:
        return check_tol(value)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_shared(parser: argparse.ArgumentParser, suppress: bool) -> None:
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--mode", choices=("rational", "float"), default=default,
        help="arithmetic mode (default rational: exact fractions)",
    )
    parser.add_argument(
        "--tol", type=_nonneg_float, default=default, metavar="REAL",
        help="comparison tolerance for float mode",
    )


class _Parser(argparse.ArgumentParser):
    """A parser whose description may be a callable, called when help is
    formatted, so that only help imports the examples and suites to list
    their names."""

    def format_help(self) -> str:
        if callable(self.description):
            self.description = self.description()
        return super().format_help()


def _example_description() -> str:
    from .examples import EXAMPLE_NAMES

    return "Examples: " + ", ".join(EXAMPLE_NAMES) + "; 'all' runs each with its defaults"


def _suite_description() -> str:
    from .suites import SUITE_NAMES

    return "Suites: " + ", ".join(SUITE_NAMES) + "; 'all' runs each"


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(
        prog="infopay",
        description="Pay, pay gaps, and the value of information under "
        "misperceived skill distributions.",
    )
    _add_shared(root, suppress=False)
    sub = root.add_subparsers(dest="command", required=True, metavar="command")

    ex = sub.add_parser(
        "example",
        help="run a named worked instance and verify its closed forms",
        description=_example_description,
    )
    _add_shared(ex, suppress=True)
    ex.add_argument("name", metavar="name")
    for flag in _EXAMPLE_NUMBER_FLAGS:
        ex.add_argument(
            f"--{flag}", default=None, metavar="NUM",
            help=f"override the {flag} parameter (fraction or decimal)",
        )
    ex.add_argument("--trials", type=int, default=None, metavar="N")
    ex.add_argument("--seed", type=int, default=None, metavar="S")

    sw = sub.add_parser(
        "sweep-figure1",
        help="emit the accuracy-sweep CSV for the two-population showcase",
    )
    _add_shared(sw, suppress=True)
    sw.add_argument(  # the default is sweep.DEFAULT_GRID_SPEC, read in _cmd_sweep
        "--grid", default=None, metavar="a:b:step",
        help="accuracy grid inside [1/2, 1] (default 1/2:1:1/520)",
    )
    sw.add_argument(
        "--out", default=None, metavar="file.csv",
        help="write CSV here instead of stdout",
    )

    su = sub.add_parser(
        "suite", help="run a randomized property suite",
        description=_suite_description,
    )
    _add_shared(su, suppress=True)
    su.add_argument("name", metavar="name")
    su.add_argument("--trials", type=int, default=200, metavar="N")
    su.add_argument("--seed", type=int, default=0, metavar="S")

    ck = sub.add_parser(
        "check", help="check a claim against an instance file",
    )
    _add_shared(ck, suppress=True)
    ck.add_argument("instance_file", metavar="instance-file")
    ck.add_argument("--claim", required=True, choices=CLAIM_IDS, metavar="claim-id")
    ck.add_argument(
        "--eps", default=None, metavar="NUM",
        help="closeness-to-full-information bound (nearly-full only)",
    )
    return root


def _parse_number(text: str, mode: str):
    return parse_exact(text) if mode == "rational" else parse_float(text)


def _report_all(names, run, what: str) -> int:
    """Run every name, print each report and a tally; 1 if any failed."""
    failed = 0
    for name in names:
        report = run(name)
        print(report.render())
        print()
        failed += not report.ok
    print(f"{len(names) - failed}/{len(names)} {what} passed")
    return 1 if failed else 0


def _cmd_example(args, mode: str, tol) -> int:
    from .examples import EXAMPLE_NAMES, run_example

    overrides = {}
    for flag in _EXAMPLE_NUMBER_FLAGS:
        raw = getattr(args, flag)
        if raw is not None:
            overrides[flag] = _parse_number(raw, mode)
    for flag in ("trials", "seed"):
        raw = getattr(args, flag)
        if raw is not None:
            overrides[flag] = raw
    if args.name == "all":
        if overrides:
            raise InputError("parameter overrides need a single example name")
        return _report_all(
            EXAMPLE_NAMES, lambda name: run_example(name, mode=mode, tol=tol),
            "examples",
        )
    report = run_example(args.name, mode=mode, tol=tol, **overrides)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_sweep(args, mode: str, tol) -> int:
    from .sweep import DEFAULT_GRID_SPEC, run_figure1

    if tol is not None:  # the sweep compares nothing against a tolerance
        raise InputError("--tol does not apply to sweep-figure1")
    grid = DEFAULT_GRID_SPEC if args.grid is None else args.grid
    csv = run_figure1(grid, mode=mode)
    if args.out is None:
        sys.stdout.write(csv)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv)
    return 0


def _cmd_suite(args, mode: str, tol) -> int:
    from .suites import SUITE_NAMES, run_suite

    def run(name):
        return run_suite(name, trials=args.trials, seed=args.seed, mode=mode, tol=tol)

    if args.name == "all":
        return _report_all(SUITE_NAMES, run, "suites")
    result = run(args.name)
    print(result.render())
    return 0 if result.ok else 1


def _describe(obj, tol) -> list[str]:
    from .model import Firm, Population
    from .orders import perception_class

    if isinstance(obj, Firm):
        return [
            "kind: firm",
            f"tasks: {len(obj.tasks)}",
            f"types: {len(obj.tasks[0].surplus)}",
            f"monotone: {obj.is_monotone}",
        ]
    if isinstance(obj, Population):
        return [
            "kind: population",
            f"types: {obj.p.space.size}",
            f"signals: {obj.sig.n_signals}",
            f"perception class: {perception_class(obj.p, obj.q, tol).value}",
        ]
    return [
        "kind: scenario",
        f"types: {obj.p.space.size}",
        f"firm tasks: {len(obj.firm.tasks)}",
        f"monotone firm: {obj.firm.is_monotone}",
        f"coarse signals: {obj.coarse.n_signals}",
        f"fine signals: {obj.fine.n_signals}",
        f"favored perception class: {perception_class(obj.p, obj.q_i, tol).value}",
        f"other perception class: {perception_class(obj.p, obj.q_j, tol).value}",
    ]


def _need_scenario(obj, claim: str):
    from .discrimination import GapScenario

    if not isinstance(obj, GapScenario):
        raise InputError(f"claim {claim!r} needs a [scenario] instance file")
    return obj


def _cmd_check(args, mode: str, tol) -> int:
    from .decomposition import check_signs
    from .discrimination import check_gap_ranking, check_narrowing, check_nearly_full
    from .instancefile import load_instance

    obj = load_instance(args.instance_file, mode=mode)
    claim = args.claim
    if args.eps is not None and claim != "nearly-full":
        raise InputError("--eps applies only to the nearly-full claim")
    if claim == "invariants":
        lines, ok = _describe(obj, tol), True
    elif claim == "theorem1":
        s = _need_scenario(obj, claim)
        lines, ok = [], True
        for label, q in (("favored", s.q_i), ("other", s.q_j)):
            report = check_signs(s.firm, s.p, q, s.coarse, s.fine, tol=tol)
            ok = ok and report.ok
            lines.append(f"perception {label}:")
            lines += ["  " + line for line in report.summary().splitlines()]
    elif claim == "corollary2":
        s = _need_scenario(obj, claim)
        report = check_gap_ranking(
            s.firm, s.p, s.q_i, s.q_j, sig_i=s.fine, sig_j=s.coarse, tol=tol
        )
        lines, ok = report.summary().splitlines(), report.ok
    elif claim == "narrowing":
        report = check_narrowing(_need_scenario(obj, claim), tol=tol)
        lines, ok = report.summary().splitlines(), report.ok
    else:  # nearly-full
        s = _need_scenario(obj, claim)
        if args.eps is None:
            raise InputError("claim 'nearly-full' requires --eps")
        report = check_nearly_full(s, _parse_number(args.eps, mode), tol=tol)
        lines, ok = report.summary().splitlines(), report.ok
    print(f"claim: {claim}")
    for line in lines:
        print(line)
    print(f"result: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    mode = getattr(args, "mode", None) or "rational"
    tol = getattr(args, "tol", None)
    commands = {
        "example": _cmd_example,
        "sweep-figure1": _cmd_sweep,
        "suite": _cmd_suite,
        "check": _cmd_check,
    }
    try:
        return commands[args.command](args, mode, tol)
    except (OSError, InfopayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
