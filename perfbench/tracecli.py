"""Run one ``infopay`` command with the span tracer installed.

Usage: python3 perfbench/tracecli.py SPANS_FILE [infopay arguments...]

The command's output and exit status are those of ``python -m infopay``;
its spans are written to SPANS_FILE for the parent benchmark process.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_file, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from infopay import cli

    try:
        return cli.main(args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
