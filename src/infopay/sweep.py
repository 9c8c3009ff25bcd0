"""Accuracy sweep for the two-population showcase instance.

Both populations share a uniform binary skill distribution but are
perceived differently (favored 3/4, disfavored 1/4 on the high type)
and observed through a binary symmetric structure of accuracy lambda.
The firm holds a flat task and a steep one, so task assignment kinks as
lambda crosses the posterior tie points.  Rows carry the assignment
columns so the kinks are visible in the data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InputError
from .model import (
    Dist,
    Firm,
    SkillSpace,
    Task,
    binary_symmetric_structure,
    pay_table,
    table_pay,
    twin,
)
from .numeric import Number, check_mode, format_number, parse_exact

__all__ = [
    "FIGURE1_COLUMNS",
    "DEFAULT_GRID_SPEC",
    "SweepRow",
    "figure1_instance",
    "parse_grid",
    "figure1_rows",
    "rows_to_csv",
    "run_figure1",
]

FIGURE1_COLUMNS = (
    "λ", "W_I", "W_J", "gap",
    "task_I_s0", "task_I_s1", "task_J_s0", "task_J_s1",
)

DEFAULT_GRID_SPEC = "1/2:1:1/520"
MAX_GRID_POINTS = 10**6


class SweepRow(NamedTuple):
    accuracy: Number
    w_i: Number
    w_j: Number
    gap: Number
    task_i_s0: int
    task_i_s1: int
    task_j_s0: int
    task_j_s1: int

    def cells(self) -> tuple[str, ...]:
        return (
            format_number(self.accuracy),
            format_number(self.w_i),
            format_number(self.w_j),
            format_number(self.gap),
            str(self.task_i_s0),
            str(self.task_i_s1),
            str(self.task_j_s0),
            str(self.task_j_s1),
        )


def figure1_instance() -> tuple[Firm, Dist, Dist, Dist]:
    """(firm, p, q_i, q_j): flat and steep tasks, uniform truth,
    favored/disfavored perceptions."""
    space = SkillSpace((0, 1))
    firm = Firm((Task((0, 1)), Task((-4, 4))))
    p = Dist(space, (Fraction(1, 2), Fraction(1, 2)))
    q_i = Dist(space, (Fraction(1, 4), Fraction(3, 4)))
    q_j = Dist(space, (Fraction(3, 4), Fraction(1, 4)))
    return firm, p, q_i, q_j


def parse_grid(text: str) -> tuple[Fraction, ...]:
    """Evenly spaced accuracies from "start:stop:step", exact, inside
    [1/2, 1]; at most ``MAX_GRID_POINTS`` of them, counted first."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid must read start:stop:step, got {text!r}")
    try:
        start, stop, step = (parse_exact(part) for part in parts)
    except InputError as exc:
        raise InputError(f"bad grid {text!r}: {exc}") from exc
    if step <= 0:
        raise InputError("grid step must be positive")
    if start > stop:
        raise InputError("grid start exceeds stop")
    if start < Fraction(1, 2) or stop > 1:
        raise InputError("accuracy grid must stay within [1/2, 1]")
    count = (stop - start) // step + 1
    if count > MAX_GRID_POINTS:
        raise InputError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return tuple(start + k * step for k in range(count))


def figure1_rows(
    grid: Sequence[Number], mode: str = "rational"
) -> tuple[SweepRow, ...]:
    check_mode(mode)
    firm, p, q_i, q_j = figure1_instance()
    space = p.space
    if mode == "float":
        firm, p, q_i, q_j = twin((firm, p, q_i, q_j))
        space = p.space
    rows = []
    for lam in sorted(grid):
        if not Fraction(1, 2) <= lam <= 1:
            raise InputError("accuracy grid must stay within [1/2, 1]")
        lam_m = float(lam) if mode == "float" else Fraction(lam)
        sig = binary_symmetric_structure(space, lam_m)
        table_i = pay_table(firm, p, q_i, sig)
        table_j = pay_table(firm, p, q_j, sig)
        w_i, w_j = table_pay(table_i), table_pay(table_j)
        rows.append(
            SweepRow(
                accuracy=lam_m,
                w_i=w_i,
                w_j=w_j,
                gap=w_i - w_j,
                task_i_s0=table_i.rows[0].task,
                task_i_s1=table_i.rows[1].task,
                task_j_s0=table_j.rows[0].task,
                task_j_s1=table_j.rows[1].task,
            )
        )
    return tuple(rows)


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [",".join(FIGURE1_COLUMNS)]
    lines.extend(",".join(row.cells()) for row in rows)
    return "\n".join(lines) + "\n"


def run_figure1(grid_spec: str = DEFAULT_GRID_SPEC, mode: str = "rational") -> str:
    """CSV text for the sweep; exact fractions make it bit-reproducible
    in rational mode."""
    return rows_to_csv(figure1_rows(parse_grid(grid_spec), mode=mode))
