"""Accuracy sweep: endpoints, kink locations, exact CSV output."""

from fractions import Fraction

import pytest

from infopay.errors import InputError
from infopay.model import binary_symmetric_structure, pay_table
from infopay import sweep
from infopay.numeric import DEFAULT_TOL
from infopay.sweep import (
    DEFAULT_GRID_SPEC,
    FIGURE1_COLUMNS,
    figure1_instance,
    figure1_rows,
    parse_grid,
    rows_to_csv,
    run_figure1,
)

KINK_I = Fraction(9, 13)  # favored population, low signal
KINK_J = Fraction(4, 5)  # disfavored population, high signal
STEP = Fraction(1, 520)


def test_parse_grid():
    grid = parse_grid("1/2:1:1/520")
    assert grid[0] == Fraction(1, 2)
    assert grid[-1] == Fraction(1)
    assert len(grid) == 261
    assert grid[1] - grid[0] == STEP
    assert KINK_I in grid and KINK_J in grid
    assert parse_grid("0.75:0.75:1/10") == (Fraction(3, 4),)


@pytest.mark.parametrize(
    "text",
    ["1/2:1", "1/2:1:0", "1/2:1:-1/10", "1:1/2:1/10", "0:1:1/10", "1/2:2:1/10",
     "a:b:c"],
)
def test_parse_grid_rejects(text):
    with pytest.raises(InputError):
        parse_grid(text)


def test_parse_grid_caps_the_point_count(monkeypatch):
    # the default grid's 261 points sit exactly at a cap of 261
    monkeypatch.setattr(sweep, "MAX_GRID_POINTS", 261)
    assert len(parse_grid(DEFAULT_GRID_SPEC)) == 261
    monkeypatch.setattr(sweep, "MAX_GRID_POINTS", 260)
    with pytest.raises(InputError, match="has more than 260 points"):
        parse_grid(DEFAULT_GRID_SPEC)


def test_endpoint_rows():
    rows = figure1_rows([Fraction(1, 2), Fraction(1)])
    lo, hi = rows
    assert (lo.w_i, lo.w_j, lo.gap) == (2, Fraction(1, 4), Fraction(7, 4))
    assert (hi.w_i, hi.w_j, hi.gap) == (2, 2, 0)


def test_assignment_switch_points_exact():
    rows = figure1_rows(parse_grid(DEFAULT_GRID_SPEC))
    flips_i = [r.accuracy for r in rows if r.task_i_s0 == 0]
    assert flips_i[0] == KINK_I  # steep task below, tie resolved flat here
    assert all(r.task_i_s0 == 1 for r in rows if r.accuracy < KINK_I)
    flips_j = [r.accuracy for r in rows if r.task_j_s1 == 1]
    assert flips_j[0] == KINK_J + STEP  # tie at the kink resolves to the flat task
    assert all(r.task_j_s1 == 0 for r in rows if r.accuracy <= KINK_J)
    # the other two assignment columns never move on [1/2, 1]
    assert all(r.task_i_s1 == 1 and r.task_j_s0 == 0 for r in rows)


def ties_at(firm, q, lam, label):
    sig = binary_symmetric_structure(q.space, lam)
    return pay_table(firm, q, q, sig).rows[sig.index(label)].ties


def test_kinks_are_exact_ties():
    firm, _, q_i, q_j = figure1_instance()
    assert ties_at(firm, q_i, KINK_I, "s0") == [0, 1]
    assert ties_at(firm, q_j, KINK_J, "s1") == [0, 1]
    # one step to either side the tie disappears
    for lam, q, label in (
        (KINK_I - STEP, q_i, "s0"), (KINK_I + STEP, q_i, "s0"),
        (KINK_J - STEP, q_j, "s1"), (KINK_J + STEP, q_j, "s1"),
    ):
        assert len(ties_at(firm, q, lam, label)) == 1


def test_gap_values_frozen():
    rows = figure1_rows(
        [KINK_I, KINK_J, Fraction(79, 100), Fraction(81, 100)]
    )
    by_acc = {r.accuracy: r.gap for r in rows}
    assert by_acc[KINK_I] == Fraction(647, 434)
    assert by_acc[KINK_J] == Fraction(144, 91)
    assert by_acc[Fraction(79, 100)] == Fraction(19263, 12212)
    assert by_acc[Fraction(81, 100)] == Fraction(4617, 3013)
    # the gap peaks at the disfavored population's kink
    assert by_acc[KINK_J] > by_acc[KINK_I]


def test_csv_shape_and_reproducibility():
    csv = run_figure1()
    assert csv == run_figure1()
    lines = csv.splitlines()
    assert lines[0] == ",".join(FIGURE1_COLUMNS)
    assert len(lines) == 262
    assert lines[1] == "1/2,2,1/4,7/4,1,1,0,0"
    assert lines[-1] == "1,2,2,0,0,1,0,1"
    assert csv.endswith("\n") and "\r" not in csv


def test_rows_sorted_by_accuracy():
    rows = figure1_rows([Fraction(1), Fraction(1, 2), Fraction(3, 4)])
    assert [r.accuracy for r in rows] == [
        Fraction(1, 2), Fraction(3, 4), Fraction(1)
    ]


def test_float_mode_close_to_exact():
    rows = figure1_rows([Fraction(1, 2), Fraction(7, 10)], mode="float")
    assert abs(rows[0].gap - 1.75) < 1e-12
    exact = figure1_rows([Fraction(7, 10)])[0]
    assert abs(rows[1].gap - float(exact.gap)) < 1e-12
    csv = rows_to_csv(rows)
    assert csv.splitlines()[1].startswith("0.5,2.0,0.25,1.75,")


def test_float_sweep_matches_rational_on_default_grid():
    # float ties at the kinks must resolve as the exact ones do
    grid = parse_grid(DEFAULT_GRID_SPEC)
    for exact, approx in zip(figure1_rows(grid), figure1_rows(grid, mode="float")):
        assert exact.cells()[4:] == approx.cells()[4:], exact.accuracy
        for a, b in zip(
            (exact.accuracy, exact.w_i, exact.w_j, exact.gap),
            (approx.accuracy, approx.w_i, approx.w_j, approx.gap),
        ):
            assert abs(a - b) <= DEFAULT_TOL, exact.accuracy


def test_out_of_range_grid_rejected():
    with pytest.raises(InputError):
        figure1_rows([Fraction(1, 4)])
    with pytest.raises(InputError):
        figure1_rows([Fraction(11, 10)])
