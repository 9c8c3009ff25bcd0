"""Phase-1 simplex: verdicts, witnesses and value types.

Both loops pivot the condensed tableau (nonbasic columns only) with its
phase-1 cost row.  ``find_garbling`` is their one caller in the package
and writes that program itself; here each loop runs on the program
``fraction_simplex.condensed`` builds from a general dense program.  The
exact loop gets programs cleared of denominators by
``clear_denominators``, one global scale that changes no pivot, and its
``(num, den)`` pairs are read as Fractions.  The full Fraction tableau
loop it replaced is the oracle (``fraction_simplex``): they must return
the same witness, element by element and type by type.  The float loop,
``feasible_point``, is checked at its epsilon and tolerance boundaries.
"""

import math
from fractions import Fraction as F
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraction_simplex import condensed, fraction_feasible_point, fraction_program
from infopay import garbling, simplex
from infopay.garbling import find_garbling
from infopay.generators import random_garbling_pair, random_skill_space, trial_rng
from infopay.numeric import clear_denominators


def exact_loop(a_rows, b):
    """The exact loop's pairs for the all-int program ``A x = b``, on the
    condensed tableau ``condensed`` builds for a general program."""
    return simplex._exact_feasible_point(*condensed(a_rows, b))


def feasible_point(a_rows, b, tol=None):
    """The float loop's witness of ``A x = b``, on the condensed tableau
    ``condensed`` builds for a general program."""
    return simplex.feasible_point(*condensed(a_rows, b), tol)


def exact_point(a_rows, b):
    """The exact loop's witness of ``A x = b`` over one common scale:
    a Fraction for each basic variable and int 0 for each other one."""
    (*a_ints, b_ints), _ = clear_denominators([*a_rows, b])
    return witness(exact_loop(a_ints, b_ints))


def witness(pairs):
    return None if pairs is None else [0 if v is None else F(*v) for v in pairs]


def assert_same(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None and len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w) and g == w, (got, want)


def satisfies(x, a_rows, b):
    return all(v >= 0 for v in x) and all(
        sum(a * v for a, v in zip(row, x)) == rhs for row, rhs in zip(a_rows, b)
    )


def test_infeasible_systems():
    # x0 + x1 = 1 and x0 + x1 = 2 contradict each other
    assert exact_point([[1, 1], [1, 1]], [1, 2]) is None
    # x0 = -1/2 has no nonnegative solution
    assert exact_point([[F(1)]], [F(-1, 2)]) is None
    # feasible over the reals, not over x >= 0
    assert exact_point([[1, -1], [1, 1]], [F(1, 3), F(-1, 3)]) is None
    # and the float loop agrees
    assert feasible_point([[1.0, -1.0], [1.0, 1.0]], [1 / 3, -1 / 3]) is None


def test_negative_right_hand_sides():
    # -x0 - x1 = -1 and x0 - x1 = 0: rows are negated before pivoting
    a_rows = [[F(-1), F(-1)], [F(1), F(-1)]]
    b = [F(-1), F(0)]
    x = exact_point(a_rows, b)
    assert x == [F(1, 2), F(1, 2)]
    assert all(type(v) is F for v in x)
    assert_same(x, fraction_feasible_point(a_rows, b))


def test_degenerate_ratio_tie_goes_to_the_lower_basis_index():
    # x0 enters first and ties rows 1 and 2 at ratio 1.  The artificial
    # of row 1 has the lower index and leaves; letting row 2 leave
    # instead would end at the other vertex (0, 0, 1, 1).
    a_rows = [[-1, 0, 0, 0], [1, 1, 1, 0], [1, -1, 0, 1]]
    b = [0, 1, 1]
    x = witness(exact_loop(a_rows, b))
    assert_same(x, [0, F(1), 0, F(2)])
    assert_same(x, fraction_feasible_point(a_rows, b))


def test_int_input_gives_fractions_and_int_zeros():
    # the loop returns ints: (num, den) for basic values, None for zeros,
    # which read as the oracle's Fractions and int zeros
    a_rows = [[2, 1, 0], [0, 1, 3]]
    b = [4, 3]
    pairs = exact_loop(a_rows, b)
    assert None in pairs
    assert all(
        v is None or (type(v[0]) is int and type(v[1]) is int and v[1] > 0)
        for v in pairs
    )
    x = witness(pairs)
    assert satisfies(x, a_rows, b)
    assert_same(x, fraction_feasible_point(a_rows, b))


def test_scaling_spans_all_denominators():
    # denominators 2, 3, 5 and 7 across rows and the right-hand side
    a_rows = [[F(1, 2), F(1, 3), 0], [0, F(2, 5), F(3, 7)]]
    b = [F(5, 6), F(29, 35)]
    x = exact_point(a_rows, b)
    assert satisfies(x, a_rows, b)
    assert_same(x, fraction_feasible_point(a_rows, b))


def test_rows_left_stale_across_pivots_catch_up_exactly():
    # Pivots 2, 5 and 17 on rows 0, 1 and 2.  Row 3 is updated at the
    # first pivot and has zero entering entries at the next two, so it
    # waits at row_d = 2 until it leaves at the fourth pivot, and is
    # brought to d = 17 first (17 / 2 is no integer).  Row 4 waits at 1
    # through three pivots and is then updated in one pass from its own
    # scale, with leaving entry -factor * 17.
    a_rows = [
        [2, 1, 1, 0, 0],
        [1, 3, 1, 0, 0],
        [1, 1, 4, 0, 0],
        [2, 1, 1, 3, 1],
        [0, 0, 0, 1, 2],
    ]
    b = [4, 5, 6, 9, 3]
    x = witness(exact_loop(a_rows, b))
    assert satisfies(x, a_rows, b)
    assert_same(x, fraction_feasible_point(a_rows, b))


def test_float_tolerance_boundaries():
    eps = simplex._FLOAT_EPS
    # a reduced cost of exactly -eps is noise: column 0 never enters
    assert_same(feasible_point([[eps, 1.0]], [1.0]), [0, 1.0])
    # so is an entering entry of exactly eps: row 0 is no pivot candidate,
    # and x0 = 1 leaves it a residual of eps, inside LP_TOL
    assert_same(feasible_point([[eps], [1.0]], [0.0, 1.0]), [1.0])
    # a phase-1 objective of exactly tol is accepted
    assert_same(feasible_point([[1.0], [1.0]], [1.0, 1.5], tol=0.5), [1.0])
    # x1 ends basic at -eps: a value within tol below 0 becomes 0, one at
    # exactly -tol is kept
    a_rows, b = [[eps, 1.0], [1.0, 0.0]], [0.0, 1.0]
    assert_same(feasible_point(a_rows, b), [1.0, 0])
    assert_same(feasible_point(a_rows, b, tol=eps), [1.0, -eps])
    # a basic value of exactly 0.0 stays a float
    assert_same(feasible_point([[1.0, 1.0], [1.0, 0.0]], [1.0, 0.0]), [0.0, 1.0])


def test_float_negated_row_keeps_its_signed_zero():
    # b[0] < 0, so row 0 is negated to (-0.0, 1.0, -2.0 | 1.0).  x0 enters
    # first, and row 0 is skipped at a factor of -0.0: it keeps that -0.0
    # where the full tableau held the artificial's int 0.
    x = feasible_point([[0.0, -1.0, 2.0], [1.0, 1.0, 0.0]], [-1.0, 3.0])
    assert repr(x) == "[2.0, 1.0, 0]"


def test_empty_system():
    assert exact_loop([], []) == []


def test_one_float_anywhere_makes_a_float_program():
    # a float in b alone, as when only the coarse structure is float: the
    # float loop pivots the Fraction and int entries beside it
    assert_same(feasible_point([[F(1, 2)]], [1.0]), [2.0])
    assert_same(feasible_point([[1, 0], [0, 2.0]], [1, 1]), [1.0, 0.5])


fractions = st.builds(
    F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 4, 6])
)


@st.composite
def lp_systems(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    a_rows = [[draw(fractions) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):  # feasible by construction
        x0 = [draw(st.sampled_from([0, 0, F(1, 2), 1, 2])) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, x0)) for row in a_rows]
    else:
        b = [draw(fractions) for _ in range(m)]
    return a_rows, b


@settings(max_examples=300, deadline=None)
@given(lp_systems())
def test_matches_fraction_oracle_on_random_systems(system):
    a_rows, b = system
    x = exact_point(a_rows, b)
    assert_same(x, fraction_feasible_point(a_rows, b))
    if x is not None:
        assert satisfies(x, a_rows, b)


# 12 of 16 entries are 0, about the share in the garbling programs, so
# rows keep zero entering entries and stay stale across several pivots
sparse_ints = st.sampled_from([0] * 12 + [1, 2, 3, -1])


@st.composite
def sparse_int_systems(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(2, 8))
    a_rows = [[draw(sparse_ints) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):  # feasible by construction
        x0 = [draw(st.sampled_from([0, 0, 1, 2])) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, x0)) for row in a_rows]
    else:
        b = [draw(st.integers(-3, 6)) for _ in range(m)]
    return a_rows, b


@settings(max_examples=300, deadline=None)
@given(sparse_int_systems())
# row 2 waits at row_d = 2 while d moves on to 1, then is updated in one
# pass over 2, which does not divide d
@example(([[2, 1, -1], [1, 0, -1], [2, 1, 0]], [2, -1, 4]))
# rows 0 and 1 are updated from row_d = 1 at d = 2 and d = 3; a leaving
# entry of -factor, not -factor * d, would make this program infeasible
@example(([[0, 1, -1, -1], [0, 0, 0, 2], [2, 0, 3, 0]], [-2, 4, 2]))
def test_matches_fraction_oracle_on_sparse_int_systems(system):
    a_rows, b = system
    x = witness(exact_loop(a_rows, b))
    assert_same(x, fraction_feasible_point(a_rows, b))
    if x is not None:
        assert satisfies(x, a_rows, b)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10**6), st.booleans())
def test_matches_fraction_oracle_on_garbling_programs(seed, trial, swap):
    rng = trial_rng(seed, trial)
    space = random_skill_space(rng, max_types=4)
    fine, coarse, _ = random_garbling_pair(rng, space, max_fine=4, max_coarse=3)
    if swap:  # mostly infeasible
        fine, coarse = coarse, fine
    programs = []

    def record(tableau, red):  # find_garbling hands its tableau to this loop
        programs.append(([list(row) for row in tableau], list(red)))
        return simplex._exact_feasible_point(tableau, red)

    with mock.patch.object(garbling, "_exact_feasible_point", record):
        kernel = find_garbling(fine, coarse)
    (tableau, red), = programs
    # exact structures give an int tableau: the Fraction program over the
    # lcm of the two scales, which gives the same witness, with the cost
    # row the general condensed builds from it
    assert all(type(v) is int for row in (*tableau, red) for v in row)
    a_rows, b = [row[:-1] for row in tableau], [row[-1] for row in tableau]
    frac_rows, frac_b = fraction_program(fine, coarse)
    scale = math.lcm(fine.int_form[1], coarse.int_form[1])
    assert a_rows == [[v * scale for v in row] for row in frac_rows]
    assert b == [v * scale for v in frac_b]
    assert (tableau, red) == condensed(a_rows, b)
    want = fraction_feasible_point(frac_rows, frac_b)
    assert_same(witness(exact_loop(a_rows, b)), want)
    assert_same(exact_point(frac_rows, frac_b), want)
    if want is None:
        assert kernel is None
        return
    n_f = fine.n_signals
    assert kernel.matrix == tuple(
        tuple(want[s * n_f + f] for f in range(n_f)) for s in range(coarse.n_signals)
    )
