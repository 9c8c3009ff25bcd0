"""Phase-1 simplex: verdicts, witnesses and value types.

The exact path pivots fraction-free on Python ints.  The Fraction
tableau loop it replaced is kept here as the oracle: both follow Bland's
rule on the same tableau up to positive row factors, so they must return
the same witness, element by element and type by type.
"""

from fractions import Fraction as F
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from infopay import garbling
from infopay.garbling import find_garbling
from infopay.generators import random_garbling_pair, random_skill_space, trial_rng
from infopay.simplex import feasible_point


def fraction_feasible_point(a_rows, b):
    """Textbook phase-1 simplex on a Fraction tableau, Bland's rule."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    rows = []
    rhs = []
    for i in range(m):  # artificial basis needs b >= 0
        if b[i] < 0:
            rows.append([-F(v) for v in a_rows[i]])
            rhs.append(-F(b[i]))
        else:
            rows.append([F(v) for v in a_rows[i]])
            rhs.append(F(b[i]))

    total = n + m
    tableau = [
        rows[i] + [1 if j == i else 0 for j in range(m)] + [rhs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    red = [0] * (total + 1)
    for j in range(n):
        red[j] = -sum(tableau[i][j] for i in range(m))
    red[total] = -sum(rhs)

    while True:
        enter = -1
        for j in range(total):
            if red[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][total] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        pivot_row = tableau[leave]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                tableau[i] = [v - factor * w for v, w in zip(tableau[i], pivot_row)]
        if red[enter] != 0:
            factor = red[enter]
            red = [v - factor * w for v, w in zip(red, pivot_row)]
        basis[leave] = enter

    if -red[total] > 0:
        return None
    x = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][total]
    return x


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
    assert feasible_point([[1, 1], [1, 1]], [1, 2]) is None
    # x0 = -1/2 has no nonnegative solution
    assert feasible_point([[F(1)]], [F(-1, 2)]) is None
    # feasible over the reals, not over x >= 0
    assert feasible_point([[1, -1], [1, 1]], [F(1, 3), F(-1, 3)]) is None


def test_negative_right_hand_sides():
    # -x0 - x1 = -1 and x0 - x1 = 0: rows are negated before pivoting
    a_rows = [[F(-1), F(-1)], [F(1), F(-1)]]
    b = [F(-1), F(0)]
    x = feasible_point(a_rows, b)
    assert x == [F(1, 2), F(1, 2)]
    assert all(type(v) is F for v in x)
    assert_same(x, fraction_feasible_point(a_rows, b))


def test_degenerate_ratio_tie_goes_to_the_lower_basis_index():
    # x0 enters first and ties rows 1 and 2 at ratio 1.  The artificial
    # of row 1 has the lower index and leaves; letting row 2 leave
    # instead would end at the other vertex (0, 0, 1, 1).
    a_rows = [[-1, 0, 0, 0], [1, 1, 1, 0], [1, -1, 0, 1]]
    b = [0, 1, 1]
    x = feasible_point(a_rows, b)
    assert_same(x, [0, F(1), 0, F(2)])
    assert_same(x, fraction_feasible_point(a_rows, b))


def test_int_input_gives_fractions_and_int_zeros():
    a_rows = [[2, 1, 0], [0, 1, 3]]
    b = [4, 3]
    x = feasible_point(a_rows, b)
    assert satisfies(x, a_rows, b)
    assert_same(x, fraction_feasible_point(a_rows, b))
    assert all(type(v) is F or (type(v) is int and v == 0) for v in x)


def test_scaling_spans_all_denominators():
    # denominators 2, 3, 5 and 7 across rows and the right-hand side
    a_rows = [[F(1, 2), F(1, 3), 0], [0, F(2, 5), F(3, 7)]]
    b = [F(5, 6), F(29, 35)]
    x = feasible_point(a_rows, b)
    assert satisfies(x, a_rows, b)
    assert_same(x, fraction_feasible_point(a_rows, b))


def test_empty_system():
    assert feasible_point([], []) == []


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
    x = feasible_point(a_rows, b)
    assert_same(x, fraction_feasible_point(a_rows, b))
    if x is not None:
        assert satisfies(x, a_rows, b)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_matches_fraction_oracle_on_garbling_programs(seed, trial):
    rng = trial_rng(seed, trial)
    space = random_skill_space(rng, max_types=4)
    fine, coarse, _ = random_garbling_pair(rng, space, max_fine=4, max_coarse=3)
    programs = []

    def record(a_rows, b, tol=None):
        programs.append((a_rows, b))
        return feasible_point(a_rows, b, tol=tol)

    with mock.patch.object(garbling, "feasible_point", record):
        kernel = find_garbling(fine, coarse)
    (a_rows, b), = programs
    want = fraction_feasible_point(a_rows, b)
    assert_same(feasible_point(a_rows, b), want)
    n_f = fine.n_signals
    assert kernel.matrix == tuple(
        tuple(want[s * n_f + f] for f in range(n_f)) for s in range(coarse.n_signals)
    )
