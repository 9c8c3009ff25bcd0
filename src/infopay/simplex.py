"""Dense phase-1 simplex for small equality-form feasibility problems.

Solves: find x >= 0 with A x = b, by minimizing the sum of artificial
variables under Bland's rule.  Problems here are tiny (tens of
variables), so no factorization or sparsity.

With int or Fraction entries the solver pivots fraction-free
(integer-preserving pivoting, Edmonds 1967; Bareiss 1968) on Python
ints, and each pivot divides exactly by the previous pivot ``d``.  An
all-int program is pivoted as given; one holding a Fraction is first
scaled by the lcm ``D`` of all its denominators.  The scale must be one
global factor: scaling rows separately would change the phase-1 cost
row (minus the sum of the rows), so Bland's rule would pick other
pivots and return other witnesses.  The artificial columns hold 1, not
``D``: a positive scale of those columns, which changes no pivot either.

Each row keeps its own denominator ``row_d[i]``, the pivot at which it
was last brought up to date.  A row whose entering entry is 0 is left
as it is; a row the pivot reads (the pivot row, or a row with a nonzero
factor) is first brought to the current ``d`` as ``v * d // row_d[i]``.
That division is exact, because the skipped steps would each have
multiplied the row by ``p_new / p_old`` and the product telescopes.  A
positive factor per row changes no sign and no ratio, so the ratio
test may read stale rows and Bland's rule picks the same pivots.  The
reduced-cost row stays at ``d``.  Every comparison is exact and
termination is guaranteed.  With float entries a plain tableau loop
runs, and a small pivot epsilon guards against noise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .numeric import LP_TOL, Number, all_exact, clear_denominators

__all__ = ["feasible_point"]

_FLOAT_EPS = 1e-11


def feasible_point(
    a_rows: Sequence[Sequence[Number]],
    b: Sequence[Number],
    tol: float | None = None,
) -> list[Number] | None:
    """A nonnegative solution of ``A x = b``, or None if infeasible.

    ``tol`` bounds the acceptable phase-1 objective in float mode
    (default ``LP_TOL``); with exact entries the objective must vanish
    exactly.  Exact input gives Fraction values for basic variables and
    int ``0`` for the others.
    """
    rows = [*a_rows, b]
    if not all(map(all_exact, rows)):
        return _float_feasible_point(a_rows, b, LP_TOL if tol is None else tol)
    if not all(type(v) is int for row in rows for v in row):
        rows, _ = clear_denominators(rows)  # one positive scale: same pivots
    *a_ints, b_ints = rows
    return _exact_feasible_point(a_ints, b_ints)


def _exact_feasible_point(
    a_rows: Sequence[Sequence[int]], b: Sequence[int]
) -> list[Number] | None:
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    total = n + m  # structural + artificial columns

    # (A | I | b), each row negated where b < 0 so that the artificial
    # basis starts feasible
    tableau: list[list[int]] = []
    for i, row in enumerate(a_rows):
        sign = -1 if b[i] < 0 else 1
        ints = [sign * v for v in row]
        ints += [1 if j == i else 0 for j in range(m)]
        ints.append(sign * b[i])
        tableau.append(ints)
    basis = list(range(n, total))
    # reduced costs for min sum(artificials); artificial basis => subtract
    # each constraint row from the cost row
    red = [0] * (total + 1)
    for j in (*range(n), total):
        red[j] = -sum(row[j] for row in tableau)

    # row i / row_d[i] is the textbook row times a positive factor (see
    # the module docstring); the cost row stays at d
    d = 1
    row_d = [1] * m
    while True:
        enter = -1
        for j in range(total):
            if red[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # phase 1 is bounded below by 0, so an improving column always
        # has a positive entry and some row leaves
        leave = -1
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                if leave < 0:
                    leave = i
                    continue
                # rhs_i / coef < rhs_leave / coef_leave; both coefs > 0
                lhs = tableau[i][total] * tableau[leave][enter]
                rhs = tableau[leave][total] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        pivot_row = _at(tableau, row_d, leave, d)
        piv = pivot_row[enter]  # > 0, so d stays positive
        for i in range(m):
            if i == leave or not tableau[i][enter]:
                continue
            row = _at(tableau, row_d, i, d)
            factor = row[enter]  # exact division: the results are integral minors
            tableau[i] = [(v * piv - factor * w) // d for v, w in zip(row, pivot_row)]
            row_d[i] = piv
        factor = red[enter]
        red = [(v * piv - factor * w) // d for v, w in zip(red, pivot_row)]
        d = row_d[leave] = piv
        basis[leave] = enter

    if red[total] < 0:  # the phase-1 objective is positive
        return None
    x: list[Number] = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tableau[i][total], row_d[i])
    return x


def _at(tableau: list[list[int]], row_d: list[int], i: int, d: int) -> list[int]:
    """Row i brought up to the current pivot ``d`` (in place)."""
    if row_d[i] != d:
        tableau[i] = [v * d // row_d[i] for v in tableau[i]]
        row_d[i] = d
    return tableau[i]


def _float_feasible_point(
    a_rows: Sequence[Sequence[Number]], b: Sequence[Number], feas_tol: float
) -> list[Number] | None:
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0

    # artificial basis needs b >= 0
    rows = []
    rhs = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-v for v in a_rows[i]])
            rhs.append(-b[i])
        else:
            rows.append(list(a_rows[i]))
            rhs.append(b[i])

    total = n + m  # structural + artificial columns
    tableau = [
        rows[i] + [1 if j == i else 0 for j in range(m)] + [rhs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    # reduced costs for min sum(artificials); artificial basis => subtract
    # each constraint row from the cost row
    red = [0] * (total + 1)
    for j in range(n):
        red[j] = -sum(tableau[i][j] for i in range(m))
    red[total] = -sum(rhs)

    while True:
        enter = -1
        for j in range(total):
            if red[j] < -_FLOAT_EPS:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > _FLOAT_EPS:
                ratio = tableau[i][total] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return None  # numerically unbounded
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        pivot_row = tableau[leave]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                tableau[i] = [
                    v - factor * w for v, w in zip(tableau[i], pivot_row)
                ]
        if red[enter] != 0:
            factor = red[enter]
            red = [v - factor * w for v, w in zip(red, pivot_row)]
        basis[leave] = enter

    objective = -red[total]
    if objective > feas_tol:
        return None
    x: list[Number] = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            value = tableau[i][total]
            if -feas_tol < value < 0:
                value = 0
            x[var] = value
    return x
