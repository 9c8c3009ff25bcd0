"""Dense phase-1 simplex for small equality-form feasibility problems.

Solves: find x >= 0 with A x = b, by minimizing the sum of artificial
variables under Bland's rule.  Problems here are tiny (tens of
variables), so no factorization or sparsity.

With int or Fraction entries the solver pivots fraction-free
(integer-preserving pivoting, Edmonds 1967; Bareiss 1968): the whole
system is scaled once by the lcm ``D`` of all denominators, the
tableau and the reduced-cost row are Python ints over one common
denominator ``d``, and each pivot divides exactly by the previous
pivot.  Every comparison is exact and termination is guaranteed.  The
scale must be one global factor: scaling rows separately would change
the phase-1 cost row (minus the sum of the rows), so Bland's rule would
pick other pivots and return other witnesses.  With float entries a
plain tableau loop runs, and a small pivot epsilon guards against
noise.
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
    if all(all_exact(row) for row in a_rows) and all_exact(b):
        return _exact_feasible_point(a_rows, b)
    return _float_feasible_point(a_rows, b, LP_TOL if tol is None else tol)


def _exact_feasible_point(
    a_rows: Sequence[Sequence[Number]], b: Sequence[Number]
) -> list[Number] | None:
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    total = n + m  # structural + artificial columns
    (*a_ints, b_ints), scale = clear_denominators([*a_rows, b])

    # scale * (A | I | b), each row negated where b < 0 so that the
    # artificial basis starts feasible
    tableau: list[list[int]] = []
    for i, row in enumerate(a_ints):
        sign = -1 if b_ints[i] < 0 else 1
        ints = [sign * v for v in row]
        ints += [scale if j == i else 0 for j in range(m)]
        ints.append(sign * b_ints[i])
        tableau.append(ints)
    basis = list(range(n, total))
    # reduced costs for min sum(artificials); artificial basis => subtract
    # each constraint row from the cost row
    red = [0] * (total + 1)
    for j in (*range(n), total):
        red[j] = -sum(row[j] for row in tableau)

    # tableau / d is the textbook tableau up to a positive factor per row
    # (scale on rows never pivoted, 1 once pivoted; scale on the cost
    # row), which changes no sign and no ratio: the pivots are the same.
    # Every row, even one with a zero entering entry, moves to the new d.
    d = 1
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
        pivot_row = tableau[leave]
        piv = pivot_row[enter]  # > 0, so d stays positive
        for i in range(m):
            if i == leave:
                continue
            factor = tableau[i][enter]
            if factor:  # exact division: the results are integral minors
                tableau[i] = [
                    (v * piv - factor * w) // d
                    for v, w in zip(tableau[i], pivot_row)
                ]
            elif piv != d:
                tableau[i] = [v * piv // d for v in tableau[i]]
        factor = red[enter]
        red = [(v * piv - factor * w) // d for v, w in zip(red, pivot_row)]
        d = piv
        basis[leave] = enter

    if red[total] < 0:  # the phase-1 objective is positive
        return None
    x: list[Number] = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tableau[i][total], d)
    return x


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
