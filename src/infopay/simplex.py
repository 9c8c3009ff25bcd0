"""Dense phase-1 simplex for small equality-form feasibility problems.

Solves: find x >= 0 with A x = b, by minimizing the sum of artificial
variables under Bland's rule.  Problems here are tiny (tens of
variables), so no factorization or sparsity.

Both loops pivot the condensed tableau (the dictionary form of Chvátal
1983, ch. 8): only the n nonbasic columns and ``b`` are stored, since
the m basic columns are unit columns that a pivot leaves as unit
columns.  ``slots[k]`` names the variable in column slot k, and Bland's
rule takes the lowest-indexed variable with a negative reduced cost
over the slots.  A pivot exchanges the entering and leaving variables:
the entering slot takes the leaving variable's column, whose entries
are what the full tableau's update makes of its unit column.  Reduced
costs, ratios and the tie rule are the full tableau's, so the pivots,
witnesses and entry types are too.  Artificial i's reduced cost is its
slot's entry while it is nonbasic and 0 while it is basic.

Both loops take that tableau from their one caller,
``garbling.find_garbling``, which writes it with its cost row: rows
``A | b`` with ``b >= 0`` so that the artificial basis starts feasible,
and the reduced costs for min sum(artificials), minus the column sums.
There is no path for a general program: neither loop checks a shape,
negates a row or sums a column.  Each consumes the tableau it is given.

The exact loop takes an all-int tableau and pivots it fraction-free
(integer-preserving pivoting, Edmonds 1967; Bareiss 1968) on Python
ints: each pivot divides exactly by the previous pivot ``d``.
``find_garbling`` writes that tableau at the lcm ``D`` of the
denominators of the rational program, one global factor:
scaling rows separately would change the phase-1 cost row (minus the
sum of the rows), so Bland's rule would pick other pivots and return
other witnesses.  The artificial columns hold 1, not ``D``: a positive
scale of those columns, which changes no pivot either.

Each row keeps its own denominator ``row_d[i]``, the pivot at which it
was last updated.  A row whose entering entry is 0 is left as it is
(its leaving entry is 0 too).  Only the pivot row is first brought to
the current ``d``, as ``v * d // row_d[i]``; that division is exact,
because the skipped steps would each have multiplied the row by
``p_new / p_old`` and the product telescopes.  Every other row with a
nonzero ``factor`` is updated in one pass straight from its own scale,
as ``(v * piv - factor * w) // row_d[i]``, with leaving entry
``-factor * d // row_d[i]``: bringing it to ``d`` and then updating it
over ``d`` telescopes to exactly these, so both divisions are exact.
A positive factor per row changes no sign and no ratio, so the ratio
test may read stale rows and Bland's rule picks the same pivots.  The
reduced-cost row stays at ``d``.  Every comparison is exact and
termination is guaranteed.  The exact loop ends in ints, each basic
value the pair ``tableau[i][n]`` over ``row_d[i]``, from which
``find_garbling`` builds its kernel's int form.

``feasible_point`` is the float loop: the same pivots on floats, with a
small pivot epsilon against noise and a tolerance on the phase-1
objective.
"""

from __future__ import annotations

from .numeric import LP_TOL, Number

__all__ = ["feasible_point"]

_FLOAT_EPS = 1e-11


def _exact_feasible_point(
    tableau: list[list[int]], red: list[int]
) -> list[tuple[int, int] | None] | None:
    """A nonnegative solution of the all-int program whose condensed
    tableau is ``tableau`` with reduced costs ``red`` (see the module
    docstring), or None if infeasible: each basic variable's value as
    ``(num, den)``, ints with ``den > 0``, and None for each nonbasic
    (zero) variable.  The tableau is consumed."""
    m = len(tableau)
    n = len(red) - 1
    basis = list(range(n, n + m))
    slots = list(range(n))
    # row i / row_d[i] is the textbook row times a positive factor (see
    # the module docstring); the cost row stays at d
    d = 1
    row_d = [1] * m
    while True:
        enter = n + m
        for k, var in enumerate(slots):
            if red[k] < 0 and var < enter:
                enter, col = var, k
        if enter == n + m:
            break
        # phase 1 is bounded below by 0, so an improving column always
        # has a positive entry and some row leaves
        leave, leave_coef, leave_rhs = -1, 0, 1  # the ratio 1 / 0 loses to any row
        for i, row in enumerate(tableau):
            coef = row[col]
            if coef > 0:
                # rhs_i / coef < rhs_leave / coef_leave; both coefs >= 0
                lhs = row[n] * leave_coef
                rhs = leave_rhs * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, leave_coef, leave_rhs = i, coef, row[n]
        pivot_row = tableau[leave]
        if row_d[leave] != d:
            pivot_row = [v * d // row_d[leave] for v in pivot_row]
        piv = pivot_row[col]  # > 0, so d stays positive
        for i, row in enumerate(tableau):
            factor = row[col]
            if i == leave or not factor:
                continue
            # straight from row_d[i]; exact, the results are integral minors
            r = row_d[i]
            row = [(v * piv - factor * w) // r for v, w in zip(row, pivot_row)]
            row[col] = -factor * d // r  # the leaving column: (0 - factor * d) // r
            tableau[i] = row
            row_d[i] = piv
        factor = red[col]
        red = [(v * piv - factor * w) // d for v, w in zip(red, pivot_row)]
        red[col] = -factor
        pivot_row[col] = d  # the leaving variable's unit entry, at d
        tableau[leave] = pivot_row
        slots[col] = basis[leave]
        basis[leave] = enter
        d = row_d[leave] = piv

    if red[n] < 0:  # the phase-1 objective is positive
        return None
    x: list[tuple[int, int] | None] = [None] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][n], row_d[i]
    return x


def feasible_point(
    tableau: list[list[Number]], red: list[Number], tol: float | None = None
) -> list[Number] | None:
    """A nonnegative solution of the float program whose condensed
    tableau is ``tableau`` with reduced costs ``red``, as for the exact
    loop, or None if infeasible within ``tol`` on the phase-1 objective
    (default ``LP_TOL``).  Basic values within ``tol`` below 0 become int
    ``0``, as do nonbasic ones.  The tableau is consumed.
    """
    feas_tol = LP_TOL if tol is None else tol
    m = len(tableau)
    n = len(red) - 1
    basis = list(range(n, n + m))
    slots = list(range(n))
    while True:
        enter = n + m
        for k, var in enumerate(slots):
            if red[k] < -_FLOAT_EPS and var < enter:
                enter, col = var, k
        if enter == n + m:
            break
        leave = -1
        best_ratio = None
        for i, row in enumerate(tableau):
            coef = row[col]
            if coef > _FLOAT_EPS:
                ratio = row[n] / coef
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leave]
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return None  # numerically unbounded
        piv = tableau[leave][col]
        pivot_row = tableau[leave] = [v / piv for v in tableau[leave]]
        # the leaving column, as the full tableau's update of its unit column
        w_leave = pivot_row[col] = 1 / piv
        for i, row in enumerate(tableau):
            factor = row[col]
            if i != leave and factor != 0:
                row = [v - factor * w for v, w in zip(row, pivot_row)]
                row[col] = 0 - factor * w_leave
                tableau[i] = row
        factor = red[col]
        red = [v - factor * w for v, w in zip(red, pivot_row)]
        red[col] = 0 - factor * w_leave
        slots[col] = basis[leave]
        basis[leave] = enter

    if -red[n] > feas_tol:  # the phase-1 objective
        return None
    x: list[Number] = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            value = tableau[i][n]
            if -feas_tol < value < 0:
                value = 0
            x[var] = value
    return x
