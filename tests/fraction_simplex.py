"""Textbook phase-1 simplex on a Fraction tableau: a test oracle.

``fraction_feasible_point`` keeps every column, basic ones included, and
follows Bland's rule, as the simplex's exact loop does on the condensed
tableau; the condensed rows are the full rows' nonbasic entries up to
positive row factors, so the two must return the same witness.  Its
witness holds a Fraction for each basic variable and int ``0`` for each
other one, the entry types the exact ``find_garbling`` kernel reads as.
``fraction_program`` is the garbling program on two structures' own
entries, the dense program ``find_garbling`` writes its tableau from.
``condensed`` turns a general dense program into the condensed tableau
and cost row both simplex loops take: the reference that the tableau
``find_garbling`` writes is compared against, and the way the tests
hand a general program to a loop.
"""

from __future__ import annotations

from fractions import Fraction as F


def condensed(a_rows, b):
    """(A | b) on the structural slots, each row negated where b < 0 so
    that the artificial basis starts feasible, and its reduced costs for
    min sum(artificials): minus the sum of the rows."""
    tableau = [
        [-v for v in (*row, rhs)] if rhs < 0 else [*row, rhs]
        for row, rhs in zip(a_rows, b)
    ]
    n = len(a_rows[0]) if a_rows else 0
    return tableau, [-sum(row[j] for row in tableau) for j in range(n + 1)]


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


def fraction_program(fine, coarse):
    """The garbling program on the structures' own entries, 1s and all."""
    n_f, n_c = fine.n_signals, coarse.n_signals
    rows, rhs = [], []
    for f in range(n_f):
        rows.append([1 if k % n_f == f else 0 for k in range(n_c * n_f)])
        rhs.append(1)
    for fine_row, coarse_row in zip(fine.likelihood, coarse.likelihood):
        for s in range(n_c):
            rows.append([
                fine_row[k % n_f] if k // n_f == s else 0 for k in range(n_c * n_f)
            ])
            rhs.append(coarse_row[s])
    return rows, rhs
