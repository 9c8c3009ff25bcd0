"""Informativeness comparisons between signal structures.

A structure is (weakly) less informative than another when its
likelihood matrix is a column-stochastic mixture of the other's: a
garbling kernel.  Deciding the order is a linear feasibility problem,
solved by the in-package phase-1 simplex so rational inputs stay exact.

The kernel found is one witness among possibly many; downstream
operations take the kernel they are given and never re-solve.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .errors import InputError
from .model import (
    Dist,
    Firm,
    IntRows,
    SignalStructure,
    _Frozen,
    _fraction_rows,
    number_forms,
    pay_table,
)
from .numeric import (
    LP_TOL,
    ORDER_TOL,
    Number,
    _lowest_terms,
    check_tol,
    clear_denominators,
    exact_entries,
    float_rows,
    format_number,
)
from .simplex import _exact_feasible_point, feasible_point

__all__ = [
    "GarblingKernel",
    "find_garbling",
    "garble",
    "compose_kernels",
    "kernel_reproduces",
    "is_slightly_more_informative",
    "within_eps_of_full",
    "extremeness_eps_bound",
]


class GarblingKernel(_Frozen):
    """Column-stochastic map from fine signals to coarse signals.

    ``matrix[s][f]`` is the probability that fine signal ``f`` is
    reported as coarse signal ``s``.  Columns sum to one (within the
    feasibility tolerance in float mode, exactly for rational entries).
    When every entry is exact, ``int_form = (rows, scale)`` holds the
    matrix as ints over the lcm of all its denominators.
    """

    _fields = ("coarse_signals", "fine_signals", "matrix")
    _numbers = "matrix"
    matrix = cached_property(_fraction_rows)

    def __init__(
        self,
        coarse_signals: Sequence[str],
        fine_signals: Sequence[str],
        matrix: Sequence[Sequence[Number]],
    ):
        matrix = tuple([tuple(row) for row in matrix])
        exact = exact_entries([v for row in matrix for v in row], "kernel entries")
        self.__dict__.update(
            coarse_signals=tuple(coarse_signals),
            fine_signals=tuple(fine_signals),
            matrix=matrix,
        )
        self._settle(clear_denominators(matrix) if exact else (matrix, 1), exact)

    def _settle(self, form: IntRows, exact: bool) -> None:
        """Validate the fields and cache ``int_form``, in lowest terms;
        exact entries are tested as ints against the scale, with no slack."""
        n_c, n_f = len(self.coarse_signals), len(self.fine_signals)
        if not n_c or not n_f:
            raise InputError("kernel needs nonempty signal sets")
        form = _lowest_terms(*form) if exact else form
        rows, one = form
        if len(rows) != n_c or any(len(r) != n_f for r in rows):
            raise InputError("kernel matrix shape does not match signal sets")
        tol = 0 if exact else LP_TOL
        for row in rows:
            for v in row:
                if v < -tol or v > one + tol:
                    raise InputError("kernel entries must lie in [0, 1]")
        for f, col in enumerate(zip(*rows)):
            if not (one - tol <= sum(col) <= one + tol):
                col = sum(row[f] for row in self.matrix)
                raise InputError(
                    f"kernel column for fine signal {self.fine_signals[f]!r} "
                    f"sums to {format_number(col)}, expected 1"
                )
        self.__dict__["int_form"] = form if exact else None

    def to_float(self) -> "GarblingKernel":
        return GarblingKernel._from_floats(
            float_rows(*self._float_form(), "kernel entries"),
            coarse_signals=self.coarse_signals,
            fine_signals=self.fine_signals,
        )


def _check_shared_space(fine: SignalStructure, coarse: SignalStructure) -> None:
    if fine.space != coarse.space:
        raise InputError("structures live on different skill spaces")


def _check_kernel_labels(
    kernel: GarblingKernel, fine: SignalStructure, coarse: SignalStructure
) -> None:
    if kernel.fine_signals != fine.signals:
        raise InputError("kernel fine signals do not match the fine structure")
    if kernel.coarse_signals != coarse.signals:
        raise InputError("kernel coarse signals do not match the coarse structure")


def kernel_reproduces(
    kernel: GarblingKernel,
    fine: SignalStructure,
    coarse: SignalStructure,
    tol: float | None = None,
) -> bool:
    """Does mixing the fine likelihoods through the kernel recover the
    coarse likelihoods (exactly, or within ``tol`` for floats)?

    The three matrices are compared cross-multiplied, each in its
    ``number_forms`` at its own scale: as ints with no slack on exact
    input, otherwise entry by entry with slack ``tol`` (default
    ``LP_TOL``).
    """
    slack = check_tol(tol, LP_TOL)
    _check_shared_space(fine, coarse)
    _check_kernel_labels(kernel, fine, coarse)
    exact, ((g, g_scale), (fine_lik, fine_scale), (coarse_lik, coarse_scale)) = (
        number_forms(kernel, fine, coarse)
    )
    mixed_scale, slack = g_scale * fine_scale, 0 if exact else slack
    return all(
        abs(sum(map(mul, g_row, fine_row)) * coarse_scale
            - coarse_row[s] * mixed_scale) <= slack
        for fine_row, coarse_row in zip(fine_lik, coarse_lik)
        for s, g_row in enumerate(g)
    )


def find_garbling(
    fine: SignalStructure, coarse: SignalStructure, tol: float | None = None
) -> GarblingKernel | None:
    """A kernel witnessing that ``coarse`` is a garbling of ``fine``,
    or None when no such kernel exists (within tolerance for floats).

    The program holds both ``number_forms`` at the lcm ``one`` of their
    scales: on exact input an int program at the scale
    ``clear_denominators`` gives the Fraction program, so the pivots and
    witness are the same.  Variable ``s * n_f + f`` is ``g(s | f)``.  Row
    ``f`` (fine signal ``f`` reports somewhere) holds ``one`` in each
    column ``(s, f)``, with right-hand side ``one``; row ``(t, s)``
    (mixing reproduces the coarse likelihood) holds fine row ``t`` in the
    columns of ``s``, with right-hand side coarse entry ``(t, s)``.

    Both arithmetics write one program for the simplex: the condensed
    tableau ``A | b`` and its phase-1 cost row.  Every entry of ``b`` is
    ``one`` or a likelihood, so ``b >= 0`` and no row is negated.  The
    cost row (minus the column sums) is written in closed form: column
    ``(s, f)`` sums ``one`` and fine column ``f``, and ``b`` sums
    ``n_f * one`` and the coarse entries, in row order.  On float input
    ``one`` is int 1, so the float sums add the same numbers in the same
    order as summing each column down its rows.  Float input goes to
    ``simplex.feasible_point``, exact input to the exact loop, whose int
    pairs become the kernel's int form, with no Fraction built: a basic
    entry reads as a Fraction and a nonbasic one as int ``0``.
    """
    check_tol(tol)
    _check_shared_space(fine, coarse)
    n_f, n_c = fine.n_signals, coarse.n_signals
    exact, ((fine_lik, fine_scale), (coarse_lik, coarse_scale)) = (
        number_forms(fine, coarse)
    )
    one = math.lcm(fine_scale, coarse_scale)
    if one != fine_scale:  # rescaled only when off the common scale
        fine_lik = [[v * (one // fine_scale) for v in row] for row in fine_lik]
    if one != coarse_scale:
        coarse_lik = [[v * (one // coarse_scale) for v in row] for row in coarse_lik]
    tableau: list[list[Number]] = []
    for f in range(n_f):  # each fine signal reports somewhere
        row = [0] * n_f
        row[f] = one
        tableau.append([*row * n_c, one])
    zeros = [0] * n_f
    for fine_row, coarse_row in zip(fine_lik, coarse_lik):
        for s, rhs in enumerate(coarse_row):  # mixing reproduces coarse entry (t, s)
            tableau.append([*zeros * s, *fine_row, *zeros * (n_c - 1 - s), rhs])
    red = [-sum(col, one) for col in zip(*fine_lik)] * n_c
    red.append(-sum([v for row in coarse_lik for v in row], n_f * one))
    cuts = [slice(s * n_f, (s + 1) * n_f) for s in range(n_c)]  # x by coarse signal
    if not exact:
        x = feasible_point(tableau, red, tol)  # positional: perfbench reads args[0]
        if x is None:
            return None
        return GarblingKernel(coarse.signals, fine.signals, [x[c] for c in cuts])
    x = _exact_feasible_point(tableau, red)
    if x is None:
        return None
    scale = math.lcm(*[v[1] for v in x if v is not None])
    ints = [0 if v is None else v[0] * (scale // v[1]) for v in x]
    whole = [v is None for v in x]  # nonbasic: int 0; basic: a Fraction
    return GarblingKernel._from_ints(
        ([ints[c] for c in cuts], scale), [whole[c] for c in cuts],
        coarse_signals=coarse.signals, fine_signals=fine.signals,
    )


def _whole(
    left: Iterable[Sequence[bool]], right: Iterable[Sequence[bool]]
) -> list[list[bool]]:
    """``whole[i][j]``: ``left[i]`` and ``right[j]`` mark only ints (see
    ``_Frozen._int_mask``), so a sum of their products stays an int."""
    int_left = [all(row) for row in left]
    int_right = [all(row) for row in right]
    return [[il and ir for ir in int_right] for il in int_left]


def garble(fine: SignalStructure, kernel: GarblingKernel) -> SignalStructure:
    """The coarse structure obtained by reporting fine signals through
    the kernel.

    Mixes the ``number_forms`` of the kernel and the likelihoods; exact
    input builds the structure from the int rows, where an entry stays an
    int when its kernel row and likelihood row hold no Fraction.
    """
    if kernel.fine_signals != fine.signals:
        raise InputError("kernel fine signals do not match the fine structure")
    exact, ((g, g_scale), (lik, lik_scale)) = number_forms(kernel, fine)
    rows = [[sum(map(mul, g_row, lik_row)) for g_row in g] for lik_row in lik]
    if exact:
        return SignalStructure._from_ints(
            (rows, g_scale * lik_scale), _whole(fine._int_mask(), kernel._int_mask()),
            space=fine.space, signals=kernel.coarse_signals, values=None,
        )
    return SignalStructure(fine.space, kernel.coarse_signals, rows)


def compose_kernels(outer: GarblingKernel, inner: GarblingKernel) -> GarblingKernel:
    """Chain two garblings: ``inner`` maps A to B, ``outer`` maps B to C;
    the result maps A straight to C (the transitivity witness).

    Mixes the ``number_forms`` of the kernels; exact input builds the
    result from the int rows, where an entry stays an int when its outer
    row and inner column hold no Fraction, as a sum of int products would.
    """
    if inner.coarse_signals != outer.fine_signals:
        raise InputError("kernels do not chain: signal sets mismatch")
    exact, ((g_outer, outer_scale), (g_inner, inner_scale)) = number_forms(outer, inner)
    cols = list(zip(*g_inner))
    rows = [[sum(map(mul, row, col)) for col in cols] for row in g_outer]
    if exact:
        return GarblingKernel._from_ints(
            (rows, outer_scale * inner_scale),
            _whole(outer._int_mask(), zip(*inner._int_mask())),
            coarse_signals=outer.coarse_signals, fine_signals=inner.fine_signals,
        )
    return GarblingKernel(outer.coarse_signals, inner.fine_signals, rows)


def is_slightly_more_informative(
    firm: Firm,
    q: Dist,
    fine: SignalStructure,
    coarse: SignalStructure,
    kernel: GarblingKernel,
    tol: float | None = None,
) -> bool:
    """True when every coarse signal keeps some task that stays optimal
    at every fine signal the kernel links to it.

    This is the no-reassignment condition: the extra information never
    forces the firm off every task it would have chosen anyway.  Optimal
    tasks are the tie sets of the pay tables under ``q``, so ties follow
    the pay table's one rule (exact on exact input); ``tol`` applies to
    the kernel check only.  Checking each linked (coarse, fine) pair on
    its own is weaker: it admits a coarse signal whose links each keep a
    different task.
    """
    _check_shared_space(fine, coarse)
    if not kernel_reproduces(kernel, fine, coarse, tol=tol):
        raise InputError("kernel does not reproduce the coarse structure")
    exact, ((links, _),) = number_forms(kernel)
    positive = 0 if exact else ORDER_TOL
    coarse_rows = pay_table(firm, q, q, coarse, what="coarse signal").rows
    fine_rows = pay_table(firm, q, q, fine, what="fine signal").rows
    for row_c, g_row in zip(coarse_rows, links):
        kept = set(row_c.ties)
        for row_f, g in zip(fine_rows, g_row):
            if g > positive:
                kept.intersection_update(row_f.ties)
        if not kept:
            return False
    return True


def within_eps_of_full(
    sig: SignalStructure, eps: Number, tol: float | None = None
) -> bool:
    """True when every signal has a dominant type whose likelihood
    bounds all others after scaling by ``eps``.

    ``eps = 0`` means fully informative; ``math.inf`` accepts anything.
    """
    slack = check_tol(tol, ORDER_TOL)
    exact_entries((eps,), "eps")
    if isinstance(eps, float) and math.isinf(eps) and eps > 0:
        return True
    if not eps >= 0:  # nan as well as negative
        raise InputError(
            f"eps must be a nonnegative number, got {format_number(eps)}"
        )
    # exact input compares int likelihoods, and eps as ints over its
    # scale: every test below is invariant under scaling a column
    exact, ((lik, _), ((eps,), eps_scale)) = number_forms(sig, eps)
    n_t = sig.space.size
    for j in range(sig.n_signals):
        col = [lik[t][j] for t in range(n_t)]
        ok = False
        for star in range(n_t):
            if not col[star] > 0:
                continue
            bound = eps * col[star]
            pad = 0 if exact else slack * max(1, col[star])
            if all(col[t] * eps_scale <= bound + pad for t in range(n_t) if t != star):
                ok = True
                break
        if not ok:
            return False
    return True


def extremeness_eps_bound(q: Dist, delta: Number) -> Number:
    """Largest distance-from-full-information guaranteeing that every
    posterior under ``q`` puts mass at least ``1 - delta`` on one type.

    Uses the smallest prior odds across types, so the guarantee holds
    whichever type a signal favors; the price is conservatism when the
    dominant type is common.  ``delta = 1`` returns ``math.inf``: every
    posterior is trivially 1-extreme.
    """
    if not q.full_support:
        raise InputError("eps bound requires a full-support distribution")
    exact_delta = exact_entries((delta,), "delta")
    if not (0 < delta <= 1):
        raise InputError("delta must lie in (0, 1]")
    if delta == 1:
        return math.inf
    exact, ((probs, scale),) = number_forms(q)
    if exact:  # the odds n / (scale - n) grow with n
        n = min(probs)
        if exact_delta:  # delta = a / b: the bound in one Fraction
            a, b = delta.as_integer_ratio()
            return Fraction(a * n, (b - a) * (scale - n) * (q.space.size - 1))
        min_odds = Fraction(n, scale - n)
    else:
        min_odds = min(v / (1 - v) for v in probs)
    return (delta / (1 - delta)) * min_odds / (q.space.size - 1)
