"""Stochastic orders on beliefs and signal structures.

The likelihood-ratio order compares cross products, so zero entries are
handled without forming ratios.  Every test reads the ``number_forms``
of its objects: exact objects give their int forms, and cross products
and cumulative sums keep their order under a positive scale, so the int
tests are the exact ones.  In float mode (any object with a float entry)
each product comparison carries an absolute slack scaled by the larger
operand.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .errors import InputError
from .model import Dist, SignalStructure, SkillSpace, number_forms
from .numeric import ORDER_TOL, Number, check_tol, join_rows

__all__ = [
    "PerceptionClass",
    "lr_geq",
    "fosd_geq",
    "is_mlr",
    "perception_class",
    "separating_signal_structure",
    "lr_violation",
]


class PerceptionClass(Enum):
    """How a perceived distribution relates to the true one in the
    likelihood-ratio order."""

    UNDER_PERCEIVED = "under-perceived"
    OVER_PERCEIVED = "over-perceived"
    ACCURATE = "accurate"
    INCOMPARABLE = "incomparable"


def _prod_geq(a: Number, b: Number, tol: float) -> bool:
    """a >= b, with slack tol * max(|a|, |b|)."""
    if tol:
        return a >= b - tol * max(abs(a), abs(b))
    return a >= b


def _lr_violation_vec(
    hi: Sequence[Number], lo: Sequence[Number], tol: float
) -> tuple[int, int] | None:
    n = len(hi)
    for i in range(n):
        for j in range(i + 1, n):
            if not _prod_geq(lo[i] * hi[j], lo[j] * hi[i], tol):
                return (i, j)
    return None


def _fosd_geq_vec(hi: Sequence[Number], lo: Sequence[Number], slack: float) -> bool:
    cum_hi = 0
    cum_lo = 0
    for a, b in zip(hi[:-1], lo[:-1]):
        cum_hi += a
        cum_lo += b
        if not cum_hi <= cum_lo + slack:
            return False
    return True


def _check_spaces(a: Dist, b: Dist) -> None:
    if a.space != b.space:
        raise InputError("distributions live on different skill spaces")


def _entries(hi: Dist, lo: Dist, tol: float | None):
    """(hi entries, lo entries, slack): the ``number_forms`` at one scale,
    with zero slack when both are exact and the float slack otherwise."""
    slack = check_tol(tol, ORDER_TOL)
    _check_spaces(hi, lo)
    exact, forms = number_forms(hi, lo)
    (hi_entries, lo_entries), _ = join_rows(forms)
    return hi_entries, lo_entries, 0 if exact else slack


def lr_geq(q_hi: Dist, q_lo: Dist, tol: float | None = None) -> bool:
    """True when ``q_hi`` is likelihood-ratio above ``q_lo``:
    ``q_lo(t) * q_hi(t') >= q_lo(t') * q_hi(t)`` whenever ``t' > t``."""
    return _lr_violation_vec(*_entries(q_hi, q_lo, tol)) is None


def lr_violation(q_hi: Dist, q_lo: Dist, tol: float | None = None) -> tuple[int, int] | None:
    """First type-index pair witnessing failure of ``lr_geq``, else None."""
    return _lr_violation_vec(*_entries(q_hi, q_lo, tol))


def fosd_geq(q_hi: Dist, q_lo: Dist, tol: float | None = None) -> bool:
    """First-order stochastic dominance: the cdf of ``q_hi`` never
    exceeds the cdf of ``q_lo``."""
    return _fosd_geq_vec(*_entries(q_hi, q_lo, tol))


def is_mlr(sig: SignalStructure, tol: float | None = None) -> bool:
    """Monotone likelihood ratio: higher types make higher signal values
    relatively more likely.

    Requires valued signals (ascending by construction); quantifies the
    cross-product inequality over all signal pairs and type pairs.
    """
    slack = check_tol(tol, ORDER_TOL)
    if sig.values is None:
        raise InputError("monotone-likelihood-ratio check requires valued signals")
    exact, ((rows, _),) = number_forms(sig)
    slack = 0 if exact else slack
    # over the signals, each higher type's row is LR-above each lower one's
    return all(
        _lr_violation_vec(rows[u], rows[t], slack) is None
        for t in range(len(rows))
        for u in range(t + 1, len(rows))
    )


def perception_class(p: Dist, q: Dist, tol: float | None = None) -> PerceptionClass:
    """Relation of perception ``q`` to truth ``p`` in the LR order."""
    _check_spaces(p, q)
    if not (p.full_support and q.full_support):
        raise InputError("perception_class requires full-support distributions")
    p_entries, q_entries, slack = _entries(p, q, tol)  # one read, both directions
    under = _lr_violation_vec(p_entries, q_entries, slack) is None
    over = _lr_violation_vec(q_entries, p_entries, slack) is None
    if under and over:
        return PerceptionClass.ACCURATE
    if under:
        return PerceptionClass.UNDER_PERCEIVED
    if over:
        return PerceptionClass.OVER_PERCEIVED
    return PerceptionClass.INCOMPARABLE


def separating_signal_structure(
    space: SkillSpace, idx_lo: int, idx_hi: int
) -> SignalStructure:
    """Structure with one signal pooling the two given type indices and a
    dedicated revealing signal for every other type.

    This is the witness construction for the converse favorableness
    result: when two beliefs are not LR-ordered, pooling a violating
    type pair makes the nominally more favorable belief earn strictly
    less at every monotone firm.
    """
    n = space.size
    if not (0 <= idx_lo < n and 0 <= idx_hi < n):
        raise InputError("type indices out of range")
    if not idx_lo < idx_hi:
        raise InputError("pooled pair must be given in increasing index order")
    others = [k for k in range(n) if k not in (idx_lo, idx_hi)]
    labels = ("pool",) + tuple(f"rev{k}" for k in others)
    col_of = {k: 1 + pos for pos, k in enumerate(others)}
    rows = []
    for k in range(n):
        row = [0] * len(labels)
        if k in (idx_lo, idx_hi):
            row[0] = 1
        else:
            row[col_of[k]] = 1
        rows.append(tuple(row))
    return SignalStructure(space, labels, tuple(rows))
