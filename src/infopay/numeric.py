"""Dual-mode arithmetic helpers.

Every quantitative routine in this package is generic over the number
type of its inputs: plain ``float`` (the default mode) or exact
rationals (``int`` / ``fractions.Fraction``).  Exactness is detected
from the values themselves, by ``exact_entries``: model objects classify
their entries once, at construction, and keep the int form
(``int_row``, ``clear_denominators``) of exact ones.  When every input
is exact, comparisons use zero slack, otherwise the documented float
tolerances apply.  ``_check_prob_rows`` is the probability check of the
value classes' validators, on int rows or on floats.

Tolerance registry (float mode):

* ``DEFAULT_TOL``   -- generic value comparisons and argmax ties.  The
  pay table breaks ties on unnormalized scores, so two tasks tie at a
  signal when their scores differ by at most ``DEFAULT_TOL * m_q``
  (``m_q`` the perceived signal frequency): ``DEFAULT_TOL`` on the
  posterior scale.  The tie-broken task and its own score are used.
* ``ORDER_TOL``     -- slack scale for stochastic-order cross products.
* ``LP_TOL``        -- feasibility residual for the garbling program.
* ``SIGN_TOL``      -- slack when testing signed claims.
* ``INSTRUMENTAL_FLOOR`` -- lower bound for the instrumental part,
  whose nonnegativity is hypothesis-free: ``-(DEFAULT_TOL + 1e-12)``.
  At each fine signal ``f`` the table's task may score up to
  ``DEFAULT_TOL * m_q(f)`` below the best (a tie), and every kept coarse
  task scores at most the best.  The instrumental part weights these
  per-signal shortfalls by ``m_p(f) / m_q(f)`` through kernel columns
  that sum to 1, so ties can lower it by at most
  ``DEFAULT_TOL * sum_f m_p(f) = DEFAULT_TOL``.  The extra 1e-12 absorbs
  rounding; it was the whole floor before float ties were tolerant.
* ``DIST_SUM_TOL``  -- probability vectors must sum to 1 within this.

``claim_slacks`` turns exactness and a user ``tol`` into the one slack of
every claim check and the instrumental floor; exact values get zero
slack everywhere.  ``check_tol``
is the one test of a user ``tol``: every public function that takes one
applies it, in either mode.  ``check_mode`` is the one test of a
``mode`` argument (``"rational"`` or ``"float"``).
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Sequence, Union

from .errors import InputError

Number = Union[int, float, Fraction]

EXACT_TYPES = (int, Fraction)
_PLAIN_EXACT = frozenset(EXACT_TYPES)  # the classifier's fast path

DEFAULT_TOL = 1e-9
ORDER_TOL = 1e-12
LP_TOL = 1e-8
SIGN_TOL = 1e-9
INSTRUMENTAL_FLOOR = -(DEFAULT_TOL + 1e-12)
DIST_SUM_TOL = 1e-9
MAX_EXPONENT = 10_000  # largest decimal exponent, in size, parse_exact accepts


def all_exact(values: Iterable[Number]) -> bool:
    return all(map(isinstance, values, repeat(EXACT_TYPES)))


def exact_entries(values: Iterable[object], what: str) -> bool:
    """The entry classifier: are all entries exact?

    Exact means an ``int`` that is not a ``bool``, or a ``Fraction``.
    Any other real number (``float``, numpy scalars) makes the entries
    float entries.  Anything else, bools included, raises ``InputError``
    naming ``what``.  Plain ints, Fractions and floats are told apart by
    their type, without the ABC checks the other types need.
    """
    exact = True
    for v in values:
        if type(v) in _PLAIN_EXACT:
            continue
        if type(v) is float:
            exact = False
            continue
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise InputError(f"{what}: {v!r} is not a number")
        if not isinstance(v, EXACT_TYPES):
            exact = False
    return exact


def int_row(values: Sequence[Number]) -> tuple[tuple[int, ...], int]:
    """Exact values as ``(ints, scale)``: ints over the lcm of their
    denominators, so ``values[i] == ints[i] / scale``."""
    if all(type(v) is int for v in values):
        return tuple(values), 1
    ratios = [v.as_integer_ratio() for v in values]
    # unpack a list, not a generator: a tuple built from a generator is
    # allocated large and then shrunk, and such tuples pile up in the free
    # list of their final size (about 1 MB more peak memory on suites-exact)
    scale = math.lcm(*[d for _, d in ratios])
    return tuple([n * (scale // d) for n, d in ratios]), scale


def float_entries(
    values: Sequence[Number], scale: int | None, what: str
) -> tuple[float, ...]:
    """``values`` as floats: ``n / scale`` for the ints of an int form
    over ``scale``, ``float(v)`` when ``scale`` is None.

    Int true division is correctly rounded, so ``n / scale`` is the
    double ``float(Fraction(n, scale))`` gives, without the pure-Python
    ``Fraction.__float__``.  Either way the result is a finite float: a
    value beyond float range raises ``InputError`` naming ``what``.
    """
    try:
        if scale is None:
            return tuple([float(v) for v in values])
        return tuple([n / scale for n in values])
    except OverflowError:
        raise InputError(f"{what}: a value is beyond float range") from None


def float_rows(
    rows: Sequence[Sequence[Number]], scale: int | None, what: str
) -> tuple[tuple[float, ...], ...]:
    """``float_entries`` of each row, over one ``scale`` or None."""
    return tuple([float_entries(row, scale, what) for row in rows])


def join_rows(
    forms: Sequence[tuple[Sequence[int], int]],
) -> tuple[tuple[Sequence[int], ...], int]:
    """Int rows ``(ints, scale)`` brought to one scale, the lcm of theirs."""
    scale = math.lcm(*[s for _, s in forms])
    return tuple([
        ints if s == scale else tuple([n * (scale // s) for n in ints])
        for ints, s in forms
    ]), scale


def _lowest_terms(
    rows: Sequence[Sequence[int]], scale: int
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Int rows over one positive scale, divided by the gcd of all their
    entries and the scale: the int form ``clear_denominators`` gives of
    the values ``rows[i][j] / scale``."""
    g = math.gcd(scale, *[n for row in rows for n in row])
    return tuple([tuple([n // g for n in row]) for row in rows]), scale // g


def clear_denominators(
    rows: Sequence[Sequence[Number]],
) -> tuple[tuple[Sequence[int], ...], int]:
    """Exact rows as int rows over one common denominator.

    Returns ``(ints, scale)`` with ``rows[i][j] == ints[i][j] / scale``,
    where ``scale`` is the lcm of every denominator in ``rows``.
    """
    return join_rows([int_row(row) for row in rows])


def ratio_sum(terms: Iterable[tuple[int, int]], scale: int) -> Fraction:
    """``sum(num / den for num, den in terms) / scale`` as one Fraction.

    The sum is kept as an int numerator over the product of the (positive
    int) denominators and reduced once at the end.
    """
    num, den = 0, 1
    for a, b in terms:
        num = num * b + a * den
        den *= b
    return Fraction(num, den * scale)


def check_tol(tol: float | None, default: float | None = None) -> float | None:
    """``tol``, or ``default`` when it is None.  A ``tol`` that is not a
    finite real of at least 0 raises ``InputError``."""
    if tol is None:
        return default
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0):
        raise InputError(f"tolerance must be a finite nonnegative number, got {tol!r}")
    return tol


def check_mode(mode: str) -> None:
    """Reject a ``mode`` other than ``"rational"`` and ``"float"``."""
    if mode not in ("rational", "float"):
        raise InputError(f"unknown mode {mode!r}")


def claim_slacks(exact: bool, tol: float | None = None) -> tuple[Number, Number]:
    """(slack, instrumental floor) for claim checks: one slack for every
    equality and sign test.

    Both are zero for exact values.  For floats a user ``tol`` sets both
    (the floor is ``-tol``); without one they are ``SIGN_TOL`` and
    ``INSTRUMENTAL_FLOOR``.  A ``tol`` that is not a finite number of at
    least 0 raises ``InputError`` in either mode.
    """
    check_tol(tol)
    if exact:
        return 0, 0
    if tol is None:
        return SIGN_TOL, INSTRUMENTAL_FLOOR
    return tol, -tol


def require_finite(values: Iterable[Number], what: str) -> None:
    """Reject infinite and nan floats."""
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise InputError(f"{what}: {v!r} is not a finite number")


def require_count(value: object, what: str, minimum: int) -> None:
    """Reject anything but an ``int`` (bools excluded) of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InputError(f"{what} must be an integer of at least {minimum}, got {value!r}")


def parse_exact(text: str) -> Fraction:
    """Parse ``a/b`` or decimal text to an exact rational.

    A decimal exponent larger than ``MAX_EXPONENT`` in size is refused
    before ``Fraction`` builds its power of ten, which takes seconds for
    exponents in the millions.
    """
    _, e, exponent = text.lower().partition("e")
    try:
        too_large = bool(e) and abs(int(exponent)) > MAX_EXPONENT
    except ValueError:  # not an exponent: Fraction words the error
        too_large = False
    if too_large:
        raise InputError(
            f"not a rational number: {text!r} "
            f"(exponent larger than {MAX_EXPONENT} in size)"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


def parse_float(text: str) -> float:
    """Parse ``a/b`` or decimal text to a finite float."""
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise InputError(f"not a finite number: {text!r}")
    return value


def format_number(x: Number) -> str:
    """Canonical text form: reduced ``a/b`` for rationals, repr for floats."""
    if isinstance(x, bool):
        raise InputError(f"not a number: {x!r}")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def _check_prob_rows(
    form: tuple[Sequence[Sequence[Number]], int],
    tol: float,
    what: str,
    quote: Callable[[], Sequence[Sequence[Number]]],
) -> None:
    """Rows of probabilities: nonnegative entries summing to 1.

    ``form`` is ``(rows, scale)``: the ints of exact values over one
    scale, tested with ``tol`` 0, or float (or mixed) entries at scale 1.
    Each entry must be at least 0 and each row's sum within ``tol`` of
    the scale.  A failure names row ``k`` ``what.format(k)`` and quotes
    its values, ``quote()[k]``; ``quote`` is called only then.
    """
    rows, one = form
    for k, row in enumerate(rows):
        if min(row) >= 0 and one - tol <= sum(row) <= one + tol:
            continue  # a nan fails the sum
        values = quote()[k]
        for i, v in enumerate(row):
            if v < 0:
                raise InputError(
                    f"{what.format(k)}: entry {i} is negative "
                    f"({format_number(values[i])})"
                )
        raise InputError(
            f"{what.format(k)}: entries sum to {format_number(sum(values))}, expected 1"
        )
