"""Finite screening model: types, beliefs, signals, tasks, pay.

Workers carry a skill type drawn from a finite ordered set.  A signal
structure sends each type to a distribution over finitely many signal
labels.  A firm holds finitely many tasks, each assigning a surplus to
every type.  Given a signal, the employer forms a posterior under its
*perceived* type distribution, assigns the worker to a task maximizing
expected surplus under that posterior, and pays that expectation.

Average pay mixes the two distributions deliberately: pay per signal is
computed under the perceived distribution, while signal frequencies are
weighted by the *true* one.

All numbers may be floats or exact rationals; computations never force
a conversion, so rational inputs give exact results.  Exact objects
carry their numbers' int form, which every exact computation reads
(``number_forms``); objects built from ints keep only that form and
build their public Fraction field when it is first read, and float
twins are divided out of it directly (``to_float``).  Each value class
checks its numbers in one validator, whichever of the three builders
made it; an object with any float entry is a float object, checked with
float slack throughout.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple, Sequence

from .errors import InputError
from .numeric import (
    DEFAULT_TOL,
    DIST_SUM_TOL,
    EXACT_TYPES,
    Number,
    _check_prob_rows,
    _lowest_terms,
    clear_denominators,
    exact_entries,
    float_entries,
    float_rows,
    int_row,
    join_rows,
    ratio_sum,
    require_finite,
)

IntRow = tuple[tuple[int, ...], int]  # (ints, scale)
IntRows = tuple[tuple[tuple[int, ...], ...], int]  # (int rows, one scale)

__all__ = [
    "SkillSpace",
    "Dist",
    "Task",
    "Firm",
    "SignalStructure",
    "Population",
    "number_forms",
    "posterior",
    "SignalRow",
    "PayTable",
    "pay_table",
    "table_pay",
    "average_pay",
    "uninformative_structure",
    "fully_informative_structure",
    "binary_symmetric_structure",
    "twin",
]


def _fraction_rows(obj):
    """The numbers field of an object ``_from_ints`` built, from its int
    form ``(rows, scale)``: each value ``rows[i][j] / scale`` a Fraction,
    except where its ``_whole`` mask holds: there it is a whole number,
    kept as an int."""
    (rows, scale), whole = obj.int_form, obj._whole
    if whole is None:
        return tuple([tuple([Fraction(n, scale) for n in row]) for row in rows])
    return tuple([
        tuple([n // scale if w else Fraction(n, scale) for n, w in zip(row, mask)])
        for row, mask in zip(rows, whole)
    ])


class _Frozen:
    """Base of the immutable value classes.

    ``_fields`` names the value's fields in order.  Equality (within one
    class only), hash and repr read those alone, so cached attributes such
    as ``int_form`` stay invisible.  Constructors store into ``__dict__``;
    any later assignment or deletion raises ``AttributeError``.  Pickle
    and deepcopy restore the ``__dict__`` without assigning.  ``to_float``
    passes the ``twin`` of each field to the constructor; the classes
    that hold numbers define their own, on ``_from_floats``.

    ``_numbers`` names the field that holds the numbers.  A class that
    checks its numbers has one validator, ``_settle(form, exact)``, which
    all three builders reach: the public constructor classifies the
    numbers once (``exact_entries``) and passes their int form, or the
    numbers themselves at scale 1 when any is a float; ``_from_ints``, the
    one builder from ints, passes the int form it is given, and
    ``_from_floats`` the twin's floats.  The validator brings an exact
    form to lowest terms (``_lowest_terms``), so every exact object keeps
    the int form ``clear_denominators`` gives of its numbers, whichever
    builder made it.  An object built from ints stores only its int form
    and its ``_whole`` mask; its numbers field, a
    ``functools.cached_property``, builds the view of Fractions and ints
    the public constructor would hold on first read and keeps it in
    ``__dict__``, where the other builders store the field at once.
    Equality, hash, repr, pickle and deepcopy see the same value before
    and after that read.
    """

    _fields: tuple[str, ...] = ()
    _numbers: str | None = None

    @classmethod
    def _from_ints(cls, form, whole=None, **fields):
        """The exact object holding ``fields`` and the numbers ``ints /
        scale`` of the int form ``form`` (``scale > 0``), as the public
        constructor would build it from those values.  ``_settle`` brings
        ``form`` to lowest terms and validates it.  The numbers field is
        built on first read: Fractions, except where the mask ``whole``
        holds (None: nowhere), whose whole numbers are kept as ints."""
        self = object.__new__(cls)
        self.__dict__.update(fields, int_form=form, _whole=whole)
        self._settle(form, True)
        return self

    @classmethod
    def _from_floats(cls, numbers, **fields):
        """The float twin holding ``fields`` and the floats ``numbers`` of
        its numbers field.  The floats came from ``float_entries``, so they
        are finite and need no classification; ``_settle`` checks them
        for what rounding can break (sums, underflow, order)."""
        self = object.__new__(cls)
        self.__dict__.update(fields, int_form=None)
        self.__dict__[cls._numbers] = numbers
        self._settle((numbers, 1), False)
        return self

    def _settle(self, form, exact: bool) -> None:
        """Validate the numbers and cache what they decide, given their
        lowest int form when ``exact``, else the numbers at scale 1; the
        classes that check their numbers define their own."""

    def _int_mask(self) -> Sequence[Sequence[bool]]:
        """Per entry of an exact matrix of numbers: is it an int, not a
        Fraction?  An object built by ``_from_ints`` reads its ``_whole``
        mask, so no Fraction is built."""
        d = self.__dict__
        if "_whole" not in d:
            rows = getattr(self, self._numbers)
            return [[not isinstance(v, Fraction) for v in row] for row in rows]
        if d["_whole"] is None:  # all Fractions
            return [[False] * len(row) for row in d["int_form"][0]]
        return d["_whole"]

    def _float_form(self):
        """The numbers as ``float_entries`` takes them: ``(ints, scale)``
        when exact, else ``(numbers, None)``."""
        return self.int_form or (getattr(self, self._numbers), None)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def to_float(self):
        return type(self)(*[twin(getattr(self, name)) for name in self._fields])


def twin(obj):
    """The float twin: ``to_float`` of a model object, a tuple entry by
    entry, anything else (exact numbers, text) as it is."""
    if isinstance(obj, tuple):
        return tuple(map(twin, obj))
    return obj.to_float() if isinstance(obj, _Frozen) else obj


class SkillSpace(_Frozen):
    """Strictly increasing tuple of at least two real skill levels.

    ``to_float`` builds the float twin once and keeps it, so the twins
    of objects on one space share one space.
    """

    _fields = ("thetas",)
    _float_twin: "SkillSpace | None" = None

    def __init__(self, thetas: Sequence[Number]):
        thetas = tuple(thetas)
        if len(thetas) < 2:
            raise InputError("skill space needs at least two types")
        exact_entries(thetas, "skill levels")
        require_finite(thetas, "skill levels")
        self.__dict__["thetas"] = thetas
        self._check_order()

    def _check_order(self) -> None:
        for lo, hi in zip(self.thetas, self.thetas[1:]):
            if not lo < hi:
                raise InputError("skill levels must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.thetas)

    def to_float(self) -> "SkillSpace":
        # the floats of finite numbers are finite: only rounding can fail
        if self._float_twin is None:
            twin = object.__new__(SkillSpace)
            twin.__dict__["thetas"] = float_entries(self.thetas, None, "skill levels")
            twin._check_order()
            self.__dict__["_float_twin"] = twin
        return self._float_twin


class Dist(_Frozen):
    """Probability vector over a skill space.

    Entries may be zero (posteriors can be degenerate); functions that
    need a prior insist on full support at the call site.  Exact probs
    keep their int form ``int_form = (ints, scale)``, with ``probs[i] ==
    ints[i] / scale``; float and mixed ones keep None.
    """

    _fields = ("space", "probs")
    _numbers = "probs"

    def __init__(self, space: SkillSpace, probs: Sequence[Number]):
        probs = tuple(probs)
        exact = exact_entries(probs, "distribution")
        self.__dict__.update(space=space, probs=probs)
        self._settle(int_row(probs) if exact else (probs, 1), exact)

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:  # read by objects _from_ints built
        ints, scale = self.int_form
        return tuple([Fraction(n, scale) for n in ints])

    def _settle(self, form: IntRow, exact: bool) -> None:
        """Validate the fields and cache ``int_form``, in lowest terms, and
        ``full_support``."""
        if exact:
            (ints,), scale = _lowest_terms((form[0],), form[1])
            form = ints, scale
        entries, scale = form
        if len(entries) != self.space.size:
            raise InputError(
                f"distribution has {len(entries)} entries for {self.space.size} types"
            )
        _check_prob_rows(
            ((entries,), scale), 0 if exact else DIST_SUM_TOL, "distribution",
            lambda: (self.probs,),
        )
        self.__dict__.update(
            int_form=form if exact else None, full_support=min(entries) > 0
        )

    def to_float(self) -> "Dist":
        space = self.space.to_float()
        return Dist._from_floats(
            float_entries(*self._float_form(), "distribution"), space=space
        )


class Task(_Frozen):
    """Surplus per type, aligned with the skill space order.

    Exact surpluses keep their int form ``int_form = (ints, scale)``.
    """

    _fields = ("surplus",)
    _numbers = "surplus"

    def __init__(self, surplus: Sequence[Number]):
        surplus = tuple(surplus)
        if not surplus:
            raise InputError("task needs at least one surplus entry")
        form = None
        if exact_entries(surplus, "task surplus"):
            form = int_row(surplus)
        else:
            require_finite(surplus, "task surplus")
        self.__dict__.update(surplus=surplus, int_form=form)

    @property
    def is_increasing(self) -> bool:
        v = self.surplus if self.int_form is None else self.int_form[0]
        return all(a < b for a, b in zip(v, v[1:]))

    def to_float(self) -> "Task":
        return Task._from_floats(float_entries(*self._float_form(), "task surplus"))


class Firm(_Frozen):
    """Nonempty set of tasks of equal width.

    ``surplus`` holds one surplus row per task.  When every surplus is
    exact, ``int_form = (rows, scale)`` holds those rows as ints over the
    lcm of all their denominators.
    """

    _fields = ("tasks",)
    _numbers = "surplus"

    def __init__(self, tasks: Sequence[Task]):
        tasks = tuple(tasks)
        if not tasks:
            raise InputError("firm needs at least one task")
        for t in tasks:
            if not isinstance(t, Task):
                raise InputError(f"firm tasks must be Task objects, got {t!r}")
        width = len(tasks[0].surplus)
        if any(len(t.surplus) != width for t in tasks):
            raise InputError("all tasks in a firm must cover the same types")
        forms = [t.int_form for t in tasks]
        form = None if None in forms else join_rows(forms)
        surplus = tuple([t.surplus for t in tasks])
        self.__dict__.update(tasks=tasks, int_form=form, surplus=surplus)

    @property
    def is_monotone(self) -> bool:
        """True when every task has strictly increasing surplus."""
        return all(t.is_increasing for t in self.tasks)


class SignalStructure(_Frozen):
    """Likelihood matrix: one row per type, one column per signal label.

    ``values`` optionally places the signals on the real line (required
    by likelihood-ratio monotonicity checks); when present they must be
    strictly increasing so that label order equals value order.  When
    every likelihood is exact, ``int_form = (rows, scale)`` holds the
    whole matrix as ints over the lcm of all its denominators.
    """

    _fields = ("space", "signals", "likelihood", "values")
    _numbers = "likelihood"
    likelihood = cached_property(_fraction_rows)

    def __init__(
        self,
        space: SkillSpace,
        signals: Sequence[str],
        likelihood: Sequence[Sequence[Number]],
        values: Sequence[Number] | None = None,
    ):
        likelihood = tuple([tuple(row) for row in likelihood])
        exact = all([  # a list: rows after a float one are classified too
            exact_entries(row, f"likelihood row for type index {k}")
            for k, row in enumerate(likelihood)
        ])
        if values is not None:
            values = tuple(values)
            exact_entries(values, "signal values")
            require_finite(values, "signal values")
        self.__dict__.update(
            space=space, signals=tuple(signals), likelihood=likelihood, values=values
        )
        self._settle(clear_denominators(likelihood) if exact else (likelihood, 1), exact)

    def _settle(self, form: IntRows, exact: bool) -> None:
        """Validate the fields and cache ``int_form``, in lowest terms.  The
        signal values are classified by the public constructor: a twin's
        are finite floats, and ``_from_ints``' exact."""
        if not self.signals:
            raise InputError("signal structure needs at least one signal")
        if len(set(self.signals)) != len(self.signals):
            raise InputError("signal labels must be unique")
        form = _lowest_terms(*form) if exact else form
        rows = form[0]
        if len(rows) != self.space.size:
            raise InputError(
                f"likelihood has {len(rows)} rows for {self.space.size} types"
            )
        for k, row in enumerate(rows):
            if len(row) != len(self.signals):
                raise InputError(f"likelihood row for type index {k} has wrong width")
        _check_prob_rows(
            form, 0 if exact else DIST_SUM_TOL, "likelihood row for type index {}",
            lambda: self.likelihood,
        )
        for label, col in zip(self.signals, zip(*rows)):
            if not max(col) > 0:  # rows were checked, so no nan is left
                raise InputError(f"signal {label!r} has zero likelihood everywhere")
        self.__dict__["int_form"] = form if exact else None
        if self.values is not None:
            if len(self.values) != len(self.signals):
                raise InputError("signal values must match signal count")
            for lo, hi in zip(self.values, self.values[1:]):
                if not lo < hi:
                    raise InputError("signal values must be strictly increasing")

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    def index(self, label: str) -> int:
        try:
            return self.signals.index(label)
        except ValueError:
            raise InputError(f"unknown signal label {label!r}") from None

    def to_float(self) -> "SignalStructure":
        space = self.space.to_float()
        lik = float_rows(*self._float_form(), "likelihood")
        values = self.values
        if values is not None:
            values = float_entries(values, None, "signal values")
        return SignalStructure._from_floats(
            lik, space=space, signals=self.signals, values=values
        )


class Population(_Frozen):
    """True distribution, perceived distribution, and signal structure."""

    _fields = ("p", "q", "sig")

    def __init__(self, p: Dist, q: Dist, sig: SignalStructure):
        if not (p.space == q.space == sig.space):
            raise InputError("population components use different skill spaces")
        if not p.full_support:
            raise InputError("true distribution must have full support")
        if not q.full_support:
            raise InputError("perceived distribution must have full support")
        self.__dict__.update(p=p, q=q, sig=sig)


def number_forms(*objs) -> tuple[bool, list]:
    """``(exact, forms)``: each object's int form ``(ints, scale)`` when
    every one is exact, else its numbers as given (the attribute its class
    names in ``_numbers``) at scale 1: one float makes the whole call a
    float call.  A bare number is a row of one.  ``exact`` then picks the
    slack and the builder, never the arithmetic.
    """
    forms = [
        obj.int_form if isinstance(obj, _Frozen)
        else int_row((obj,)) if type(obj) in EXACT_TYPES else None
        for obj in objs
    ]
    if None not in forms:
        return True, forms
    return False, [
        (getattr(obj, obj._numbers) if isinstance(obj, _Frozen) else (obj,), 1)
        for obj in objs
    ]


# -- belief updating and assignment ------------------------------------------


def _check_same_space(sig: SignalStructure, d: Dist, who: str) -> None:
    if sig.space != d.space:
        raise InputError(f"{who}: distribution and signal structure disagree on types")


def posterior(q: Dist, sig: SignalStructure, signal: str) -> Dist:
    """Bayes posterior over types after observing ``signal`` under ``q``.

    Requires a full-support prior, so the posterior is defined for every
    signal (each signal has positive likelihood under some type).  It
    weighs the ``number_forms`` of ``q`` and ``sig``: ints on exact input.
    """
    _check_same_space(sig, q, "posterior")
    if not q.full_support:
        raise InputError("posterior requires a full-support prior")
    j = sig.index(signal)
    exact, ((probs, _), (lik, _)) = number_forms(q, sig)
    weights = [v * row[j] for v, row in zip(probs, lik)]
    total = sum(weights)
    if not total > 0:
        raise InputError(f"signal {signal!r} has zero probability under the prior")
    if exact:
        return Dist._from_ints((weights, total), space=q.space)
    return Dist(q.space, tuple(w / total for w in weights))


def _near_max(scores: Sequence[Number], slack: Number) -> list[int]:
    """Indices of the scores within ``slack`` of the best, in order."""
    floor = max(scores) - slack
    return [i for i, v in enumerate(scores) if v >= floor]


def _check_tie_break(tie_break: str) -> None:
    if tie_break not in ("lowest", "highest"):
        raise InputError(f"unknown tie_break {tie_break!r}")


class SignalRow(NamedTuple):
    """One signal of a pay table, at the table's scales (see ``PayTable``)."""

    m_p: Number  # true frequency of the signal
    m_q: Number  # perceived frequency
    weights: list[Number]  # perceived type weights q(t) * P(signal | t)
    task: int  # tie-broken expected-surplus maximizer under ``weights``
    score: Number  # that task's surplus dotted with ``weights``
    ties: list[int]  # every maximizer under the tie rule; ``task`` is an end
    scores: list[Number]  # every task's surplus dotted with ``weights``


class PayTable(NamedTuple):
    """The rows of one pay table and the scales they are kept at.

    On exact input every number in the table is an int.  ``m_p``, ``m_q``
    and ``weights`` are the true values times ``freq_scale``: the lcm of
    the denominators of p and q together, times that of the likelihoods.
    ``score`` and ``scores`` are the true values times ``freq_scale *
    surplus_scale``, where ``surplus_scale`` is the lcm of the
    denominators of the firm's surpluses.  Otherwise both scales are 1
    and the numbers are the true values.
    """

    rows: tuple[SignalRow, ...]
    exact: bool
    freq_scale: int
    surplus_scale: int


def pay_table(
    firm: Firm,
    p: Dist,
    q: Dist,
    sig: SignalStructure,
    tie_break: str = "lowest",
    what: str = "signal",
) -> PayTable:
    """Marginals, perceived weights and optimal tasks per signal.

    This is the one place that decides which tasks are optimal at a
    signal: each row holds the tie set and its tie-broken end.  Scores
    stay unnormalized: dividing by ``m_q > 0`` cannot change an
    argmax, and pay at a signal is ``score / (m_q * surplus_scale)``.
    The table reads the ``number_forms`` of p, q, the likelihoods and the
    surpluses, with p and q joined at the lcm of their two scales.  On
    exact input every product, sum and comparison is then an int
    operation; all scores share one positive scale, so the argmax and
    its ties are those of the true values.  Exact input breaks ties with
    zero slack, other input within ``DEFAULT_TOL * m_q``.  A signal with
    zero true or perceived frequency (float underflow) raises
    ``InputError``; ``what`` names such signals in the message.
    """
    _check_tie_break(tie_break)
    if not (p.space == q.space == sig.space):
        raise InputError("distributions and signal structure disagree on types")
    if len(firm.tasks[0].surplus) != q.space.size:
        raise InputError("firm tasks and belief cover different type counts")
    exact, (p_form, q_form, *forms) = number_forms(p, q, sig, firm)
    (p_t, q_t), pq_scale = join_rows((p_form, q_form))
    (lik, lik_scale), (surplus, surplus_scale) = forms
    freq_scale = pq_scale * lik_scale
    rows = []
    for label, col in zip(sig.signals, zip(*lik)):
        weights = list(map(mul, q_t, col))
        m_q = sum(weights)
        m_p = sum(map(mul, p_t, col))
        if not (m_q > 0 and m_p > 0):
            raise InputError(
                f"{what} {label!r} has zero probability "
                f"under the true or the perceived distribution"
            )
        scores = [sum(map(mul, weights, a)) for a in surplus]
        ties = _near_max(scores, 0 if exact else DEFAULT_TOL * m_q)
        task = ties[0] if tie_break == "lowest" else ties[-1]
        rows.append(SignalRow(m_p, m_q, weights, task, scores[task], ties, scores))
    return PayTable(tuple(rows), exact, freq_scale, surplus_scale)


def table_pay(table: PayTable) -> Number:
    """Average pay of a table: perceived pay per signal, true frequencies."""
    if table.exact:
        return ratio_sum(
            ((r.m_p * r.score, r.m_q) for r in table.rows),
            table.freq_scale * table.surplus_scale,
        )
    total = 0
    for row in table.rows:
        total += row.m_p * row.score / row.m_q
    return total


def average_pay(firm: Firm, pop: Population) -> Number:
    """Expected pay: perceived pay per signal, true signal frequencies."""
    return table_pay(pay_table(firm, pop.p, pop.q, pop.sig))


# -- common structure constructors -------------------------------------------
# exact structures are built from ints, with the public constructor's entry types


def uninformative_structure(space: SkillSpace) -> SignalStructure:
    """The single-signal structure: it tells every type the same."""
    n = space.size
    return SignalStructure._from_ints(
        (((1,),) * n, 1), ((True,),) * n, space=space, signals=("u0",), values=None
    )


def fully_informative_structure(space: SkillSpace) -> SignalStructure:
    """One signal per type, revealing it; signal values 0..n-1."""
    n = space.size
    labels = tuple(f"r{k}" for k in range(n))
    rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return SignalStructure._from_ints(
        (rows, 1), ((True,) * n,) * n,
        space=space, signals=labels, values=tuple(range(n)),
    )


def binary_symmetric_structure(space: SkillSpace, accuracy: Number) -> SignalStructure:
    """Two-signal structure for binary types: signal matches type with
    probability ``accuracy``.  Signals carry values 0 and 1."""
    if space.size != 2:
        raise InputError("binary symmetric structure needs exactly two types")
    exact_entries((accuracy,), "accuracy")
    if not (0 <= accuracy <= 1):
        raise InputError("accuracy must lie in [0, 1]")
    if type(accuracy) in EXACT_TYPES:  # a subclass keeps its type on the public path
        a, b = accuracy.as_integer_ratio()
        whole = ((True, True),) * 2 if type(accuracy) is int else None
        return SignalStructure._from_ints(
            (((a, b - a), (b - a, a)), b), whole, space=space, signals=("s0", "s1"),
            values=(0, 1),
        )
    lam = accuracy
    rows = ((lam, 1 - lam), (1 - lam, lam))
    return SignalStructure(space, ("s0", "s1"), rows, values=(0, 1))
