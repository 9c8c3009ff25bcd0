"""Decomposition of an information gain under misperception.

For a firm, a true distribution p, a perception q, and a pair of
garbling-ordered structures, the change in average pay from coarse to
fine splits into two parts:

* ``perception_correcting``: the value of the extra information coming
  purely from re-weighting signal frequencies toward their true law,
  holding the coarse task assignment fixed;
* ``instrumental``: the value of actually reassigning tasks on the
  finer information, evaluated at perceived posteriors.

The instrumental part is nonnegative for every firm and any perception.
The perception-correcting part is signed by the direction of
misperception when the firm is monotone and the fine structure has
monotone likelihood ratios.

``decompose`` computes the two parts and both average pays from the
model's per-signal pay tables (``pay_table``): marginals, unnormalized
perceived weights and one assignment per signal, its lowest optimal
task.  The remaining conditional probabilities cancel algebraically, so
the parts come from one pass over the linked (coarse, fine) signal
pairs, those with a nonzero kernel entry: each pair's perceived value
of the kept coarse task is read from the fine table's scores and added
into per-fine and per-coarse sums.  Rational inputs stay exact: the tables
hold Python ints, the kernel enters through its ``number_forms`` (an
exact instance takes no float kernel), every per-signal sum is an int,
and each part is one ``Fraction`` sum over signals divided by the
product of the scales.
``check_signs`` is the one judge of Theorem 1 on an instance: the
identity, the instrumental floor and, under the hypotheses, the sign.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, OrderingError
from .garbling import GarblingKernel, find_garbling, kernel_reproduces
from .model import Dist, Firm, SignalStructure, number_forms, pay_table, table_pay
from .numeric import Number, all_exact, claim_slacks, format_number, ratio_sum
from .orders import PerceptionClass, is_mlr, perception_class

__all__ = [
    "DecompResult",
    "SignReport",
    "decompose",
    "check_signs",
]


class DecompResult(NamedTuple):
    """Outcome of one decomposition.

    ``w_fine`` and ``w_coarse`` are the average pays under the two
    structures and ``total`` is their difference, while the two parts
    come from the joint-law formulas; their agreement is a theorem, not
    an arithmetic identity, so ``check_signs`` and the tests check it
    rather than the constructor forcing it.  Both parts come from one
    pass over the linked signal pairs; ``instrumental`` sums each pair's
    kernel entry times (best - value), which reads no column sum of the
    kernel.
    """

    w_fine: Number
    w_coarse: Number
    total: Number
    perception_correcting: Number
    instrumental: Number
    kernel: GarblingKernel
    assignment_coarse: tuple[int, ...]
    assignment_fine: tuple[int, ...]

    @property
    def identity_gap(self) -> Number:
        return self.total - (self.perception_correcting + self.instrumental)


def _resolve_kernel(
    fine: SignalStructure,
    coarse: SignalStructure,
    kernel: GarblingKernel | None,
    tol: float | None,
) -> GarblingKernel:
    if kernel is None:
        kernel = find_garbling(fine, coarse, tol=tol)
        if kernel is None:
            raise OrderingError(
                "fine structure is not more informative than the coarse one"
            )
        return kernel
    if not kernel_reproduces(kernel, fine, coarse, tol=tol):
        raise InputError("kernel does not reproduce the coarse structure")
    return kernel


def decompose(
    firm: Firm,
    p: Dist,
    q: Dist,
    coarse: SignalStructure,
    fine: SignalStructure,
    kernel: GarblingKernel | None = None,
    tol: float | None = None,
) -> DecompResult:
    """Split the coarse-to-fine pay change for one firm and population.

    Each signal is assigned its lowest optimal task (``pay_table``); the
    split under the highest is that of ``Firm(firm.tasks[::-1])``, with
    each assigned task ``k`` read as ``len(firm.tasks) - 1 - k``.
    ``kernel`` may be supplied when the caller already holds a witness;
    otherwise one is computed, and its absence raises ``OrderingError``.
    An exact instance takes an exact kernel only: a float kernel raises
    ``InputError`` (convert the instance with ``to_float()`` first).
    """
    kernel = _resolve_kernel(fine, coarse, kernel, tol)
    if not (p.full_support and q.full_support):
        raise InputError("decomposition requires full-support distributions")
    n_c = coarse.n_signals
    table_c = pay_table(firm, p, q, coarse, what="coarse signal")
    table_f = pay_table(firm, p, q, fine, what="fine signal")
    rows_f = table_f.rows
    # when exact, every sum below is an int at scale g_scale * (score scale)
    exact, ((g, g_scale), *_) = number_forms(kernel, firm, p, q, fine)
    if table_f.exact and not exact:
        raise InputError(
            "a float kernel needs a float instance: convert the "
            "instance with to_float()"
        )

    # e(s, f) = row_f.scores[task kept at coarse s], the q-weights at fine
    # signal f dotted with that task's surplus, is the unnormalized
    # perceived fine-posterior value of the task; the Bayes denominators
    # cancel against the joint-law weights, so the linked pairs with a zero
    # kernel entry drop out exactly (and a zero perceived pair weight
    # implies a zero true one, both being the kernel entry times a positive
    # marginal).  Each part is a list of (m_p, m_q, value) terms
    # that m_p / m_q weights: the fine terms, and for the correction the
    # negated coarse terms sum_s mu_p(s)/mu_q(s) * sum_f g[s][f] * e(s, f).
    # Float sums keep one order, which the pinned decomposition digest
    # fixes: per-coarse over f ascending, per-fine over s ascending, fine
    # terms before coarse ones.
    kept = [r.task for r in table_c.rows]
    mu_p, mu_q, inner = [0] * n_c, [0] * n_c, [0] * n_c
    correction, joint = [], []
    for row_f, col in zip(rows_f, zip(*g)):
        m_p, m_q, best = row_f.m_p, row_f.m_q, row_f.score
        mixed = 0  # sum over s of g[s][f] * e(s, f)
        gap = 0  # sum over s of g[s][f] * (best - e(s, f))
        for s, coef in enumerate(col):
            if coef != 0:
                e = row_f.scores[kept[s]]
                linked = coef * e
                mixed += linked
                gap += coef * (best - e)
                mu_p[s] += coef * m_p
                mu_q[s] += coef * m_q
                inner[s] += linked
        correction.append((m_p, m_q, mixed))
        joint.append((m_p, m_q, gap))
    for s in range(n_c):
        if not mu_q[s] > 0:  # float kernels match coarse columns only within tol
            raise InputError(
                f"coarse signal {coarse.signals[s]!r} is unreachable "
                f"through the kernel"
            )
        correction.append((mu_p[s], mu_q[s], -inner[s]))

    scale = g_scale * table_f.freq_scale * table_f.surplus_scale

    def weigh(terms):  # sum of m_p / m_q * value: true over perceived frequency
        if exact:  # one Fraction per sum, the scales divided out once
            return ratio_sum(((m_p * v, m_q) for m_p, m_q, v in terms), scale)
        total = 0
        for m_p, m_q, v in terms:
            total += m_p / m_q * v
        return total

    w_fine, w_coarse = table_pay(table_f), table_pay(table_c)
    return DecompResult(
        w_fine=w_fine,
        w_coarse=w_coarse,
        total=w_fine - w_coarse,
        perception_correcting=weigh(correction),
        instrumental=weigh(joint),
        kernel=kernel,
        assignment_coarse=tuple(r.task for r in table_c.rows),
        assignment_fine=tuple(r.task for r in rows_f),
    )


class SignReport(NamedTuple):
    """Theorem 1 on one instance: hypotheses and verdicts.

    The decomposition identity and the nonnegative instrumental part
    hold for every instance; the sign of the perception-correcting part
    is required only under the hypotheses.  ``correction_sign_rule`` is
    the sign the perception class implies whatever they say: "nonneg"
    (under-perceived), "nonpos" (over), "zero" (accurate) or None
    (LR-incomparable); ``correction_sign_holds`` is its verdict.  Where
    the hypotheses fail, ``correction_sign_required`` and
    ``correction_sign_ok`` read None.
    """

    monotone: bool
    fine_mlr: bool
    perception: PerceptionClass
    identity_ok: bool
    instrumental_ok: bool
    correction_sign_rule: str | None
    correction_sign_holds: bool | None
    result: DecompResult

    @property
    def correction_sign_required(self) -> str | None:
        return self.correction_sign_rule if self.monotone and self.fine_mlr else None

    @property
    def correction_sign_ok(self) -> bool | None:
        return self.correction_sign_holds if self.monotone and self.fine_mlr else None

    @property
    def ok(self) -> bool:
        """No applicable claim is violated."""
        return (
            self.identity_ok
            and self.instrumental_ok
            and self.correction_sign_ok is not False
        )

    def summary(self) -> str:
        res = self.result
        if self.correction_sign_required is None:
            label, verdict = "correction sign:", "not applicable"
        else:
            label = f"correction {self.correction_sign_required}:"
            verdict = self.correction_sign_ok
        return "\n".join([
            f"total change:          {format_number(res.total)}",
            f"perception-correcting: {format_number(res.perception_correcting)}",
            f"instrumental:          {format_number(res.instrumental)}",
            f"identity gap:          {format_number(res.identity_gap)}",
            f"identity holds:        {self.identity_ok}",
            f"instrumental >= 0:     {self.instrumental_ok}",
            f"monotone firm:         {self.monotone}",
            f"fine structure MLR:    {self.fine_mlr}",
            f"perception class:      {self.perception.value}",
            f"{label:<23}{verdict}",
        ])


def check_signs(
    firm: Firm,
    p: Dist,
    q: Dist,
    coarse: SignalStructure,
    fine: SignalStructure,
    kernel: GarblingKernel | None = None,
    tol: float | None = None,
) -> SignReport:
    """Judge Theorem 1 on one instance.

    The identity and the nonnegativity of the instrumental part are
    hypothesis-free and always checked.  The sign of the
    perception-correcting part is only required when the firm is
    monotone, the fine structure is MLR, and the perception is
    LR-comparable to the truth.  ``tol`` sets every slack: the claim
    slack and floor (``claim_slacks``) and those of the MLR and LR tests.
    The theorem holds whichever optimal task the firm keeps at a tied
    signal; ``decompose`` keeps the lowest, so judging the firm with its
    tasks reversed judges the other end of every tie.
    """
    result = decompose(firm, p, q, coarse, fine, kernel, tol)
    slack, floor = claim_slacks(
        all_exact((result.total, result.perception_correcting, result.instrumental)),
        tol,
    )
    monotone = firm.is_monotone
    fine_mlr = False if fine.values is None else is_mlr(fine, tol)
    pclass = perception_class(p, q, tol)
    c = result.perception_correcting
    rule, holds = {
        PerceptionClass.ACCURATE: ("zero", bool(-slack <= c <= slack)),
        PerceptionClass.UNDER_PERCEIVED: ("nonneg", bool(c >= -slack)),
        PerceptionClass.OVER_PERCEIVED: ("nonpos", bool(c <= slack)),
    }.get(pclass, (None, None))
    return SignReport(
        monotone=monotone,
        fine_mlr=fine_mlr,
        perception=pclass,
        identity_ok=bool(abs(result.identity_gap) <= slack),
        instrumental_ok=bool(result.instrumental >= floor),
        correction_sign_rule=rule,
        correction_sign_holds=holds,
        result=result,
    )
