"""Pay gaps between two perceived groups and when information narrows them.

Two populations share one firm and one true skill distribution but are
perceived through different type distributions.  The pay gap under a
signal structure is the difference of their average pays.  Refining the
structure narrows the gap under five hypotheses:

1. every task of the firm has strictly increasing surplus;
2. the finer structure has monotone likelihood ratios;
3. the favored group is perceived LR-above the truth;
4. the truth is perceived LR-above the other group;
5. the refinement is slight for both groups: at every coarse signal,
   some task the firm would keep stays optimal at every fine signal
   the kernel links to it.  Then the instrumental parts vanish, and
   the gap change is the difference of the perception-correcting
   parts, whose signs the other four hypotheses fix.  Asking this of
   each linked pair on its own is not enough: the pairs can each keep
   a different task.

Dropping any one hypothesis admits a counterexample where refining
*widens* the gap; ``narrowing_counterexamples`` returns one exact
instance per hypothesis.  A refinement close enough to full information
narrows any strictly positive gap without the slightness hypothesis;
``check_nearly_full`` certifies that route.
"""

from __future__ import annotations

from fractions import Fraction as F
from typing import Mapping, NamedTuple

from .decomposition import SignReport, _resolve_kernel, check_signs
from .errors import InputError
from .garbling import (
    GarblingKernel,
    is_slightly_more_informative,
    within_eps_of_full,
)
from .model import (
    Dist,
    Firm,
    Population,
    SignalStructure,
    SkillSpace,
    Task,
    _Frozen,
    average_pay,
    binary_symmetric_structure,
    fully_informative_structure,
    uninformative_structure,
)
from .numeric import Number, all_exact, claim_slacks, format_number
from .orders import PerceptionClass, is_mlr, lr_geq

__all__ = [
    "GapScenario",
    "GapRankingReport",
    "NarrowingReport",
    "NearlyFullReport",
    "Counterexample",
    "pay_gap",
    "check_gap_ranking",
    "check_narrowing",
    "check_nearly_full",
    "narrowing_counterexamples",
]


class GapScenario(_Frozen):
    """One firm, one truth, two perceptions, and a coarse/fine structure pair.

    ``q_i`` is the perception of the favored group, ``q_j`` the other's.
    """

    _fields = ("firm", "p", "q_i", "q_j", "coarse", "fine")

    def __init__(
        self,
        firm: Firm,
        p: Dist,
        q_i: Dist,
        q_j: Dist,
        coarse: SignalStructure,
        fine: SignalStructure,
    ):
        if not (p.space == q_i.space == q_j.space == coarse.space == fine.space):
            raise InputError("scenario components use different skill spaces")
        if len(firm.tasks[0].surplus) != p.space.size:
            raise InputError("firm tasks and scenario cover different type counts")
        for name, d in (("true", p), ("q_i", q_i), ("q_j", q_j)):
            if not d.full_support:
                raise InputError(f"{name} distribution must have full support")
        self.__dict__.update(firm=firm, p=p, q_i=q_i, q_j=q_j, coarse=coarse, fine=fine)


def pay_gap(
    firm: Firm, p: Dist, q_i: Dist, q_j: Dist, sig: SignalStructure
) -> Number:
    """Average pay of the group perceived as ``q_i`` minus the other's."""
    return average_pay(firm, Population(p, q_i, sig)) - average_pay(
        firm, Population(p, q_j, sig)
    )


class GapRankingReport(NamedTuple):
    """Why one group out-earns the other under its finer structure.

    The pay difference splits into three parts: ``favorableness`` (same
    structure, better perception), then the perception-correcting and
    instrumental values of the favored group's extra information under
    the *other* group's perception.  Under the hypotheses every part is
    nonnegative, so the favored group earns at least as much.  ``signs``
    is ``check_signs``' report on those two parts; the monotone-firm,
    MLR and other-group perception hypotheses are read from it.
    """

    hypotheses: Mapping[str, bool]
    w_i: Number
    w_j: Number
    favorableness: Number
    correction: Number
    instrumental: Number
    conclusion_holds: bool
    signs: SignReport

    @property
    def all_hypotheses_hold(self) -> bool:
        return all(self.hypotheses.values())

    @property
    def violation(self) -> bool:
        return self.all_hypotheses_hold and not self.conclusion_holds

    @property
    def ok(self) -> bool:
        return not self.violation

    def summary(self) -> str:
        lines = [f"{k}: {v}" for k, v in self.hypotheses.items()]
        lines += [
            f"pay favored group:   {format_number(self.w_i)}",
            f"pay other group:     {format_number(self.w_j)}",
            f"favorableness part:  {format_number(self.favorableness)}",
            f"correction part:     {format_number(self.correction)}",
            f"instrumental part:   {format_number(self.instrumental)}",
            f"favored earns >=:    {self.conclusion_holds}",
        ]
        return "\n".join(lines)


def check_gap_ranking(
    scenario: GapScenario,
    kernel: GarblingKernel | None = None,
    tol: float | None = None,
) -> GapRankingReport:
    """Rank two groups that differ in perception *and* information.

    The favored group (``q_i``) holds the scenario's fine structure and
    the other group (``q_j``) its coarse one; ``kernel`` may witness that
    the coarse structure is a garbling of the fine one, otherwise one is
    found (``OrderingError`` when none exists).
    """
    firm, p, q_i, q_j = scenario.firm, scenario.p, scenario.q_i, scenario.q_j
    signs = check_signs(firm, p, q_j, scenario.coarse, scenario.fine, kernel, tol=tol)
    decomp = signs.result
    w_i = average_pay(firm, Population(p, q_i, scenario.fine))
    w_j = decomp.w_coarse
    favorableness = w_i - decomp.w_fine
    # check_signs classed q_j against p at this tol: p is LR-above q_j
    # exactly when q_j is under-perceived or accurate
    other_under = signs.perception in (
        PerceptionClass.UNDER_PERCEIVED, PerceptionClass.ACCURATE
    )
    hypotheses = {
        "monotone_firm": signs.monotone,
        "favored_structure_mlr": signs.fine_mlr,
        "other_under_perceived": other_under,
        "favored_perception_above": lr_geq(q_i, q_j, tol=tol),
    }
    slack, _ = claim_slacks(all_exact((w_i, w_j)), tol)
    return GapRankingReport(
        hypotheses=hypotheses,
        w_i=w_i,
        w_j=w_j,
        favorableness=favorableness,
        correction=decomp.perception_correcting,
        instrumental=decomp.instrumental,
        conclusion_holds=bool(w_i >= w_j - slack),
        signs=signs,
    )


class NarrowingReport(NamedTuple):
    """Gap comparison between the coarse and the fine structure."""

    hypotheses: Mapping[str, bool]
    baseline_lr: bool  # favored perception LR-above the other's
    gap_coarse: Number
    gap_fine: Number
    gap_change: Number
    star_holds: bool  # fine gap no wider than the coarse gap

    @property
    def all_hypotheses_hold(self) -> bool:
        return all(self.hypotheses.values())

    @property
    def violation(self) -> bool:
        return self.baseline_lr and self.all_hypotheses_hold and not self.star_holds

    @property
    def ok(self) -> bool:
        return not self.violation

    def summary(self) -> str:
        lines = [f"{k}: {v}" for k, v in self.hypotheses.items()]
        lines += [
            f"baseline LR order:  {self.baseline_lr}",
            f"gap under coarse:   {format_number(self.gap_coarse)}",
            f"gap under fine:     {format_number(self.gap_fine)}",
            f"gap change:         {format_number(self.gap_change)}",
            f"gap narrowed:       {self.star_holds}",
        ]
        return "\n".join(lines)


def check_narrowing(
    scenario: GapScenario,
    kernel: GarblingKernel | None = None,
    tol: float | None = None,
) -> NarrowingReport:
    """Evaluate the five narrowing hypotheses and the gap comparison.

    Raises ``OrderingError`` when the scenario's structures are not
    garbling-ordered and no kernel is supplied.
    """
    kernel = _resolve_kernel(scenario.fine, scenario.coarse, kernel, tol)
    firm, p, q_i, q_j = scenario.firm, scenario.p, scenario.q_i, scenario.q_j
    gap_coarse = pay_gap(firm, p, q_i, q_j, scenario.coarse)
    gap_fine = pay_gap(firm, p, q_i, q_j, scenario.fine)
    slight_i = is_slightly_more_informative(
        firm, q_i, scenario.fine, scenario.coarse, kernel, tol=tol
    )
    slight_j = is_slightly_more_informative(
        firm, q_j, scenario.fine, scenario.coarse, kernel, tol=tol
    )
    hypotheses = {
        "monotone_firm": firm.is_monotone,
        "fine_mlr": scenario.fine.values is not None and is_mlr(scenario.fine, tol),
        "favored_over_perceived": lr_geq(q_i, p, tol=tol),
        "other_under_perceived": lr_geq(p, q_j, tol=tol),
        "slight_gain": slight_i and slight_j,
    }
    slack, _ = claim_slacks(all_exact((gap_coarse, gap_fine)), tol)
    return NarrowingReport(
        hypotheses=hypotheses,
        baseline_lr=lr_geq(q_i, q_j, tol=tol),
        gap_coarse=gap_coarse,
        gap_fine=gap_fine,
        gap_change=gap_fine - gap_coarse,
        star_holds=bool(gap_fine <= gap_coarse + slack),
    )


class NearlyFullReport(NamedTuple):
    """Certificate that a near-full refinement narrows a positive gap.

    With a strictly positive coarse gap the claim applies to any fine
    structure within ``eps`` of full information.  With a zero coarse
    gap only the exact path is certified: the fine structure must be
    fully informative, making the fine gap zero as well.
    """

    eps: Number
    within_eps: bool
    monotone_firm: bool
    gap_coarse: Number
    gap_fine: Number
    ok: bool

    def summary(self) -> str:
        return "\n".join(
            [
                f"monotone firm:      {self.monotone_firm}",
                f"eps:                {format_number(self.eps)}",
                f"fine within eps:    {self.within_eps}",
                f"gap under coarse:   {format_number(self.gap_coarse)}",
                f"gap under fine:     {format_number(self.gap_fine)}",
                f"narrowed:           {self.ok}",
            ]
        )


def check_nearly_full(
    scenario: GapScenario, eps: Number, tol: float | None = None
) -> NearlyFullReport:
    """Check that the fine structure, if within ``eps`` of full
    information, does not widen the coarse gap."""
    firm, p, q_i, q_j = scenario.firm, scenario.p, scenario.q_i, scenario.q_j
    within = within_eps_of_full(scenario.fine, eps, tol=tol)
    gap_coarse = pay_gap(firm, p, q_i, q_j, scenario.coarse)
    gap_fine = pay_gap(firm, p, q_i, q_j, scenario.fine)
    slack, _ = claim_slacks(all_exact((gap_coarse, gap_fine)), tol)
    if gap_coarse > slack:
        ok = (not within) or gap_fine <= gap_coarse + slack
    elif gap_coarse >= -slack:
        ok = within_eps_of_full(scenario.fine, 0, tol=tol) and (
            -slack <= gap_fine <= slack
        )
    else:
        ok = True  # claim silent when the coarse gap already favors the other group
    return NearlyFullReport(
        eps=eps,
        within_eps=within,
        monotone_firm=firm.is_monotone,
        gap_coarse=gap_coarse,
        gap_fine=gap_fine,
        ok=bool(ok),
    )


class Counterexample(NamedTuple):
    """Named scenario violating exactly one narrowing hypothesis."""

    name: str
    violated: str
    scenario: GapScenario


def narrowing_counterexamples() -> tuple[Counterexample, ...]:
    """Five exact scenarios, one per hypothesis, where the fine
    structure strictly widens the gap while the other four hypotheses
    and the baseline LR order all hold."""
    bin_space = SkillSpace((0, 1))
    tri_space = SkillSpace((0, 1, 2))
    half = Dist(bin_space, (F(1, 2), F(1, 2)))
    q_hi = Dist(bin_space, (F(1, 4), F(3, 4)))
    q_lo = Dist(bin_space, (F(3, 4), F(1, 4)))
    theta_task = Firm((Task((0, 1)),))

    # one task rewarding the low type: full information equalizes pay at the
    # true mean, widening a gap that favored the group perceived as low-skilled
    decreasing = Counterexample(
        name="single-decreasing-task",
        violated="monotone_firm",
        scenario=GapScenario(
            firm=Firm((Task((1, 0)),)),
            p=half,
            q_i=q_hi,
            q_j=q_lo,
            coarse=uninformative_structure(bin_space),
            fine=fully_informative_structure(bin_space),
        ),
    )

    # the fine structure separates the middle type from the pooled extremes:
    # not MLR in either signal order, and the pool pays the favored group more
    delta = F(1, 25)
    pooled = Counterexample(
        name="pooled-extremes",
        violated="fine_mlr",
        scenario=GapScenario(
            firm=Firm((Task((0, 1, 2)),)),
            p=Dist(tri_space, (F(1, 4) - 3 * delta, F(1, 4) + delta, F(1, 2) + 2 * delta)),
            q_i=Dist(tri_space, (F(1, 4) - 6 * delta, F(1, 4) + 2 * delta, F(1, 2) + 4 * delta)),
            q_j=Dist(tri_space, (F(1, 4), F(1, 4), F(1, 2))),
            coarse=uninformative_structure(tri_space),
            fine=SignalStructure(
                tri_space,
                ("pool", "mid"),
                ((1, 0), (0, 1), (1, 0)),
                values=(0, 1),
            ),
        ),
    )

    # the favored group is perceived LR-below the truth, so its positive
    # perception-correcting value outruns the other group's
    favored_low = Counterexample(
        name="favored-under-perceived",
        violated="favored_over_perceived",
        scenario=GapScenario(
            firm=theta_task,
            p=Dist(bin_space, (F(1, 4), F(3, 4))),
            q_i=Dist(bin_space, (F(3, 4), F(1, 4))),
            q_j=Dist(bin_space, (F(5, 6), F(1, 6))),
            coarse=uninformative_structure(bin_space),
            fine=binary_symmetric_structure(bin_space, F(3, 4)),
        ),
    )

    # the other group is perceived LR-above the truth, so finer information
    # deflates its pay faster than the favored group's
    other_high = Counterexample(
        name="other-over-perceived",
        violated="other_under_perceived",
        scenario=GapScenario(
            firm=theta_task,
            p=Dist(bin_space, (F(3, 4), F(1, 4))),
            q_i=Dist(bin_space, (F(1, 6), F(5, 6))),
            q_j=Dist(bin_space, (F(1, 4), F(3, 4))),
            coarse=uninformative_structure(bin_space),
            fine=binary_symmetric_structure(bin_space, F(3, 4)),
        ),
    )

    # a refinement crossing the favored group's task-switch kink: the
    # reassignment payoff widens the gap
    kink = Counterexample(
        name="kink-crossing",
        violated="slight_gain",
        scenario=GapScenario(
            firm=Firm((Task((0, 1)), Task((-4, 4)))),
            p=half,
            q_i=q_hi,
            q_j=q_lo,
            coarse=binary_symmetric_structure(bin_space, F(9, 13)),
            fine=binary_symmetric_structure(bin_space, F(4, 5)),
        ),
    )

    return (decreasing, pooled, favored_low, other_high, kink)
