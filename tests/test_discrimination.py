"""Two-population pay gaps and gap-narrowing claims.

Gap values frozen below were computed by hand from exact posteriors:

* showcase populations (true mix 1/2, perceptions 3/4 and 1/4 on the
  high type, two tasks): gap 7/4 with no information, 0 under full
  information, 647/434 at accuracy 9/13, 144/91 at accuracy 4/5,
  37/22 at 3/5, 1247/782 at 13/20;
* single-task counterexample tuples: signed gap change 17/1920.
"""

import math
from fractions import Fraction as F

import pytest

from infopay import (
    Dist,
    Firm,
    GapScenario,
    InputError,
    OrderingError,
    Population,
    SignalStructure,
    SkillSpace,
    Task,
    average_pay,
    binary_symmetric_structure,
    check_gap_ranking,
    check_narrowing,
    check_nearly_full,
    decompose,
    find_garbling,
    fully_informative_structure,
    is_slightly_more_informative,
    narrowing_counterexamples,
    pay_gap,
    uninformative_structure,
)
from posterior_argmax import slight_pairwise

BIN = SkillSpace((0, 1))
FIRM2 = Firm((Task((0, 1)), Task((-4, 4))))
P_HALF = Dist(BIN, (F(1, 2), F(1, 2)))
Q_HI = Dist(BIN, (F(1, 4), F(3, 4)))
Q_LO = Dist(BIN, (F(3, 4), F(1, 4)))


def sym(lam):
    return binary_symmetric_structure(BIN, lam)


def showcase(coarse, fine):
    return GapScenario(
        firm=FIRM2, p=P_HALF, q_i=Q_HI, q_j=Q_LO, coarse=coarse, fine=fine
    )


# -- pay gap -------------------------------------------------------------------


def test_gap_endpoints():
    assert pay_gap(FIRM2, P_HALF, Q_HI, Q_LO, sym(F(1, 2))) == F(7, 4)
    assert pay_gap(FIRM2, P_HALF, Q_HI, Q_LO, sym(1)) == 0


def test_gap_interior_values():
    assert pay_gap(FIRM2, P_HALF, Q_HI, Q_LO, sym(F(9, 13))) == F(647, 434)
    assert pay_gap(FIRM2, P_HALF, Q_HI, Q_LO, sym(F(4, 5))) == F(144, 91)


def test_gap_is_antisymmetric():
    sig = sym(F(7, 10))
    assert pay_gap(FIRM2, P_HALF, Q_HI, Q_LO, sig) == -pay_gap(
        FIRM2, P_HALF, Q_LO, Q_HI, sig
    )


def test_scenario_validates_spaces():
    tri = SkillSpace((0, 1, 2))
    with pytest.raises(InputError):
        GapScenario(
            firm=FIRM2,
            p=P_HALF,
            q_i=Q_HI,
            q_j=Dist(tri, (F(1, 3), F(1, 3), F(1, 3))),
            coarse=sym(F(1, 2)),
            fine=sym(F(4, 5)),
        )


# -- two-population ranking ----------------------------------------------------


def test_gap_ranking_within_hypotheses():
    q_i = Dist(BIN, (F(2, 5), F(3, 5)))
    q_j = Dist(BIN, (F(3, 4), F(1, 4)))  # under-perceived vs p = 1/2
    report = check_gap_ranking(FIRM2, P_HALF, q_i, q_j, sym(F(4, 5)), sym(F(3, 5)))
    assert report.hypotheses == {
        "monotone_firm": True,
        "favored_structure_mlr": True,
        "other_under_perceived": True,
        "favored_perception_above": True,
    }
    assert report.favorableness >= 0
    assert report.correction >= 0
    assert report.instrumental >= 0
    # the two parts are judged by check_signs, under the other perception
    assert report.signs.result.perception_correcting == report.correction
    assert report.signs.correction_sign_required == "nonneg"
    assert report.signs.correction_sign_ok and report.signs.instrumental_ok
    assert report.w_i - report.w_j == (
        report.favorableness + report.correction + report.instrumental
    )
    assert report.w_j == average_pay(FIRM2, Population(P_HALF, q_j, sym(F(3, 5))))
    assert report.favorableness == report.w_i - average_pay(
        FIRM2, Population(P_HALF, q_j, sym(F(4, 5)))
    )
    assert report.conclusion_holds
    assert report.ok


# near-MLR fine structure: type 1 sends the low signal 1e-8 more often
# than type 0, an MLR violation inside a slack of 1e-6
FLOAT_BIN = BIN.to_float()
NEAR_MLR = SignalStructure(
    FLOAT_BIN, ("lo", "hi"), ((0.5, 0.5), (0.5 + 1e-8, 0.5 - 1e-8)), values=(0, 1)
)
NEAR_MLR_SCENARIO = GapScenario(
    firm=FIRM2.to_float(),
    p=P_HALF.to_float(),
    q_i=Q_HI.to_float(),
    q_j=Q_LO.to_float(),
    coarse=uninformative_structure(FLOAT_BIN).to_float(),
    fine=NEAR_MLR,
)


def test_gap_ranking_judges_mlr_at_tol():
    s = NEAR_MLR_SCENARIO
    for tol, mlr in ((1e-6, True), (None, False)):
        report = check_gap_ranking(
            s.firm, s.p, s.q_i, s.q_j, sig_i=s.fine, sig_j=s.coarse, tol=tol
        )
        assert report.hypotheses["favored_structure_mlr"] is mlr


def test_gap_ranking_requires_ordered_structures():
    with pytest.raises(OrderingError):
        check_gap_ranking(FIRM2, P_HALF, Q_HI, Q_LO, sym(F(3, 5)), sym(F(4, 5)))


# -- narrowing -----------------------------------------------------------------


def test_narrowing_within_hypotheses():
    report = check_narrowing(showcase(sym(F(3, 5)), sym(F(13, 20))))
    assert all(report.hypotheses.values())
    assert report.baseline_lr
    assert report.gap_coarse == F(37, 22)
    assert report.gap_fine == F(1247, 782)
    assert report.star_holds
    assert not report.violation


def test_narrowing_judges_mlr_at_tol():
    assert check_narrowing(NEAR_MLR_SCENARIO, tol=1e-6).hypotheses["fine_mlr"]
    assert not check_narrowing(NEAR_MLR_SCENARIO).hypotheses["fine_mlr"]


def test_narrowing_requires_ordered_structures():
    with pytest.raises(OrderingError):
        check_narrowing(showcase(sym(F(4, 5)), sym(F(3, 5))))


def test_narrowing_across_kink_is_not_slight():
    report = check_narrowing(showcase(sym(F(9, 13)), sym(F(4, 5))))
    failed = [k for k, v in report.hypotheses.items() if not v]
    assert failed == ["slight_gain"]
    assert not report.star_holds
    assert report.gap_change == F(517, 5642)
    assert not report.violation  # a hypothesis fails, so no claim is broken


def pairwise_slight_scenario():
    """Trial 2 of ``infopay suite prop1 --trials 10 --seed 1400116`` as the
    pairwise slightness check let it through.  Under ``q_i`` coarse signal
    c1 keeps tasks {0, 2}; the kernel links it to s0, which keeps {2}, and
    to s1, which keeps {0}."""
    space = SkillSpace((-3, -1))
    return GapScenario(
        firm=Firm((Task((0, 3)), Task((-2, 1)), Task((1, 2)))),
        p=Dist(space, (F(9, 13), F(4, 13))),
        q_i=Dist(space, (F(9, 17), F(8, 17))),
        q_j=Dist(space, (F(3, 4), F(1, 4))),
        coarse=SignalStructure(
            space, ("c0", "c1"), ((F(1, 3), F(2, 3)), (F(1, 4), F(3, 4)))
        ),
        fine=SignalStructure(
            space, ("s0", "s1"), ((F(2, 3), F(1, 3)), (F(1, 2), F(1, 2))),
            values=(0, 1),
        ),
    )


def test_pairwise_slight_counterexample_fails_slightness():
    s = pairwise_slight_scenario()
    kernel = find_garbling(s.fine, s.coarse)
    assert kernel.matrix == ((F(1, 2), 0), (F(1, 2), 1))
    for q in (s.q_i, s.q_j):
        assert slight_pairwise(s.firm, q, s.fine, s.coarse, kernel)
    assert not is_slightly_more_informative(s.firm, s.q_i, s.fine, s.coarse, kernel)
    assert is_slightly_more_informative(s.firm, s.q_j, s.fine, s.coarse, kernel)
    # no tie selection removes the favored group's instrumental part, so
    # its pay rises and the gap widens
    for tie_break, inst in (("lowest", F(4, 65)), ("highest", F(5, 91))):
        res = decompose(s.firm, s.p, s.q_i, s.coarse, s.fine, tie_break=tie_break)
        assert res.instrumental == inst
        assert res.total == F(47, 910)
    report = check_narrowing(s)
    failed = [k for k, v in report.hypotheses.items() if not v]
    assert failed == ["slight_gain"]
    assert (report.gap_coarse, report.gap_fine) == (F(313, 1430), F(368, 1365))
    assert not report.star_holds
    assert not report.violation  # the hypothesis fails, not the claim


# -- the five counterexample tuples --------------------------------------------


def test_counterexamples_each_break_exactly_their_hypothesis():
    tuples = narrowing_counterexamples()
    assert [t.violated for t in tuples] == [
        "monotone_firm",
        "fine_mlr",
        "favored_over_perceived",
        "other_under_perceived",
        "slight_gain",
    ]
    for record in tuples:
        report = check_narrowing(record.scenario)
        failed = [k for k, v in report.hypotheses.items() if not v]
        assert failed == [record.violated], record.name
        assert report.baseline_lr, record.name
        assert not report.star_holds, record.name
        assert report.gap_change > 0, record.name


def test_counterexample_gap_changes_frozen():
    tuples = {t.violated: t for t in narrowing_counterexamples()}
    r3 = check_narrowing(tuples["favored_over_perceived"].scenario)
    assert r3.gap_change == F(1, 10) - F(35, 384) == F(17, 1920)
    r4 = check_narrowing(tuples["other_under_perceived"].scenario)
    assert r4.gap_change == F(17, 1920)
    r5 = check_narrowing(tuples["slight_gain"].scenario)
    assert r5.gap_change == F(517, 5642)
    r1 = check_narrowing(tuples["monotone_firm"].scenario)
    assert r1.gap_change == F(1, 2)


# -- nearly full information ----------------------------------------------------


def test_nearly_full_narrows_positive_gap():
    scenario = showcase(uninformative_structure(BIN), sym(F(9, 10)))
    report = check_nearly_full(scenario, eps=F(1, 9))
    assert report.within_eps
    assert report.gap_coarse == F(7, 4)
    assert report.gap_fine == F(27, 28)
    assert report.ok
    unchanged = showcase(sym(F(9, 10)), sym(F(9, 10)))
    report = check_nearly_full(unchanged, eps=F(1, 9))
    assert report.within_eps and report.gap_fine == report.gap_coarse == F(27, 28)
    assert report.ok  # an equal gap is not a widening


def test_nearly_full_rejects_nan_eps():
    # a nan eps must not read as "not within eps", which passes vacuously
    (kink,) = [r for r in narrowing_counterexamples() if r.name == "kink-crossing"]
    with pytest.raises(InputError, match="eps must be a nonnegative number"):
        check_nearly_full(kink.scenario.to_float(), math.nan)


def test_nearly_full_zero_gap_needs_full_information():
    same = GapScenario(
        firm=FIRM2, p=P_HALF, q_i=Q_HI, q_j=Q_HI,
        coarse=uninformative_structure(BIN), fine=fully_informative_structure(BIN),
    )
    report = check_nearly_full(same, eps=0)
    assert report.gap_coarse == 0
    assert report.gap_fine == 0
    assert report.ok
    loose = GapScenario(
        firm=FIRM2, p=P_HALF, q_i=Q_HI, q_j=Q_HI,
        coarse=uninformative_structure(BIN), fine=sym(F(9, 10)),
    )
    report = check_nearly_full(loose, eps=F(1, 9))
    assert not report.ok  # zero coarse gap admits only the eps = 0 path
