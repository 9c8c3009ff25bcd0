"""Split of an information gain into perception-correcting and
instrumental parts.

Closed forms frozen here were derived by hand:

* reversal showcase (monotone single-task firm, skill line, coarse
  uninformative, fine fully revealing): total gain = p(hi) - q(hi),
  all of it perception-correcting;
* decreasing-task variant: the gain flips to p(lo) - q(lo);
* pooling showcase on three types: gain = -(d)/3 where the true
  distribution tilts by d against a fixed perception.
"""

import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infopay import (
    Dist,
    Firm,
    GarblingKernel,
    InputError,
    OrderingError,
    PerceptionClass,
    Population,
    SignalStructure,
    SkillSpace,
    Task,
    average_pay,
    binary_symmetric_structure,
    check_signs,
    decompose,
    fully_informative_structure,
    garble,
    uninformative_structure,
)
from infopay.generators import (
    random_dist,
    random_firm,
    random_garbling_pair,
    random_skill_space,
    trial_rng,
)
from joint_law import joint_law_decomposition

BIN = SkillSpace((0, 1))
TRI = SkillSpace((0, 1, 2))
SKILL_TASK = Firm((Task((0, 1)),))
SKILL_TASK3 = Firm((Task((0, 1, 2)),))
ANTI_TASK = Firm((Task((1, 0)),))
FIRM2 = Firm((Task((0, 1)), Task((-4, 4))))


def reversal_parts(p1, q1):
    p = Dist(BIN, (1 - p1, p1))
    q = Dist(BIN, (1 - q1, q1))
    return p, q, uninformative_structure(BIN), fully_informative_structure(BIN)


def test_reversal_showcase_decomposition():
    p, q, coarse, fine = reversal_parts(F(1, 2), F(3, 4))
    res = decompose(SKILL_TASK, p, q, coarse, fine)
    assert res.total == F(-1, 4)
    assert res.perception_correcting == F(-1, 4)
    assert res.instrumental == 0
    assert res.total == res.perception_correcting + res.instrumental


def test_reversal_general_closed_form():
    for p1, q1 in [(F(1, 3), F(2, 3)), (F(4, 5), F(1, 5)), (F(1, 2), F(1, 2))]:
        p, q, coarse, fine = reversal_parts(p1, q1)
        res = decompose(SKILL_TASK, p, q, coarse, fine)
        assert res.total == p1 - q1
        assert res.perception_correcting == p1 - q1
        assert res.instrumental == 0


def test_decreasing_task_flips_the_sign():
    # same setup, decreasing task: the gain is p(lo) - q(lo), so a firm
    # that over-perceives the high type now benefits from information
    p, q, coarse, fine = reversal_parts(F(1, 2), F(3, 4))
    res = decompose(ANTI_TASK, p, q, coarse, fine)
    assert res.total == F(1, 4)  # p(0) - q(0) = 1/2 - 1/4
    assert res.perception_correcting == F(1, 4)
    assert res.instrumental == 0


def test_pooling_showcase_three_types():
    d = F(1, 25)
    q = Dist(TRI, (F(1, 4), F(1, 4), F(1, 2)))
    p = Dist(TRI, (F(1, 4) - 3 * d, F(1, 4) + d, F(1, 2) + 2 * d))
    coarse = uninformative_structure(TRI)
    fine = SignalStructure(TRI, ("s02", "s1"), ((1, 0), (0, 1), (1, 0)), values=(0, 1))
    res = decompose(SKILL_TASK3, p, q, coarse, fine)
    assert res.perception_correcting == -d / 3
    assert res.instrumental == 0
    assert res.total == -d / 3


def test_pooling_showcase_sign_tracks_tilt():
    for d in (F(1, 25), F(-1, 25), F(1, 50), F(-1, 50)):
        q = Dist(TRI, (F(1, 4), F(1, 4), F(1, 2)))
        p = Dist(TRI, (F(1, 4) - 3 * d, F(1, 4) + d, F(1, 2) + 2 * d))
        coarse = uninformative_structure(TRI)
        fine = SignalStructure(
            TRI, ("s02", "s1"), ((1, 0), (0, 1), (1, 0)), values=(0, 1)
        )
        res = decompose(SKILL_TASK3, p, q, coarse, fine)
        assert res.perception_correcting == -d / 3
        assert (res.perception_correcting > 0) == (d < 0)


def test_total_matches_average_pay_difference():
    p = Dist(BIN, (F(2, 5), F(3, 5)))
    q = Dist(BIN, (F(1, 3), F(2, 3)))
    coarse = binary_symmetric_structure(BIN, F(3, 5))
    fine = binary_symmetric_structure(BIN, F(4, 5))
    res = decompose(FIRM2, p, q, coarse, fine)
    w_fine = average_pay(FIRM2, Population(p, q, fine))
    w_coarse = average_pay(FIRM2, Population(p, q, coarse))
    assert (res.w_fine, res.w_coarse) == (w_fine, w_coarse)
    assert res.total == w_fine - w_coarse
    assert res.total == res.perception_correcting + res.instrumental


def test_instrumental_forms_agree():
    # the signalwise form, sum_f m_p(f)/m_q(f) * (best(f) - mixed(f)),
    # folds the kernel into the coarse task first; every kernel column
    # sums to 1, so it equals decompose's joint form exactly
    p = Dist(BIN, (F(2, 5), F(3, 5)))
    q = Dist(BIN, (F(3, 4), F(1, 4)))
    coarse = binary_symmetric_structure(BIN, F(11, 20))
    fine = binary_symmetric_structure(BIN, F(9, 10))
    res = decompose(FIRM2, p, q, coarse, fine)
    signalwise = 0
    for f in range(fine.n_signals):
        lik = [row[f] for row in fine.likelihood]
        m_p = sum(a * b for a, b in zip(p.probs, lik))
        weights = [a * b for a, b in zip(q.probs, lik)]  # m_q times the posterior
        value = [sum(w * a for w, a in zip(weights, t.surplus)) for t in FIRM2.tasks]
        kept = zip(res.kernel.matrix, res.assignment_coarse)
        mixed = sum(g[f] * value[k] for g, k in kept)
        signalwise += m_p / sum(weights) * (max(value) - mixed)
    assert res.instrumental == signalwise
    assert res.instrumental > 0


def test_accurate_perception_kills_correction_term():
    p = Dist(BIN, (F(2, 5), F(3, 5)))
    coarse = binary_symmetric_structure(BIN, F(13, 20))
    fine = binary_symmetric_structure(BIN, F(17, 20))
    res = decompose(FIRM2, p, p, coarse, fine)
    assert res.perception_correcting == 0
    assert res.total == res.instrumental >= 0


def test_tie_break_does_not_change_the_identity():
    # the firm keeps its lowest optimal task; with the tasks reversed it
    # keeps the other one, and the identity holds either way
    p = Dist(BIN, (F(1, 2), F(1, 2)))
    q = Dist(BIN, (F(1, 4), F(3, 4)))
    coarse = binary_symmetric_structure(BIN, F(9, 13))  # ties at s0 under q
    fine = binary_symmetric_structure(BIN, F(4, 5))
    kept = []
    for firm in (FIRM2, Firm(FIRM2.tasks[::-1])):
        res = decompose(firm, p, q, coarse, fine)
        assert res.total == res.perception_correcting + res.instrumental
        assert res.instrumental >= 0
        kept.append(firm.tasks[res.assignment_coarse[0]])
    assert kept[0] != kept[1]


@pytest.mark.parametrize("side", ["coarse", "fine"])
def test_underflowing_signal_raises_input_error(side):
    # q puts 1e-300 on the only type that can send s1, so its perceived
    # frequency underflows to 0.0 although every validator accepts it
    space = BIN.to_float()
    p = Dist(space, (0.5, 0.5))
    q = Dist(space, (1e-300, 1.0))
    dying = SignalStructure(space, ("s0", "s1"), ((1.0, 1e-300), (1.0, 0.0)))
    if side == "coarse":
        coarse, fine = dying, dying
        kernel = GarblingKernel(("s0", "s1"), ("s0", "s1"), ((1.0, 0.0), (0.0, 1.0)))
    else:
        coarse, fine = uninformative_structure(space), dying
        kernel = GarblingKernel(coarse.signals, ("s0", "s1"), ((1.0, 1.0),))
    with pytest.raises(InputError, match=f"{side} signal 's1' has zero probability"):
        decompose(FIRM2.to_float(), p, q, coarse, fine, kernel=kernel)
    # the same firm and structures are fine under a perception that
    # does not underflow
    decompose(FIRM2.to_float(), p, p, coarse, fine, kernel=kernel)


def test_coarse_signal_unreachable_through_float_kernel_raises_input_error():
    # the kernel sends nothing to b, which float tolerance accepts because
    # b has likelihood 1e-9 < LP_TOL
    space = BIN.to_float()
    p = Dist(space, (0.5, 0.5))
    coarse = SignalStructure(space, ("a", "b"), ((1 - 1e-9, 1e-9), (1.0, 0.0)))
    fine = SignalStructure(space, ("f0", "f1"), ((0.8, 0.2), (0.2, 0.8)))
    kernel = GarblingKernel(("a", "b"), ("f0", "f1"), ((1.0, 1.0), (0.0, 0.0)))
    with pytest.raises(InputError, match="coarse signal 'b' is unreachable"):
        decompose(FIRM2.to_float(), p, p, coarse, fine, kernel=kernel)


def test_decompose_requires_ordered_structures():
    p = Dist(BIN, (F(1, 2), F(1, 2)))
    q = Dist(BIN, (F(1, 4), F(3, 4)))
    with pytest.raises(OrderingError):
        decompose(
            FIRM2,
            p,
            q,
            binary_symmetric_structure(BIN, F(4, 5)),
            binary_symmetric_structure(BIN, F(3, 5)),
        )


def test_assignments_reported_per_signal():
    p = Dist(BIN, (F(1, 2), F(1, 2)))
    q = Dist(BIN, (F(1, 4), F(3, 4)))
    coarse = uninformative_structure(BIN)
    fine = fully_informative_structure(BIN)
    res = decompose(FIRM2, p, q, coarse, fine)
    assert res.assignment_coarse == (1,)  # prior q favors the steep task
    assert res.assignment_fine == (0, 1)


# -- sign report ---------------------------------------------------------------


def test_sign_report_over_perceived():
    p, q, coarse, fine = reversal_parts(F(1, 2), F(3, 4))
    report = check_signs(SKILL_TASK, p, q, coarse, fine)
    assert report.monotone
    assert report.fine_mlr
    assert report.perception is PerceptionClass.OVER_PERCEIVED
    assert report.correction_sign_required == "nonpos"
    assert report.correction_sign_ok
    assert report.identity_ok
    assert report.instrumental_ok
    assert report.ok


def test_sign_report_skips_inapplicable_hypotheses():
    # decreasing task: correction is positive, but no sign is required
    # because the firm is not monotone
    p, q, coarse, fine = reversal_parts(F(1, 2), F(3, 4))
    report = check_signs(ANTI_TASK, p, q, coarse, fine)
    assert not report.monotone
    assert report.correction_sign_required is None
    assert report.correction_sign_ok is None
    assert report.result.perception_correcting == F(1, 4)
    # the rule the perception implies is still judged, and broken
    assert report.correction_sign_rule == "nonpos"
    assert report.correction_sign_holds is False
    assert report.identity_ok
    assert report.ok  # the unconditional claims still hold


def test_sign_report_floor_follows_tol():
    # r1 is within DEFAULT_TOL of a tie, so the fine side keeps the lower
    # task there while the coarse side keeps the other: instrumental -5e-11
    space = BIN.to_float()
    firm = Firm((Task((0.0, 1.0)), Task((1.0, 1.0 + 1e-10))))
    p = Dist(space, (0.5, 0.5))
    coarse = uninformative_structure(space).to_float()
    fine = fully_informative_structure(space).to_float()
    kernel = GarblingKernel(coarse.signals, fine.signals, ((1.0, 1.0),))
    report = check_signs(firm, p, p, coarse, fine, kernel, tol=1e-9)
    assert -1e-9 < report.result.instrumental < -1e-12
    assert report.identity_ok
    assert report.instrumental_ok
    assert not check_signs(firm, p, p, coarse, fine, kernel, tol=0.0).instrumental_ok


def test_float_near_tie_passes_default_instrumental_floor():
    # the tasks tie at r1 within DEFAULT_TOL, so the fine side keeps the
    # lower task with its own score and instrumental comes out -5e-11: a
    # tie deficit, which the default floor (on the tie scale) accepts
    space = BIN.to_float()
    firm = Firm((Task((0.0, 1.0)), Task((1.0, 1.0000000001))))
    p = Dist(space, (0.5, 0.5))
    coarse = uninformative_structure(space).to_float()
    fine = fully_informative_structure(space).to_float()
    report = check_signs(firm, p, p, coarse, fine)
    assert -1e-9 < report.result.instrumental < -1e-12
    assert report.identity_ok
    assert report.instrumental_ok
    assert report.ok


def test_sign_report_under_perceived():
    p, q, coarse, fine = reversal_parts(F(3, 4), F(1, 2))
    report = check_signs(SKILL_TASK, p, q, coarse, fine)
    assert report.perception is PerceptionClass.UNDER_PERCEIVED
    assert report.correction_sign_required == "nonneg"
    assert report.correction_sign_ok
    assert report.identity_ok
    assert report.ok


def test_sign_report_fails_on_identity_gap():
    # at tol 0 the rounding residue of a float identity is a failure,
    # though the other verdicts pass
    rng = trial_rng(3, 0)
    space = random_skill_space(rng)
    firm = random_firm(rng, space.size).to_float()
    p, q = random_dist(rng, space).to_float(), random_dist(rng, space).to_float()
    fine, _, kernel = random_garbling_pair(rng, space)
    fine, kernel = fine.to_float(), kernel.to_float()
    coarse = garble(fine, kernel)  # the kernel reproduces it with no slack
    report = check_signs(firm, p, q, coarse, fine, kernel, tol=0.0)
    assert report.result.identity_gap != 0
    assert report.instrumental_ok and report.correction_sign_ok is None
    assert not report.identity_ok
    assert not report.ok
    assert check_signs(firm, p, q, coarse, fine, kernel).ok


# near-MLR fine structure: type 1 sends the low signal 1e-8 more often
# than type 0, an MLR violation inside a slack of 1e-6
FLOAT_BIN = BIN.to_float()
NEAR_MLR = SignalStructure(
    FLOAT_BIN, ("lo", "hi"), ((0.5, 0.5), (0.5 + 1e-8, 0.5 - 1e-8)), values=(0, 1)
)
HALF = Dist(FLOAT_BIN, (0.5, 0.5))


def test_sign_report_judges_mlr_at_tol():
    coarse = uninformative_structure(FLOAT_BIN).to_float()
    report = check_signs(SKILL_TASK.to_float(), HALF, HALF, coarse, NEAR_MLR, tol=1e-6)
    assert report.fine_mlr
    assert report.correction_sign_required == "zero"
    assert report.ok
    assert not check_signs(SKILL_TASK.to_float(), HALF, HALF, coarse, NEAR_MLR).fine_mlr


def test_sign_report_judges_perception_at_tol():
    q = Dist(FLOAT_BIN, (0.5 + 1e-8, 0.5 - 1e-8))
    coarse = uninformative_structure(FLOAT_BIN).to_float()
    fine = fully_informative_structure(FLOAT_BIN).to_float()
    firm = SKILL_TASK.to_float()
    report = check_signs(firm, HALF, q, coarse, fine, tol=1e-6)
    assert report.perception is PerceptionClass.ACCURATE
    assert report.correction_sign_required == "zero"
    assert report.ok
    default = check_signs(firm, HALF, q, coarse, fine)
    assert default.perception is PerceptionClass.UNDER_PERCEIVED


@pytest.mark.parametrize(
    "q1, rule", [(F(1, 4), "nonneg"), (F(3, 4), "nonpos"), (F(1, 2), "zero")]
)
def test_every_sign_rule_accepts_an_exact_zero_correction(q1, rule):
    # fine = coarse = fully informative: nothing is learned, so the
    # correction is exactly 0 for every perception, on the boundary of
    # each rule, which must accept it with zero slack
    full = fully_informative_structure(BIN)
    p, q = Dist(BIN, (F(1, 2), F(1, 2))), Dist(BIN, (1 - q1, q1))
    report = check_signs(SKILL_TASK, p, q, full, full)
    assert report.result.perception_correcting == 0
    assert report.correction_sign_rule == rule
    assert report.correction_sign_required == rule
    assert report.correction_sign_ok is True


# -- randomized identity -------------------------------------------------------

frac9 = st.integers(1, 9)


@given(frac9, frac9, frac9, frac9, st.integers(11, 19), st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_identity_random_binary(pw, pv, qw, qv, lam_num, lam_den_shift):
    p = Dist(BIN, (F(pw, pw + pv), F(pv, pw + pv)))
    q = Dist(BIN, (F(qw, qw + qv), F(qv, qw + qv)))
    lam_fine = F(lam_num, 20)
    lam_coarse = F(1, 2) + (lam_fine - F(1, 2)) * F(lam_den_shift, 10)
    if lam_coarse > lam_fine:
        lam_coarse, lam_fine = lam_fine, lam_coarse
    coarse = binary_symmetric_structure(BIN, lam_coarse)
    fine = binary_symmetric_structure(BIN, lam_fine)
    res = decompose(FIRM2, p, q, coarse, fine)
    assert res.total == res.perception_correcting + res.instrumental
    assert res.instrumental >= 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_parts_match_joint_law_oracle(seed):
    rng = trial_rng(seed, 0)
    space = random_skill_space(rng)
    firm = random_firm(rng, space.size)
    p, q = random_dist(rng, space), random_dist(rng, space)
    fine, coarse, kernel = random_garbling_pair(rng, space)
    res = decompose(firm, p, q, coarse, fine, kernel)
    oracle = joint_law_decomposition(firm, p, q, coarse, fine, kernel)
    for name, want in oracle.items():
        assert getattr(res, name) == want, name


def test_decompositions_are_pinned():
    # one digest over exact and float decompositions of the theorem1
    # suite's arbitrary instance at both ends of every tie (the highest
    # end is the reversed firm's, its assignments read back): suite
    # renders show only pass counts, so a last-bit change in a float
    # part shows here
    digest = hashlib.sha256()
    for seed in range(4):
        for trial in range(50):
            rng = trial_rng(seed, trial)
            space = random_skill_space(rng)
            firm = random_firm(rng, space.size)
            p, q = random_dist(rng, space), random_dist(rng, space)
            fine, coarse, kernel = random_garbling_pair(rng, space)
            exact = (firm, p, q, coarse, fine, kernel)
            last = len(firm.tasks) - 1
            for firm, *rest in (exact, tuple(obj.to_float() for obj in exact)):
                digest.update(repr(decompose(firm, *rest)).encode())
                res = decompose(Firm(firm.tasks[::-1]), *rest)
                res = res._replace(
                    assignment_coarse=tuple(last - k for k in res.assignment_coarse),
                    assignment_fine=tuple(last - k for k in res.assignment_fine),
                )
                digest.update(repr(res).encode())
    assert digest.hexdigest() == (
        "bd2c836cd8b136718c0b6b9a5e6d65a4ce96db9e59b92db68fa0db9690f7151c"
    )
