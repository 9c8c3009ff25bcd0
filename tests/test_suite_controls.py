"""Every suite claim can fail: one control per (suite, claim).

A passing suite shows nothing unless its judge would report a failure.
Each row of ``CONTROLS`` makes its claim book at least one failure, in
one of two ways:

* an instance control hands the suite's judge, with a fresh book, an
  instance outside the claim's hypotheses on which its statement is
  false;
* a fault control replaces one library function by a named wrong
  variant and runs the suite, for claims that hold on every valid
  instance (identities, and claims about what the library computes).

``test_every_booked_claim_has_a_control`` keeps the table complete: a
claim a suite books without a row fails it.  The boundary tests below
pin the comparisons a flipped operator would change only at equality.
"""

from fractions import Fraction as F

import pytest

from infopay import decomposition, suites
from infopay.discrimination import GapScenario, narrowing_counterexamples
from infopay.garbling import GarblingKernel
from infopay.generators import trial_rng
from infopay.model import (
    Dist,
    Firm,
    Population,
    SignalStructure,
    SkillSpace,
    Task,
    binary_symmetric_structure,
    uninformative_structure,
)
from infopay.suites import SUITE_NAMES, SUITES, _Book, run_suite

BIN = SkillSpace((0, 1))
TRI = SkillSpace((0, 1, 2))
HALF = Dist(BIN, (F(1, 2), F(1, 2)))
HIGH = Dist(BIN, (F(1, 4), F(3, 4)))  # LR-above HALF and LOW
LOW = Dist(BIN, (F(3, 4), F(1, 4)))
LOW_TASK = Firm((Task((1, 0)),))  # rewards the low type: not monotone
FLAT = uninformative_structure(BIN)
ONE_ROW = GarblingKernel(FLAT.signals, FLAT.signals, ((1,),))
COUNTEREXAMPLES = {c.violated: c for c in narrowing_counterexamples()}


def _draw(suite, trial=0):
    return SUITES[suite][0](trial_rng(1, trial), trial)


# -- instances outside the hypotheses --------------------------------------------


def pooled():
    """Monotone firm and an under-perceived truth, but a fine structure
    that pools the extreme types, so it is not MLR: the correction, and
    the whole gain, is -1/75 < 0, and the kept task's perceived value
    falls from the pooled signal (4/3) to the middle one (1)."""
    s = COUNTEREXAMPLES["fine_mlr"].scenario
    fine = SignalStructure(TRI, s.fine.signals, s.fine.likelihood, values=(0, 1))
    kernel = GarblingKernel(s.coarse.signals, fine.signals, ((1, 1),))
    return GapScenario(s.firm, s.p, s.q_j, s.q_j, s.coarse, fine), kernel


def truth_lr_below():
    """The truth LR-below the perception: behind the one coarse signal
    the true fine law puts 1/2 on the low signal, the perceived one 3/8."""
    fine = binary_symmetric_structure(BIN, F(3, 4))
    kernel = GarblingKernel(FLAT.signals, fine.signals, ((1, 1),))
    return GapScenario(Firm((Task((0, 1)),)), HALF, HIGH, HIGH, FLAT, fine), kernel


def theorem1_within(build):
    def inst():
        free, kernel, _, _ = _draw("theorem1")
        return (free, kernel, *build())
    return inst


def lemma1_low_task():
    """A firm that rewards the low type pays the group perceived high less."""
    _, _, _, bad, q_ref, firms = _draw("lemma1")
    return LOW_TASK, Population(HALF, HIGH, FLAT), LOW, bad, q_ref, firms


def lemma1_lr_pair():
    """The two perceptions are equal, so LR-ordered: equal pays are not
    strictly separated (the boundary of the strict comparison)."""
    firm, favored, lo, bad, _, firms = _draw("lemma1")
    return firm, favored, lo, bad, bad.q, firms


def low_task_gap():
    """Perceived high, but paid by a firm that rewards the low type."""
    return GapScenario(LOW_TASK, HALF, HIGH, LOW, FLAT, FLAT), ONE_ROW


def widening():
    """A narrowing counterexample: the firm is not monotone."""
    return COUNTEREXAMPLES["monotone_firm"].scenario, None


def prop2_row(name, violated, scenario):
    return lambda: ((name, violated, scenario),)


def swapped_baseline():
    s = COUNTEREXAMPLES["fine_mlr"].scenario
    return GapScenario(s.firm, s.p, s.q_j, s.q_i, s.coarse, s.fine)


def prop3_near_draw():
    """The first prop3 draw with a near-full scenario (a positive gap)."""
    return next(d for d in (_draw("prop3", t) for t in range(50)) if d[5] is not None)


def prop3_with(**parts):
    names = ("extreme", "delta", "eps", "bound", "fully", "near", "eta", "eps_c")
    return lambda: tuple(
        parts.get(name, part) for name, part in zip(names, prop3_near_draw())
    )


SYM = binary_symmetric_structure(BIN, F(3, 4))  # MLR, with signal values


def orders_swapped():
    """The pair the wrong way round: LOW is LR-below HIGH, not above."""
    return Population(LOW, HIGH, SYM), SYM, False


def orders_not_mlr():
    return Population(HIGH, LOW, SYM), pooled()[0].fine, False


def orders_called_equal():
    """A strictly LR-ordered pair, drawn as if it were one distribution."""
    return Population(HIGH, LOW, SYM), SYM, True


def flat_to_full():
    """The uninformative structure as the source, full information as its
    target."""
    sig, flat, full, *rest = _draw("garbling")
    return (flat, full, full, *rest)


def flat_as_full():
    """The uninformative structure as the source of the drawn one."""
    sig, flat, full, *rest = _draw("garbling")
    return (sig, flat, flat, *rest)


def full_from_fine():
    """Full information as the coarse structure of a drawn fine one."""
    sig, flat, full, fine, coarse, inner, outer = _draw("garbling")
    return sig, flat, full, fine, full, inner, outer


# -- named wrong variants of library functions -----------------------------------


def correction_negated(decompose):
    def variant(*args, **kwargs):
        res = decompose(*args, **kwargs)
        return res._replace(perception_correcting=-res.perception_correcting)
    return variant


def correction_negated_under_highest(decompose):
    def variant(firm, p, q, coarse, fine, kernel=None, tie_break="lowest", tol=None):
        res = decompose(firm, p, q, coarse, fine, kernel, tie_break, tol)
        if tie_break == "highest":
            res = res._replace(perception_correcting=-res.perception_correcting)
        return res
    return variant


def worst_fine_task(pay_table):
    """Each fine signal's task is its worst one, and its score that task's."""
    def variant(firm, p, q, sig, tie_break="lowest", what="signal"):
        table = pay_table(firm, p, q, sig, tie_break, what)
        if what != "fine signal":
            return table
        rows = []
        for r in table.rows:
            k = min(range(len(r.scores)), key=r.scores.__getitem__)
            rows.append(r._replace(task=k, score=r.scores[k]))
        return table._replace(rows=tuple(rows))
    return variant


def rows_reversed(kernel):
    return GarblingKernel(kernel.coarse_signals, kernel.fine_signals, kernel.matrix[::-1])


def witness_rows_reversed(find_garbling):
    def variant(*args, **kwargs):
        found = find_garbling(*args, **kwargs)
        return None if found is None else rows_reversed(found)
    return variant


def uniform_witness(find_garbling):
    """Every fine signal spread evenly over the coarse ones."""
    def variant(fine, coarse, tol=None):
        row = (F(1, coarse.n_signals),) * fine.n_signals
        return GarblingKernel(coarse.signals, fine.signals, (row,) * coarse.n_signals)
    return variant


def outer_rows_reversed(compose_kernels):
    return lambda outer, inner: compose_kernels(rows_reversed(outer), inner)


# -- the table -------------------------------------------------------------------


def instance(suite, build):
    """Judge ``build()`` as trial 0, exactly, with the suite's judge and a
    fresh book."""
    def run(monkeypatch):
        book = _Book()
        SUITES[suite][1](build(), 0, 0, None, book)
        return book.claims
    return run


def fault(suite, owner, name, variant, trials=10):
    """Run the suite with ``owner.name`` replaced by ``variant`` of it."""
    def run(monkeypatch):
        monkeypatch.setattr(owner, name, variant(getattr(owner, name)))
        result = run_suite(suite, trials=trials, seed=1)
        return {c.name: c for c in result.claims}
    return run


CONTROLS = {
    ("theorem1", "decomposition-identity"):
        fault("theorem1", decomposition, "decompose", correction_negated),
    ("theorem1", "identity-other-tiebreak"):
        fault("theorem1", decomposition, "decompose", correction_negated_under_highest),
    ("theorem1", "instrumental-nonneg"):
        fault("theorem1", decomposition, "pay_table", worst_fine_task),
    ("theorem1", "correction-sign-within-hypotheses"):
        instance("theorem1", theorem1_within(pooled)),
    ("theorem1", "conditional-task-value-monotone"):
        instance("theorem1", theorem1_within(pooled)),
    ("theorem1", "conditional-frequency-fosd"):
        instance("theorem1", theorem1_within(truth_lr_below)),
    ("theorem1", "lp-witness-kernel-agrees"):
        fault("theorem1", decomposition, "find_garbling", uniform_witness, 1),
    ("lemma1", "lr-favorable-earns-at-least"): instance("lemma1", lemma1_low_task),
    ("lemma1", "separating-structure-strictly-separates"):
        instance("lemma1", lemma1_lr_pair),
    ("corollary1", "information-gain-nonneg-when-under-perceived"):
        instance("corollary1", pooled),
    ("corollary1", "correction-nonneg-when-under-perceived"):
        instance("corollary1", pooled),
    ("corollary2", "hypotheses-constructed"): instance("corollary2", low_task_gap),
    ("corollary2", "favored-earns-at-least"): instance("corollary2", low_task_gap),
    ("corollary2", "three-terms-nonneg"): instance("corollary2", low_task_gap),
    ("corollary2", "terms-sum-to-gap"):
        fault("corollary2", decomposition, "decompose", correction_negated),
    ("prop1", "hypotheses-constructed"): instance("prop1", widening),
    ("prop1", "gap-narrowed"): instance("prop1", widening),
    ("prop2", "designated-hypothesis-fails-alone"): instance("prop2", prop2_row(
        "mislabelled", "fine_mlr", COUNTEREXAMPLES["monotone_firm"].scenario,
    )),
    ("prop2", "baseline-order-holds"): instance("prop2", lambda: (
        ("swapped", "fine_mlr", swapped_baseline()),
    )),
    ("prop2", "gap-widens"): instance("prop2", lambda: (
        ("narrowing", None, _draw("prop1")[0]),
    )),
    ("prop2", "frozen-gap-change-values"): instance("prop2", prop2_row(
        "relabelled", "monotone_firm", COUNTEREXAMPLES["fine_mlr"].scenario,
    )),
    ("prop3", "extremeness-bound-forces-extreme-posteriors"): instance(
        "prop3", prop3_with(
            extreme=Population(HIGH, HIGH, FLAT), delta=F(1, 10), eps=1, bound=1,
        ),
    ),
    ("prop3", "fully-informative-gap-zero"):
        instance("prop3", prop3_with(fully=low_task_gap()[0])),
    ("prop3", "near-full-narrows-positive-gap"):
        instance("prop3", prop3_with(near=low_task_gap()[0], eps_c=F(1, 100))),
    ("orders", "lr-implies-fosd"): instance("orders", orders_swapped),
    ("orders", "posterior-preserves-lr"): instance("orders", orders_swapped),
    ("orders", "mlr-construction-valid"): instance("orders", orders_not_mlr),
    ("orders", "perception-class-consistent"): instance("orders", orders_called_equal),
    ("garbling", "identity-target-feasible"):
        fault("garbling", suites, "find_garbling", witness_rows_reversed, 3),
    ("garbling", "uninformative-target-feasible"): instance("garbling", flat_to_full),
    ("garbling", "full-information-source-feasible"): instance("garbling", flat_as_full),
    ("garbling", "derived-garbling-recovered"): instance("garbling", full_from_fine),
    ("garbling", "composition-reproduces"):
        fault("garbling", suites, "compose_kernels", outer_rows_reversed, 3),
}


@pytest.mark.parametrize("suite, claim", CONTROLS, ids=[f"{s}/{c}" for s, c in CONTROLS])
def test_control_makes_its_claim_fail(suite, claim, monkeypatch):
    claims = CONTROLS[suite, claim](monkeypatch)
    assert claims[claim].failures > 0


def test_every_booked_claim_has_a_control():
    booked = {
        (name, c.name)
        for name in SUITE_NAMES
        for mode in ("rational", "float")
        for c in run_suite(name, trials=3, seed=1, mode=mode).claims
    }
    assert booked == set(CONTROLS)


# -- boundaries: comparisons that a flipped operator changes only at equality ----


def test_near_full_claim_holds_when_the_gap_is_unchanged():
    # refining to the same near-full structure leaves a positive gap as it
    # was: "does not widen" holds at equality (gap_fine <= gap_coarse)
    inst = list(prop3_near_draw())
    near = inst[5]
    inst[5] = GapScenario(near.firm, near.p, near.q_i, near.q_j, near.fine, near.fine)
    book = _Book()
    suites._judge_prop3(tuple(inst), 0, 0, None, book)
    stats = book.claims["near-full-narrows-positive-gap"]
    assert (stats.passes, stats.failures) == (1, 0)


def test_prop3_draw_keeps_looking_past_a_zero_gap(monkeypatch):
    # at seed 1, trial 29 the first coarse structure leaves no gap and the
    # second a positive one: the draw must go on to it (eta > 0, not >= 0)
    pay_gap, gaps = suites.pay_gap, []
    monkeypatch.setattr(
        suites, "pay_gap", lambda *args: gaps.append(pay_gap(*args)) or gaps[-1]
    )
    draw = _draw("prop3", trial=29)
    assert gaps[0] == 0 < gaps[-1] == draw[6]
    assert draw[5] is not None
