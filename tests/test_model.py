"""Core model: posteriors, the pay table's task assignment, pay.

Expected values were derived by hand from the Bayes rule and frozen
here before the implementation was written.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infopay import (
    Dist,
    Firm,
    InputError,
    Population,
    SignalStructure,
    SkillSpace,
    Task,
    average_pay,
    binary_symmetric_structure,
    fully_informative_structure,
    posterior,
    uninformative_structure,
)
from infopay.model import pay_table
from posterior_argmax import argmax_task_set

# -- shared fixtures ---------------------------------------------------------

BIN = SkillSpace((0, 1))
TRI = SkillSpace((0, 1, 2))

# two-task firm from the pay-gap showcase: plain skill line and a steep
# task that is negative on low types
A_BAR = Task((0, 1))
A_TILDE = Task((-4, 4))
FIRM2 = Firm((A_BAR, A_TILDE))


def sym(lam):
    return binary_symmetric_structure(BIN, lam)


# -- construction invariants -------------------------------------------------


def test_skill_space_requires_two_increasing_types():
    with pytest.raises(InputError):
        SkillSpace((0,))
    with pytest.raises(InputError):
        SkillSpace((1, 1))
    with pytest.raises(InputError):
        SkillSpace((2, 1))


def test_dist_must_sum_to_one():
    with pytest.raises(InputError):
        Dist(BIN, (F(1, 2), F(1, 3)))
    with pytest.raises(InputError):
        Dist(BIN, (F(3, 2), F(-1, 2)))
    d = Dist(BIN, (F(1, 2), F(1, 2)))
    assert d.full_support


def test_signal_rows_must_be_stochastic():
    with pytest.raises(InputError):
        SignalStructure(BIN, ("s0", "s1"), ((F(1, 2), F(1, 3)), (0, 1)))


def test_dead_signal_column_rejected():
    # second signal has zero likelihood under every type
    with pytest.raises(InputError):
        SignalStructure(BIN, ("s0", "s1"), ((1, 0), (1, 0)))


def test_signal_values_must_ascend():
    with pytest.raises(InputError):
        SignalStructure(BIN, ("a", "b"), ((1, 0), (0, 1)), values=(1, 0))
    with pytest.raises(InputError):
        SignalStructure(BIN, ("a", "b"), ((1, 0), (0, 1)), values=(0, 0))


def test_duplicate_signal_labels_rejected():
    with pytest.raises(InputError):
        SignalStructure(BIN, ("s", "s"), ((1, 0), (0, 1)))


def test_firm_tasks_must_be_tasks():
    with pytest.raises(InputError, match="must be Task objects"):
        Firm((1, 2))


def test_monotone_means_strictly_increasing():
    assert Task((0, F(1, 2), 2)).is_increasing and Task((0.0, 0.5)).is_increasing
    for flat in (Task((0, 0, 1)), Task((0.0, 1.0, 1.0)), Task((1, 0))):
        assert not flat.is_increasing
    assert Firm((A_BAR, Task((-1, 2)))).is_monotone
    assert not Firm((A_BAR, Task((2, 2)))).is_monotone


def test_population_requires_full_support():
    sig = sym(F(4, 5))
    degenerate = Dist(BIN, (0, 1))
    with pytest.raises(InputError):
        Population(p=degenerate, q=Dist(BIN, (F(1, 2), F(1, 2))), sig=sig)


# -- posterior ---------------------------------------------------------------


def test_posterior_binary_symmetric():
    # q=(1/4,3/4), accuracy 4/5, high signal: weights (1/20, 12/20)
    q = Dist(BIN, (F(1, 4), F(3, 4)))
    post = posterior(q, sym(F(4, 5)), "s1")
    assert post.probs == (F(1, 13), F(12, 13))


def test_posterior_low_signal():
    q = Dist(BIN, (F(1, 4), F(3, 4)))
    post = posterior(q, sym(F(4, 5)), "s0")
    assert post.probs == (F(4, 7), F(3, 7))


def test_posterior_pooling_signal_three_types():
    # signal that pools types {0,2} and reveals type 1
    q = Dist(TRI, (F(1, 4), F(1, 4), F(1, 2)))
    sig = SignalStructure(TRI, ("s02", "s1"), ((1, 0), (0, 1), (1, 0)))
    post = posterior(q, sig, "s02")
    assert post.probs == (F(1, 3), 0, F(2, 3))
    assert not post.full_support


def test_posterior_uninformative_equals_prior():
    q = Dist(TRI, (F(1, 6), F(1, 3), F(1, 2)))
    sig = uninformative_structure(TRI)
    assert posterior(q, sig, sig.signals[0]).probs == q.probs


def test_posterior_unknown_label():
    q = Dist(BIN, (F(1, 2), F(1, 2)))
    with pytest.raises(InputError):
        posterior(q, sym(F(3, 5)), "nope")


def test_posterior_requires_full_support_prior():
    q = Dist(BIN, (1, 0))
    with pytest.raises(InputError):
        posterior(q, sym(F(3, 5)), "s0")


def test_posterior_of_an_underflowing_signal_raises_input_error():
    # every weight of signal b underflows: 1e-300 * 1e-300 is 0.0
    q = Dist(BIN, (1e-300, 1.0))
    sig = SignalStructure(BIN, ("a", "b"), ((1.0, 1e-300), (1.0, 0.0)))
    with pytest.raises(InputError, match="signal 'b' has zero probability under the prior"):
        posterior(q, sig, "b")
    assert posterior(q, sig, "a").probs == (1e-300, 1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Task((0.0, NAN)),
        lambda: Task((-INF, 0.0)),
        lambda: SkillSpace((0.0, INF)),
        lambda: SkillSpace((NAN, 1.0)),
        lambda: SignalStructure(BIN, ("s0", "s1"), ((1, 0), (0, 1)), values=(0.0, INF)),
        lambda: SignalStructure(BIN, ("s0", "s1"), ((1, 0), (0, 1)), values=(NAN, 1.0)),
    ],
    ids=["task-nan", "task-inf", "space-inf", "space-nan", "values-inf", "values-nan"],
)
def test_non_finite_numbers_rejected(build):
    with pytest.raises(InputError, match="not a finite number"):
        build()


# -- task assignment and pay -------------------------------------------------


def belief_row(belief, firm=FIRM2):
    """The pay-table row of the one signal that leaves ``belief`` unchanged."""
    flat = uninformative_structure(belief.space)
    return pay_table(firm, belief, belief, flat).rows[0]


def test_assign_task_picks_expected_surplus_maximizer():
    hi = Dist(BIN, (F(1, 4), F(3, 4)))  # steep task worth 2 beats 3/4
    lo = Dist(BIN, (F(3, 4), F(1, 4)))  # steep task is negative here
    assert belief_row(hi).task == 1 and belief_row(hi).ties == [1]
    assert belief_row(lo).task == 0 and belief_row(lo).ties == [0]


def test_assign_task_tie_break():
    # belief 4/7 on the high type makes both tasks worth exactly 4/7
    # the firm keeps the lowest, ties[0]; with its tasks reversed it
    # keeps the other end, ties[-1] of the original
    belief = Dist(BIN, (F(3, 7), F(4, 7)))
    row = belief_row(belief)
    assert row.ties == [0, 1]
    assert (row.task, row.score) == (row.ties[0], row.scores[0])
    rev = belief_row(belief, Firm(FIRM2.tasks[::-1]))
    assert rev.ties == [0, 1]
    assert FIRM2.tasks[::-1][rev.task] == FIRM2.tasks[row.ties[-1]]
    # the signal word is keyword-only: a positional tie rule is refused
    flat = uninformative_structure(BIN)
    with pytest.raises(TypeError):
        pay_table(FIRM2, belief, belief, flat, "highest")


def test_float_ties_within_default_tol():
    # the float tie rule: scores within DEFAULT_TOL on the posterior scale
    near = Dist(BIN, (3 / 7 - 1e-11, 4 / 7 + 1e-11))
    assert belief_row(near).ties == [0, 1]
    apart = Dist(BIN, (3 / 7 - 1e-6, 4 / 7 + 1e-6))
    assert belief_row(apart).ties == [1]


def test_worker_pay_binary():
    q = Dist(BIN, (F(1, 4), F(3, 4)))
    table = pay_table(FIRM2, q, q, sym(F(9, 13)))
    low, high = (F(r.score, r.m_q * table.surplus_scale) for r in table.rows)
    # low signal: posterior 4/7 on the high type, both tasks tie at 4/7
    assert low == F(4, 7)
    assert table.rows[0].ties == [0, 1]
    # high signal: posterior 27/31, steep task pays 4*(2*27/31 - 1)
    assert high == F(92, 31)


def test_pay_table_rejects_signals_the_truth_never_sends():
    # r0 has true frequency 0 (exact); b has 1e-300 * 1e-300 = 0.0 (float)
    half = Dist(BIN, (F(1, 2), F(1, 2)))
    with pytest.raises(InputError, match="signal 'r0' has zero probability under the true"):
        pay_table(FIRM2, Dist(BIN, (0, 1)), half, fully_informative_structure(BIN))
    dying = SignalStructure(BIN, ("a", "b"), ((1.0, 1e-300), (1.0, 0.0)))
    with pytest.raises(InputError, match="signal 'b' has zero probability under the true"):
        pay_table(FIRM2, Dist(BIN, (1e-300, 1.0)), half.to_float(), dying)


def test_structure_builders_check_their_parameters():
    for accuracy in (0, 1):
        sig = sym(accuracy)
        assert sig.likelihood == ((accuracy, 1 - accuracy), (1 - accuracy, accuracy))
    for accuracy in (F(-1, 10), F(11, 10)):
        with pytest.raises(InputError, match="accuracy must lie in"):
            sym(accuracy)


def test_average_pay_uninformative_showcase():
    # with no information, pay is the better of the perceived prior values
    p = Dist(BIN, (F(1, 2), F(1, 2)))
    q_i = Dist(BIN, (F(1, 4), F(3, 4)))
    q_j = Dist(BIN, (F(3, 4), F(1, 4)))
    sig = sym(F(1, 2))
    assert average_pay(FIRM2, Population(p, q_i, sig)) == 2
    assert average_pay(FIRM2, Population(p, q_j, sig)) == F(1, 4)


def test_average_pay_full_information_ignores_perception():
    # a fully revealing structure pays the true best surplus of each type
    p = Dist(BIN, (F(1, 2), F(1, 2)))
    for q1 in (F(1, 4), F(3, 4)):
        q = Dist(BIN, (1 - q1, q1))
        pop = Population(p, q, fully_informative_structure(BIN))
        assert average_pay(FIRM2, pop) == 2  # (0 + 4)/2


def test_average_pay_weights_true_distribution():
    # perception fixes pay per signal; averaging uses the true type mix
    p = Dist(BIN, (F(2, 3), F(1, 3)))
    q = Dist(BIN, (F(1, 4), F(3, 4)))
    sig = uninformative_structure(BIN)
    pop = Population(p, q, sig)
    # single signal, perceived value max(3/4, 4*(1/2)) = 2 for everyone
    assert average_pay(FIRM2, pop) == 2


# -- randomized invariants ---------------------------------------------------

probs2 = st.integers(1, 9).flatmap(
    lambda a: st.integers(1, 9).map(lambda b: (F(a, a + b), F(b, a + b)))
)


@given(probs2, st.integers(0, 10), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_worker_pay_dominates_every_task(pq, num, den):
    q = Dist(BIN, pq)
    lam = F(1, 2) + F(num, 20)
    sig = binary_symmetric_structure(BIN, lam)
    post = posterior(q, sig, "s1")
    table = pay_table(FIRM2, q, q, sig)
    row = table.rows[1]
    pay = F(row.score, row.m_q * table.surplus_scale)
    values = [sum(w * a for w, a in zip(post.probs, t.surplus)) for t in FIRM2.tasks]
    assert pay == max(values)
    assert values[row.task] == pay
    assert tuple(row.ties) == argmax_task_set(FIRM2, post)


@given(probs2, probs2)
@settings(max_examples=40, deadline=None)
def test_average_pay_matches_enumeration(pp, qq):
    # independent oracle: enumerate the (type, signal) joint directly
    p, q = Dist(BIN, pp), Dist(BIN, qq)
    sig = sym(F(7, 10))
    pop = Population(p, q, sig)
    total = 0
    for i in range(2):
        for s in sig.signals:
            post = posterior(q, sig, s)
            pay = max(
                sum(w * a for w, a in zip(post.probs, t.surplus)) for t in FIRM2.tasks
            )
            total += p.probs[i] * sig.likelihood[i][sig.index(s)] * pay
    assert average_pay(FIRM2, pop) == total
