"""Stochastic orders on beliefs and signal structures."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infopay import (
    Dist,
    InputError,
    PerceptionClass,
    SignalStructure,
    SkillSpace,
    binary_symmetric_structure,
    fosd_geq,
    fully_informative_structure,
    is_mlr,
    lr_geq,
    perception_class,
    posterior,
    separating_signal_structure,
)

BIN = SkillSpace((0, 1))
TRI = SkillSpace((0, 1, 2))


def d(space, *probs):
    return Dist(space, tuple(probs))


# -- likelihood-ratio order ---------------------------------------------------


def test_lr_binary_reduces_to_high_type_mass():
    hi = d(BIN, F(1, 4), F(3, 4))
    lo = d(BIN, F(3, 4), F(1, 4))
    assert lr_geq(hi, lo)
    assert not lr_geq(lo, hi)
    assert lr_geq(hi, hi)


def test_lr_three_types():
    # ratios hi/lo must rise along the skill line
    q = d(TRI, F(1, 4), F(1, 4), F(1, 2))
    p = d(TRI, F(13, 100), F(29, 100), F(58, 100))
    q_up = d(TRI, F(1, 100), F(33, 100), F(66, 100))
    assert lr_geq(p, q)
    assert lr_geq(q_up, p)
    assert lr_geq(q_up, q)  # transitive instance
    assert not lr_geq(q, p)


def test_lr_requires_shared_space():
    with pytest.raises(InputError):
        lr_geq(d(BIN, F(1, 2), F(1, 2)), d(TRI, F(1, 3), F(1, 3), F(1, 3)))


# -- first-order stochastic dominance ----------------------------------------


def test_fosd_incomparable_pair():
    a = d(TRI, F(1, 5), F(3, 5), F(1, 5))
    b = d(TRI, F(2, 5), F(1, 5), F(2, 5))
    assert not fosd_geq(a, b)
    assert not fosd_geq(b, a)


def test_fosd_clear_shift():
    lo = d(TRI, F(1, 2), F(1, 4), F(1, 4))
    hi = d(TRI, F(1, 4), F(1, 4), F(1, 2))
    assert fosd_geq(hi, lo)
    assert not fosd_geq(lo, hi)


dist3 = st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)).map(
    lambda w: tuple(F(x, sum(w)) for x in w)
)


@given(dist3, st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
@settings(max_examples=80, deadline=None)
def test_lr_implies_fosd(base, bumps):
    # build an LR-above distribution via increasing multipliers
    lo = d(TRI, *base)
    mult = []
    acc = 0
    for b in bumps:
        acc += b
        mult.append(acc)
    weights = [w * m for w, m in zip(base, mult)]
    total = sum(weights)
    hi = d(TRI, *(w / total for w in weights))
    assert lr_geq(hi, lo)
    assert fosd_geq(hi, lo)


# -- monotone likelihood ratio for structures --------------------------------


def test_mlr_binary_symmetric():
    assert is_mlr(binary_symmetric_structure(BIN, F(4, 5)))
    assert is_mlr(binary_symmetric_structure(BIN, F(1, 2)))
    assert not is_mlr(binary_symmetric_structure(BIN, F(3, 10)))


def test_mlr_fully_informative():
    assert is_mlr(fully_informative_structure(TRI))


def test_mlr_pooling_outer_types_fails_under_any_value_order():
    rows = ((1, 0), (0, 1), (1, 0))  # reveals the middle type only
    assert not is_mlr(SignalStructure(TRI, ("s02", "s1"), rows, values=(0, 1)))
    flipped = ((0, 1), (1, 0), (0, 1))  # same structure, signals relabeled
    assert not is_mlr(SignalStructure(TRI, ("s1", "s02"), flipped, values=(0, 1)))


def test_mlr_requires_signal_values():
    with pytest.raises(InputError):
        is_mlr(SignalStructure(BIN, ("u0", "u1"), ((F(1, 2), F(1, 2)),) * 2))


# -- perception classes -------------------------------------------------------


def test_perception_classes():
    p = d(BIN, F(1, 2), F(1, 2))
    q_hi = d(BIN, F(1, 4), F(3, 4))
    q_lo = d(BIN, F(3, 4), F(1, 4))
    assert perception_class(p, q_hi) is PerceptionClass.OVER_PERCEIVED
    assert perception_class(p, q_lo) is PerceptionClass.UNDER_PERCEIVED
    assert perception_class(p, p) is PerceptionClass.ACCURATE


def test_perception_incomparable():
    p = d(TRI, F(1, 3), F(1, 3), F(1, 3))
    q = d(TRI, F(1, 2), F(1, 6), F(1, 3))
    assert perception_class(p, q) is PerceptionClass.INCOMPARABLE


@given(
    dist3,
    dist3,
    st.sampled_from(["", "p", "q", "pq"]),
    st.sampled_from([None, 0.0, 1e-3]),
)
@settings(max_examples=150, deadline=None)
def test_perception_class_is_both_lr_directions(p_probs, q_probs, floats, tol):
    p, q = d(TRI, *p_probs), d(TRI, *q_probs)
    p = p.to_float() if "p" in floats else p
    q = q.to_float() if "q" in floats else q
    want = {
        (True, True): PerceptionClass.ACCURATE,
        (True, False): PerceptionClass.UNDER_PERCEIVED,
        (False, True): PerceptionClass.OVER_PERCEIVED,
        (False, False): PerceptionClass.INCOMPARABLE,
    }[lr_geq(p, q, tol), lr_geq(q, p, tol)]
    assert perception_class(p, q, tol) is want
    assert perception_class(p, p, tol) is PerceptionClass.ACCURATE


# -- separating structures ----------------------------------------------------


def test_separating_structure_pools_exactly_one_pair():
    sig = separating_signal_structure(TRI, 0, 2)
    q = d(TRI, F(1, 4), F(1, 4), F(1, 2))
    pooled = posterior(q, sig, sig.signals[0])
    assert pooled.probs == (F(1, 3), 0, F(2, 3))
    revealed = posterior(q, sig, sig.signals[1])
    assert revealed.probs == (0, 1, 0)


def test_separating_structure_binary_is_uninformative():
    sig = separating_signal_structure(BIN, 0, 1)
    assert sig.n_signals == 1
    q = d(BIN, F(2, 5), F(3, 5))
    assert posterior(q, sig, sig.signals[0]).probs == q.probs


def test_separating_structure_validates_pair():
    with pytest.raises(InputError):
        separating_signal_structure(TRI, 2, 0)
    with pytest.raises(InputError):
        separating_signal_structure(TRI, 1, 1)
    with pytest.raises(InputError):
        separating_signal_structure(TRI, 0, 7)
    with pytest.raises(InputError):  # one past the last index
        separating_signal_structure(TRI, 0, 3)
    with pytest.raises(InputError):
        separating_signal_structure(TRI, -1, 1)
