"""``find_garbling`` against the two-type curve oracle.

On two types the likelihood-ratio curve test of ``blackwell_curve`` is
the garbling order itself, so ``find_garbling`` must find a kernel
exactly when the test passes: on every two-type program the garbling
suite builds (and its reverse, which is often infeasible), and on
independent pairs, most of them infeasible.  On three and four types a
type pair that fails the test refutes the garbling, so ``find_garbling``
must find none there.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from blackwell_curve import curve_allows, refuting_pair
from infopay.garbling import find_garbling
from infopay.generators import trial_rng
from infopay.model import SignalStructure, SkillSpace
from infopay.suites import _draw_garbling

SEEDS = (1, 5)
TRIALS = 100


def _structure(space, n_signals, draw_int, prefix):
    """A structure of Fractions on ``space`` from small drawn weights,
    each row over its sum, with no dead column and no empty row."""
    weights = [[draw_int(0, 4) for _ in range(n_signals)] for _ in range(space.size)]
    for j in range(n_signals):
        weights[draw_int(0, space.size - 1)][j] += 1
    for row in weights:
        if not any(row):
            row[draw_int(0, n_signals - 1)] = 1
    rows = [[F(w, sum(row)) for w in row] for row in weights]
    labels = tuple(f"{prefix}{j}" for j in range(n_signals))
    return SignalStructure(space, labels, rows)


def _pair(n_types, draw_int):
    """An independent (fine, coarse) pair of 1 to 4 signals each."""
    space = SkillSpace(tuple(range(n_types)))
    fine = _structure(space, draw_int(1, 4), draw_int, "f")
    return fine, _structure(space, draw_int(1, 4), draw_int, "c")


def test_oracle_agrees_on_the_garbling_suite_programs():
    verdicts = []
    for seed in SEEDS:
        for trial in range(TRIALS):
            sig, flat, full, fine, coarse, _, _ = _draw_garbling(
                trial_rng(seed, trial), trial
            )
            if sig.space.size != 2:
                continue
            for a, b in ((sig, sig), (sig, flat), (full, sig), (fine, coarse)):
                for source, target in ((a, b), (b, a)):
                    feasible = find_garbling(source, target) is not None
                    assert curve_allows(source, target) == feasible, (seed, trial)
                    verdicts.append(feasible)
    assert True in verdicts and False in verdicts


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_oracle_agrees_on_independent_two_type_pairs(data):
    fine, coarse = _pair(2, lambda lo, hi: data.draw(st.integers(lo, hi)))
    assert curve_allows(fine, coarse) == (find_garbling(fine, coarse) is not None)


def test_a_refuting_type_pair_rules_out_a_garbling():
    rng = random.Random(11)
    refuted = 0
    for n_types in (3, 4):
        for _ in range(150):
            fine, coarse = _pair(n_types, rng.randint)
            if refuting_pair(fine, coarse) is not None:
                refuted += 1
                assert find_garbling(fine, coarse) is None
    assert refuted > 0
