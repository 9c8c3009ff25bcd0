"""Generated instances satisfy their advertised invariants exactly, and
the trial stream draws what numpy's ``default_rng((seed, trial))`` draws."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infopay import (
    Dist,
    InputError,
    SignalStructure,
    SkillSpace,
    check_narrowing,
    find_garbling,
    fosd_geq,
    is_mlr,
    kernel_reproduces,
    lr_geq,
)
from infopay.generators import (
    PRNG_ID,
    _int,
    extreme_structure,
    random_dist,
    random_firm,
    random_garbling_pair,
    random_kernel,
    random_lr_above,
    random_lr_chain,
    random_lr_pair,
    random_mlr_structure,
    random_narrowing_scenario,
    random_non_lr_pair,
    random_signal_structure,
    random_skill_space,
    random_task,
    trial_rng,
)


def all_fractions(values):
    return all(isinstance(v, (int, Fraction)) for v in values)


# seeds of one to seven 32-bit words: past four, the entropy overflows the
# SeedSequence pool and is mixed in afterwards
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64]),
    st.integers(0, 1000),
    st.integers(2**96, 2**224),
)
# width 0 draws nothing; widths near 2^31 reject about half their draws
WIDTHS = st.one_of(
    st.sampled_from([0, 1, 2**31 - 1, 2**31, 2**32 - 1]),
    st.integers(2, 12),
    st.integers(2**31 - 64, 2**31 + 64),
)


@settings(max_examples=300, deadline=None)
@given(
    seed=SEEDS,
    trial=st.one_of(st.integers(0, 100), st.integers(0, 2**70)),
    draws=st.lists(st.tuples(st.integers(-5, 5), WIDTHS), min_size=1, max_size=40),
)
def test_prng_identifier(seed, trial, draws):
    """The stream ``PRNG_ID`` names is numpy's, draw for draw (numpy is
    the test-time oracle only)."""
    assert PRNG_ID == "numpy:PCG64"
    rng, oracle = trial_rng(seed, trial), np.random.default_rng((seed, trial))
    for lo, width in draws:
        assert _int(rng, lo, lo + width) == int(oracle.integers(lo, lo + width + 1))


@pytest.mark.parametrize(
    "seed, trial",
    [(-1, 0), (0, -1), (1.5, 0), (True, 0), ("3", 0), (None, 0), (0, 2.0), (np.int64(3), 0)],
)
def test_trial_rng_rejects_bad_seeds(seed, trial):
    with pytest.raises(InputError, match="must be an integer of at least 0"):
        trial_rng(seed, trial)


@pytest.mark.parametrize("lo, hi", [(1, 0), (0, 2**32)])
def test_draw_rejects_empty_and_wide_ranges(lo, hi):
    with pytest.raises(InputError, match="draw range"):
        _int(trial_rng(0, 0), lo, hi)


def test_trial_streams_are_reproducible_and_distinct():
    a = random_dist(trial_rng(3, 5), random_skill_space(trial_rng(3, 5)))
    b = random_dist(trial_rng(3, 5), random_skill_space(trial_rng(3, 5)))
    c = random_dist(trial_rng(3, 6), random_skill_space(trial_rng(3, 6)))
    assert a == b
    assert a != c  # adjacent trials do not share a stream


def test_random_dist_exact_full_support():
    for trial in range(25):
        rng = trial_rng(11, trial)
        space = random_skill_space(rng)
        d = random_dist(rng, space)
        assert sum(d.probs) == 1
        assert d.full_support
        assert all_fractions(d.probs)


def test_random_signal_structure_invariants():
    for trial in range(25):
        rng = trial_rng(13, trial)
        space = random_skill_space(rng)
        sig = random_signal_structure(rng, space)
        for row in sig.likelihood:
            assert sum(row) == 1
            assert all_fractions(row)
        for j in range(sig.n_signals):
            assert any(row[j] > 0 for row in sig.likelihood)


def test_random_mlr_structure_is_mlr():
    for trial in range(25):
        rng = trial_rng(17, trial)
        space = random_skill_space(rng)
        sig = random_mlr_structure(rng, space)
        assert sig.values is not None
        assert is_mlr(sig)


def test_random_lr_pair_ordered():
    for trial in range(25):
        rng = trial_rng(19, trial)
        space = random_skill_space(rng)
        hi, lo = random_lr_pair(rng, space)
        assert lr_geq(hi, lo)
        assert fosd_geq(hi, lo)


def test_random_lr_chain_ordered():
    for trial in range(10):
        rng = trial_rng(23, trial)
        space = random_skill_space(rng)
        chain = random_lr_chain(rng, space)
        assert lr_geq(chain[0], chain[1])
        assert lr_geq(chain[1], chain[2])
        assert lr_geq(chain[0], chain[2])


def test_lr_above_an_exact_point_mass_stays_exact():
    # the int weights of an all-int point mass once went through int / int
    lo = Dist(SkillSpace((0, 1, 2)), (0, 1, 0))
    hi = random_lr_above(trial_rng(0, 0), lo)
    assert hi.probs == (0, 1, 0) and hi.int_form == ((0, 1, 0), 1)
    assert all(type(v) is Fraction for v in hi.probs)


def test_random_non_lr_pair_unordered():
    for trial in range(25):
        rng = trial_rng(29, trial)
        space = random_skill_space(rng)
        a, b = random_non_lr_pair(rng, space)
        assert not lr_geq(a, b)


def test_random_garbling_pair_is_ordered():
    for trial in range(15):
        rng = trial_rng(31, trial)
        space = random_skill_space(rng)
        fine, coarse, kernel = random_garbling_pair(rng, space)
        assert kernel_reproduces(kernel, fine, coarse)
        assert find_garbling(fine, coarse) is not None


def test_random_kernel_rows_reachable():
    for trial in range(15):
        rng = trial_rng(37, trial)
        space = random_skill_space(rng)
        sig = random_signal_structure(rng, space)
        kernel = random_kernel(rng, sig.signals, 3)
        for s in range(3):
            assert any(kernel.matrix[s][f] > 0 for f in range(sig.n_signals))
        for f in range(sig.n_signals):
            assert sum(kernel.matrix[s][f] for s in range(3)) == 1


def test_random_narrowing_scenario_within_hypotheses():
    for trial in range(10):
        rng = trial_rng(41, trial)
        scenario, kernel = random_narrowing_scenario(rng)
        report = check_narrowing(scenario, kernel=kernel)
        assert all(report.hypotheses.values()), report.hypotheses
        assert report.baseline_lr
        assert report.star_holds  # the narrowing claim itself


@pytest.mark.parametrize("eps", [Fraction(-1, 3), Fraction(-1, 2), -1, -0.5])
def test_extreme_structure_rejects_negative_eps(eps):
    # on three types, -1/2 puts the scale 1 + (n - 1) eps at 0; a negative
    # float meets the sign check before the exactness check
    with pytest.raises(InputError, match="eps must be nonnegative"):
        extreme_structure(SkillSpace((0, 1, 2)), eps)


def test_generators_reject_float_input():
    # generators build exact objects only; float variants come from to_float
    space = SkillSpace((0, 1, 2))
    with pytest.raises(InputError, match="exact distribution"):
        random_lr_above(trial_rng(0, 0), Dist(space, (0.25, 0.25, 0.5)))
    with pytest.raises(InputError, match="int or Fraction"):
        extreme_structure(space, 0.125)


def generated_reprs(seed):
    """The reprs of what every public generator returns on one stream."""
    rng = trial_rng(seed, 0)
    space = random_skill_space(rng)
    sig = random_signal_structure(rng, space)
    sig = SignalStructure(
        sig.space, sig.signals, sig.likelihood, tuple(range(sig.n_signals))
    )
    lo = random_dist(rng, space)
    out = [
        space,
        lo,
        random_task(rng, space.size),
        random_task(rng, space.size, monotone=True),
        random_firm(rng, space.size),
        sig,
        random_mlr_structure(rng, space),
        extreme_structure(space, Fraction(1, 7)),
        random_kernel(rng, sig.signals, _int(rng, 1, 4)),
        *random_garbling_pair(rng, space),
        *random_garbling_pair(rng, space, mlr=True),
        random_lr_above(rng, lo),
        *random_lr_pair(rng, space),
        *random_lr_chain(rng, space),
        *random_non_lr_pair(rng, space),
        *random_narrowing_scenario(rng),
    ]
    return [repr(obj) for obj in out]


def test_generated_objects_are_pinned():
    # repr shows Fraction(3, 1) where the value is the int 3, so the digest
    # pins entry types as well as values
    text = "\n".join(r for seed in range(20) for r in generated_reprs(seed))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "85fab49f672fb94cc38e18d5ec544da015888c1dbf7cb9a565e019da91bc0ff0"
