"""Objects built from ints defer their Fraction field and equal the
public constructor's object, before and after that field is first read.

``Dist``, ``SignalStructure`` and ``GarblingKernel`` objects made by the
generators, ``posterior``, ``garble`` and ``compose_kernels`` store only
their int form (and, for a matrix, the mask of its int entries); the
public field is built on first read.  Every check here runs on a fresh,
unread object, and again once the field has been read: ``repr``,
``hash``, ``==``, entry types, ``int_form``, the float twin, and the
copies ``pickle`` and ``deepcopy`` make.  The oracle is the public
constructor's object, built from Fractions and Python arithmetic on the
public entries of the inputs.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from infopay import Dist, GarblingKernel, SignalStructure
from infopay.garbling import compose_kernels, garble
from infopay.generators import (
    _int,
    extreme_structure,
    random_dist,
    random_garbling_pair,
    random_kernel,
    random_lr_above,
    random_mlr_structure,
    random_signal_structure,
    random_skill_space,
    trial_rng,
)
from infopay.model import fully_informative_structure, posterior


def int_kernel(rng, fine_signals, n_coarse):
    """A public kernel whose columns are point masses (ints) or Fractions
    spread over every coarse signal but the first, beside an int 0.  The
    first column is a point mass on the first coarse signal and the
    second a spread one, so every coarse signal is reached and the first
    coarse row may hold ints only."""
    cols = []
    for f in range(len(fine_signals)):
        if f == 0 or (f > 1 and _int(rng, 0, 1)):
            col = [0] * n_coarse
            col[_int(rng, 0, n_coarse - 1) if f else 0] = 1
        else:
            raw = [_int(rng, 1, 4) for _ in range(n_coarse - 1)]
            col = [0, *(F(v, sum(raw)) for v in raw)]
        cols.append(col)
    labels = tuple(f"k{s}" for s in range(n_coarse))
    return GarblingKernel(labels, fine_signals, tuple(zip(*cols)))


def produce(seed):
    """Fresh objects of one seed, none of them read: name -> (object,
    function giving the public constructor's object)."""
    rng = trial_rng(seed, 11)
    space = random_skill_space(rng, max_types=4)
    q = random_dist(rng, space)
    fine, coarse, kernel = random_garbling_pair(rng, space)
    mlr = random_mlr_structure(rng, space)
    inner = random_kernel(rng, fine.signals, 3)
    outer = random_kernel(rng, inner.coarse_signals, 2)
    full = fully_informative_structure(space)
    point = int_kernel(rng, full.signals, 3)
    point_outer = int_kernel(rng, point.coarse_signals, 2)
    eps = F(_int(rng, 0, 5), _int(rng, 1, 9))
    # the inputs the oracles read are not among the objects checked
    made = {
        "random_dist": random_dist(rng, space),
        "random_lr_above": random_lr_above(rng, q),
        "posterior": posterior(q, fine, fine.signals[-1]),
        "random_signal_structure": random_signal_structure(rng, space),
        "random_mlr_structure": mlr,
        "extreme_structure": extreme_structure(space, eps),
        "random_kernel": random_kernel(rng, fine.signals, 2),
        "garble": coarse,
        "garble-with-ints": garble(full, point),
        "garble-of-garble": garble(garble(full, point), point_outer),
        "compose_kernels": compose_kernels(outer, inner),
        "compose_kernels-with-ints": compose_kernels(point_outer, point),
    }
    oracles = {
        "posterior": lambda: bayes(q, fine, -1),
        "garble": lambda: mixed_structure(fine, kernel),
        "garble-with-ints": lambda: mixed_structure(full, point),
        "garble-of-garble": lambda: mixed_structure(
            mixed_structure(full, point), point_outer
        ),
        "compose_kernels": lambda: chained(outer, inner),
        "compose_kernels-with-ints": lambda: chained(point_outer, point),
    }
    return {
        name: (obj, oracles.get(name, lambda obj=obj: from_form(obj)))
        for name, obj in made.items()
    }


def from_form(obj):
    """The public object of a generator's form: every entry a Fraction."""
    if isinstance(obj, Dist):
        ints, scale = obj.int_form
        return Dist(obj.space, tuple(F(n, scale) for n in ints))
    rows, scale = obj.int_form
    fractions = tuple(tuple(F(n, scale) for n in row) for row in rows)
    if isinstance(obj, SignalStructure):
        return SignalStructure(obj.space, obj.signals, fractions, obj.values)
    return GarblingKernel(obj.coarse_signals, obj.fine_signals, fractions)


def bayes(q, sig, j):
    weights = [p * row[j] for p, row in zip(q.probs, sig.likelihood)]
    return Dist(q.space, tuple(w / sum(weights) for w in weights))


# Python arithmetic keeps an entry int exactly when its terms are ints
def mixed_structure(fine, kernel):
    rows = tuple(
        tuple(sum(g * v for g, v in zip(g_row, lik_row)) for g_row in kernel.matrix)
        for lik_row in fine.likelihood
    )
    return SignalStructure(fine.space, kernel.coarse_signals, rows)


def chained(outer, inner):
    rows = tuple(
        tuple(sum(g * h for g, h in zip(g_row, col)) for col in zip(*inner.matrix))
        for g_row in outer.matrix
    )
    return GarblingKernel(outer.coarse_signals, inner.fine_signals, rows)


def numbers(obj):
    return getattr(obj, obj._numbers)


def types(obj):
    values = numbers(obj)
    if isinstance(obj, Dist):
        return [type(v) for v in values]
    return [[type(v) for v in row] for row in values]


def unread(obj):
    return obj._numbers not in vars(obj)


def same_as(obj, public):
    """Check ``obj`` against the public object, reading ``obj`` last."""
    assert obj.int_form == public.int_form
    assert hash(obj) == hash(public)
    assert obj == public and public == obj and not obj != public
    assert repr(obj) == repr(public)
    assert types(obj) == types(public)
    if isinstance(obj, Dist):
        assert obj.full_support == public.full_support


def copies(obj):
    return pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)


CHECKS = {
    "int_form": lambda obj, public: obj.int_form == public.int_form,
    "hash": lambda obj, public: hash(obj) == hash(public),
    "eq": lambda obj, public: obj == public,
    "eq-reflected": lambda obj, public: public == obj,
    "repr": lambda obj, public: repr(obj) == repr(public),
    "types": lambda obj, public: types(obj) == types(public),
    "twin": lambda obj, public: repr(obj.to_float()) == repr(public.to_float()),
}


@pytest.mark.parametrize("read_first", (False, True), ids=("unread", "read"))
@pytest.mark.parametrize("check", tuple(CHECKS))
@pytest.mark.parametrize("seed", range(12))
def test_each_check_on_a_fresh_object(seed, check, read_first):
    for name, (obj, oracle) in produce(seed).items():
        assert unread(obj), name  # built from ints, no Fraction field yet
        if read_first:
            numbers(obj)
            assert not unread(obj)
        assert CHECKS[check](obj, oracle()), name


@pytest.mark.parametrize("read_first", (False, True), ids=("unread", "read"))
@pytest.mark.parametrize("seed", range(12))
def test_pickle_and_deepcopy_keep_the_value(seed, read_first):
    for name, (obj, oracle) in produce(seed).items():
        if read_first:
            numbers(obj)
        for clone in copies(obj):
            assert type(clone) is type(obj)
            assert unread(clone) is not read_first, name
            same_as(clone, oracle())
        assert unread(obj) is not read_first  # copying read nothing
        same_as(obj, oracle())


@pytest.mark.parametrize("seed", range(12))
def test_first_read_is_kept(seed):
    for name, (obj, _) in produce(seed).items():
        first = numbers(obj)
        assert numbers(obj) is first, name
        with pytest.raises(AttributeError):
            setattr(obj, obj._numbers, first)


def test_garble_and_compose_read_masks_not_entries():
    rng = trial_rng(3, 0)
    space = random_skill_space(rng, max_types=4)
    full = fully_informative_structure(space)
    point = int_kernel(rng, full.signals, 3)
    outer = int_kernel(rng, point.coarse_signals, 2)
    last = int_kernel(rng, outer.coarse_signals, 2)
    coarse = garble(full, point)
    chain = compose_kernels(outer, point)
    twice = garble(coarse, outer)
    chain_twice = compose_kernels(last, chain)
    # built from results whose own Fraction fields were never built
    assert unread(coarse) and unread(chain)
    for built, public in (
        (twice, mixed_structure(mixed_structure(full, point), outer)),
        (chain_twice, chained(last, chained(outer, point))),
    ):
        same_as(built, public)


def test_missing_attributes_raise_attribute_error():
    obj, _ = produce(0)["random_dist"]
    with pytest.raises(AttributeError, match="'Dist' object has no attribute 'nope'"):
        obj.nope
    assert not hasattr(obj, "likelihood")  # another class's numbers field
    assert unread(obj)
