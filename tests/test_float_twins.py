"""Float twins: ``to_float`` and the entry classifier on float entries.

A twin's entries must be the doubles ``float(Fraction(v))`` of its
source's, bit for bit, whether they come from the int form or from
``float(v)``.  Twins of objects on one exact space share one float
space.  Each twin is built directly from its doubles, and must equal
the object the public constructor builds from the same doubles: its
fields, ``int_form`` None and ``full_support``.  A value that rounds
badly (underflow to 0, two levels that collapse) is refused with the
constructor's own message, and a value beyond float range raises
``InputError`` naming the object.
"""

import copy
import pickle
import random
from fractions import Fraction as F

import numpy as np
import pytest

from infopay import (
    Dist,
    Firm,
    GapScenario,
    GarblingKernel,
    InputError,
    Population,
    SignalStructure,
    SkillSpace,
    Task,
    fully_informative_structure,
)
from infopay.generators import (
    random_dist,
    random_firm,
    random_garbling_pair,
    random_mlr_structure,
    random_narrowing_scenario,
    random_skill_space,
    trial_rng,
)
from infopay.numeric import exact_entries

# -- twins are bit-identical ------------------------------------------------------


def assert_entries(source, twin):
    assert len(source) == len(twin)
    for v, t in zip(source, twin):
        assert type(t) is float
        assert t.hex() == float(F(v)).hex(), (v, t)


def assert_rows(source, twin):
    assert len(source) == len(twin)
    for row, t_row in zip(source, twin):
        assert_entries(row, t_row)


def doubles(values):
    return tuple(float(F(v)) for v in values)


def public_twin(obj):
    """The public constructor applied to the doubles of ``obj``'s entries."""
    if isinstance(obj, SkillSpace):
        return SkillSpace(doubles(obj.thetas))
    if isinstance(obj, Dist):
        return Dist(public_twin(obj.space), doubles(obj.probs))
    if isinstance(obj, Task):
        return Task(doubles(obj.surplus))
    if isinstance(obj, SignalStructure):
        values = None if obj.values is None else doubles(obj.values)
        rows = tuple(map(doubles, obj.likelihood))
        return SignalStructure(public_twin(obj.space), obj.signals, rows, values)
    if isinstance(obj, GarblingKernel):
        rows = tuple(map(doubles, obj.matrix))
        return GarblingKernel(obj.coarse_signals, obj.fine_signals, rows)
    fields = [getattr(obj, name) for name in obj._fields]
    return type(obj)(*[
        tuple(map(public_twin, v)) if isinstance(v, tuple) else public_twin(v)
        for v in fields
    ])


def check_twin(obj):
    """Compare ``obj.to_float()`` with ``obj`` entry by entry, and with the
    public constructor's object on the same doubles; return it."""
    twin = obj.to_float()
    public = public_twin(obj)
    assert twin == public and repr(twin) == repr(public)
    if isinstance(obj, Dist):
        assert twin.full_support == public.full_support
    if isinstance(obj, SkillSpace):
        assert_entries(obj.thetas, twin.thetas)
        return twin
    if isinstance(obj, Population):
        for part, t_part in ((obj.p, twin.p), (obj.q, twin.q), (obj.sig, twin.sig)):
            assert part.to_float() == t_part
        assert twin.p.space is twin.q.space is twin.sig.space
        return twin
    if isinstance(obj, GapScenario):
        parts = ("firm", "p", "q_i", "q_j", "coarse", "fine")
        for name in parts:
            assert getattr(obj, name).to_float() == getattr(twin, name)
        spaces = [getattr(twin, name).space for name in parts[1:]]
        assert all(s is spaces[0] for s in spaces)
        return twin
    assert twin.int_form is None and public.int_form is None
    if isinstance(obj, Dist):
        assert_entries(obj.probs, twin.probs)
        assert twin.space is obj.space.to_float()
    elif isinstance(obj, Task):
        assert_entries(obj.surplus, twin.surplus)
    elif isinstance(obj, Firm):
        assert_rows([t.surplus for t in obj.tasks], [t.surplus for t in twin.tasks])
    elif isinstance(obj, SignalStructure):
        assert_rows(obj.likelihood, twin.likelihood)
        assert twin.signals == obj.signals
        if obj.values is None:
            assert twin.values is None
        else:
            assert_entries(obj.values, twin.values)
        assert twin.space is obj.space.to_float()
    elif isinstance(obj, GarblingKernel):
        assert_rows(obj.matrix, twin.matrix)
        assert (twin.coarse_signals, twin.fine_signals) == (
            obj.coarse_signals, obj.fine_signals,
        )
    else:
        raise AssertionError(f"no twin check for {type(obj).__name__}")
    return twin


@pytest.mark.parametrize("seed", range(40))
def test_generated_twins_are_bit_identical(seed):
    rng = trial_rng(seed, 3)
    space = random_skill_space(rng, max_types=4)
    firm = random_firm(rng, space.size)
    p, q = random_dist(rng, space), random_dist(rng, space)
    fine, coarse, kernel = random_garbling_pair(rng, space)
    valued = random_mlr_structure(rng, space)
    full = fully_informative_structure(space)
    scenario, narrowing_kernel = random_narrowing_scenario(rng)
    for obj in (
        space, firm, *firm.tasks, p, q, fine, coarse, kernel, valued, full,
        Population(p, q, fine), scenario, narrowing_kernel,
    ):
        check_twin(obj)
    assert fine.values is None and valued.values is not None
    # one exact space, one float twin
    twins = [obj.to_float() for obj in (p, q, fine, coarse, valued, full)]
    assert all(t.space is space.to_float() for t in twins)


def big(rng, bits):
    return rng.getrandbits(bits) + 1


def big_dist(rng, space):
    weights = [big(rng, rng.choice((40, 120, 400))) for _ in range(space.size)]
    return Dist(space, tuple(F(w, sum(weights)) for w in weights))


def big_row(rng, n):
    """A probability row over a scale near 10**40 (denominators vary)."""
    den = big(rng, 133)
    cuts = sorted(rng.randrange(den + 1) for _ in range(n - 1))
    return tuple(F(b - a, den) for a, b in zip([0, *cuts], [*cuts, den]))


@pytest.mark.parametrize("seed", range(30))
def test_large_numbers_twins_are_bit_identical(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    levels = sorted({F(big(rng, 120), big(rng, 100)) for _ in range(n)})
    space = SkillSpace((-(10**30) - 7, *levels))
    n = space.size
    tasks = (
        Task(tuple(F(big(rng, 110), big(rng, 100)) * rng.choice((1, -1)) for _ in range(n))),
        Task(tuple(big(rng, 100) for _ in range(n))),  # ints above 2**53
    )
    firm = Firm(tasks)
    p, q = big_dist(rng, space), big_dist(rng, space)
    rows = tuple(big_row(rng, 3) for _ in range(n))
    if any(not any(col) for col in zip(*rows)):  # keep every signal alive
        rows = (*rows[:-1], (F(1, 3), F(1, 3), F(1, 3)))
    sig = SignalStructure(space, ("a", "b", "c"), rows)
    valued = SignalStructure(
        space, ("a", "b", "c"), rows, values=(F(-(10**31), 3), 10**30 + 1, F(10**40, 7))
    )
    cols = [big_row(rng, 2) for _ in range(3)]
    kernel = GarblingKernel(("x", "y"), ("a", "b", "c"), tuple(zip(*cols)))
    scenario = GapScenario(firm, p, q, p, sig, valued)
    for obj in (space, *tasks, firm, p, q, sig, valued, kernel, Population(p, q, valued), scenario):
        check_twin(obj)


def test_mixed_objects_twin_through_float():
    space = SkillSpace((0, F(1, 3), 2.5))
    for obj in (
        space,
        Dist(space, (F(1, 3), 0.25, F(5, 12))),
        Task((F(10**30 + 1, 3), 0.5, 10**25 + 1)),
        Firm((Task((1, 2, 3)), Task((0.5, F(1, 7), 2)))),
        SignalStructure(
            space, ("a", "b"), ((F(1, 3), F(2, 3)), (0.5, 0.5), (1, 0)), values=(0.5, F(2, 3))
        ),
        GarblingKernel(("c", "d"), ("a", "b"), ((F(1, 3), 1.0), (F(2, 3), 0))),
    ):
        if not isinstance(obj, SkillSpace):
            assert obj.int_form is None
        check_twin(obj)


def test_one_exact_space_has_one_float_twin():
    space = SkillSpace((0, F(1, 2), 1))
    twin = space.to_float()
    assert space.to_float() is twin
    # the stored twin is invisible to equality, hashing and repr
    fresh = SkillSpace((0, F(1, 2), 1))
    assert fresh == space and hash(fresh) == hash(space)
    assert repr(space) == repr(fresh) == "SkillSpace(thetas=(0, Fraction(1, 2), 1))"
    for clone in (pickle.loads(pickle.dumps(space)), copy.deepcopy(space)):
        assert clone == space and clone.to_float() == twin
    # spaces that are equal but distinct keep their own twins
    assert fresh.to_float() == twin and fresh.to_float() is not twin
    p = Dist(space, (F(1, 4), F(1, 4), F(1, 2)))
    sig = fully_informative_structure(space)
    pop = Population(p, p, sig).to_float()
    assert pop.p.space is pop.q.space is pop.sig.space is twin


# -- values beyond float range ------------------------------------------------------


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: Task((10**400, 1)), "task surplus"),
        (lambda: Task((F(10**400, 3), 1)), "task surplus"),
        (lambda: Task((-(10**400), 0.5)), "task surplus"),  # mixed: the float(v) path
        (lambda: Firm((Task((0, 1)), Task((0, 10**400)))), "task surplus"),
        (lambda: SkillSpace((0, 10**400)), "skill levels"),
        (lambda: SkillSpace((0.5, F(10**400, 7))), "skill levels"),
        (
            lambda: SignalStructure(
                SkillSpace((0, 1)), ("a", "b"), ((1, 0), (0, 1)), values=(0, 10**400)
            ),
            "signal values",
        ),
    ],
)
def test_values_beyond_float_range_raise_input_error(build, what):
    obj = build()
    with pytest.raises(InputError, match=f"^{what}: a value is beyond float range"):
        obj.to_float()


def test_space_beyond_float_range_fails_its_objects_twins():
    space = SkillSpace((0, 10**400))
    d = Dist(space, (F(1, 2), F(1, 2)))
    with pytest.raises(InputError, match="^skill levels: "):
        d.to_float()


# -- twins keep their checks ----------------------------------------------------------

TINY = F(1, 10**400)  # positive, but 0.0 as a float
SUBNORMAL_GAP = F(1, 2**1100)  # below the least subnormal, 2**-1074: 0.0
BIN = SkillSpace((0, 1))
HALF = Dist(BIN, (F(1, 2), F(1, 2)))
FULL = fully_informative_structure(BIN)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: Population(Dist(BIN, (TINY, 1 - TINY)), HALF, FULL),
            "^true distribution must have full support$",
        ),
        (
            lambda: Population(HALF, Dist(BIN, (1 - TINY, TINY)), FULL),
            "^perceived distribution must have full support$",
        ),
        pytest.param(
            lambda: Population(
                Dist(BIN, (SUBNORMAL_GAP, 1 - SUBNORMAL_GAP)), HALF, FULL
            ),
            "^true distribution must have full support$",
            id="subnormal-gap-probability",
        ),
        (
            lambda: SignalStructure(BIN, ("a", "b"), ((1 - TINY, TINY), (1 - TINY, TINY))),
            "^signal 'b' has zero likelihood everywhere$",
        ),
        pytest.param(
            lambda: SignalStructure(
                BIN, ("a", "b"), ((1 - SUBNORMAL_GAP, SUBNORMAL_GAP), (1, 0))
            ),
            "^signal 'b' has zero likelihood everywhere$",
            id="subnormal-gap-column",
        ),
        (
            lambda: SkillSpace((1, 1 + F(1, 10**20))),
            "^skill levels must be strictly increasing$",
        ),
        (
            lambda: Dist(SkillSpace((1, 1 + F(1, 10**20))), (F(1, 2), F(1, 2))),
            "^skill levels must be strictly increasing$",
        ),
        (
            lambda: SignalStructure(
                BIN, ("a", "b"), ((1, 0), (0, 1)), values=(1, 1 + F(1, 10**20))
            ),
            "^signal values must be strictly increasing$",
        ),
    ],
)
def test_twins_keep_their_checks(build, message):
    obj = build()  # valid in exact arithmetic
    with pytest.raises(InputError, match=message) as twin_error:
        obj.to_float()
    # the public constructor on the same doubles refuses them alike
    with pytest.raises(InputError) as public_error:
        public_twin(obj)
    assert str(twin_error.value) == str(public_error.value)


# -- the entry classifier on float entries -------------------------------------------


class SubFloat(float):
    pass


@pytest.mark.parametrize(
    "values, exact",
    [
        ((0.5,), False),
        ((float("nan"),), False),
        ((float("inf"), -0.0), False),
        ((SubFloat(0.5),), False),
        ((np.float64(0.5),), False),
        ((np.int64(1),), False),
        ((1, F(1, 2)), True),
        ((1, F(1, 2), 0.5), False),
        ((0.5, 1, F(1, 2)), False),
        ((), True),
    ],
)
def test_classifier_verdicts(values, exact):
    assert exact_entries(values, "row") is exact


@pytest.mark.parametrize(
    "values, bad",
    [
        ((True,), "True"),
        (("0.5",), "'0.5'"),
        ((0.5, True), "True"),
        ((0.5, "x", 1), "'x'"),
        ((1, F(1, 2), 0.5, None), "None"),
        ((SubFloat(0.5), np.bool_(True)), r"(np\.)?True_?"),  # the repr varies
    ],
)
def test_classifier_errors(values, bad):
    with pytest.raises(InputError, match=f"^row: {bad} is not a number$"):
        exact_entries(values, "row")
