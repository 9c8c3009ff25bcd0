"""Exactness decided at construction, and the int forms objects carry.

``Dist``, ``Task``, ``Firm``, ``SignalStructure`` and ``GarblingKernel``
classify their entries once.  Exact objects keep ``int_form = (ints,
scale)``, which must equal ``clear_denominators`` of their fields, and
validate in ints.  The validation they replaced, the Fraction and
tolerance checks of ``validate_prob_vector`` and the kernel constructor,
is kept here as the oracle: on exact rows the constructors must accept
and reject exactly as it does, with the same message.  The hot paths
must read the cached forms and never clear denominators again, and the
producers that hold ints must build from them, not from Fractions.
"""

import copy
import pickle
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    binary_symmetric_structure,
    decompose,
    extremeness_eps_bound,
    garble,
    is_mlr,
    is_slightly_more_informative,
    kernel_reproduces,
    lr_geq,
    uninformative_structure,
    within_eps_of_full,
)
from infopay.generators import (
    extreme_structure,
    random_dist,
    random_firm,
    random_garbling_pair,
    random_kernel,
    random_lr_above,
    random_mlr_structure,
    random_signal_structure,
    random_skill_space,
    trial_rng,
)
from infopay.model import pay_table, posterior
from infopay.numeric import (
    DIST_SUM_TOL,
    LP_TOL,
    all_exact,
    clear_denominators,
    format_number,
)

# -- the validation oracle -------------------------------------------------------


def oracle_prob_vector(probs, what):
    """The Fraction check the constructors replaced (raises or returns)."""
    for k, v in enumerate(probs):
        if v < 0:
            raise InputError(f"{what}: entry {k} is negative ({format_number(v)})")
    total = sum(probs)
    tol = 0 if all_exact(probs) else DIST_SUM_TOL
    if not (1 - tol <= total <= 1 + tol):
        raise InputError(f"{what}: entries sum to {format_number(total)}, expected 1")


def oracle_kernel(fine_signals, matrix):
    flat = [v for row in matrix for v in row]
    tol = 0 if all_exact(flat) else LP_TOL
    for row in matrix:
        for v in row:
            if v < -tol or v > 1 + tol:
                raise InputError("kernel entries must lie in [0, 1]")
    for f in range(len(fine_signals)):
        col = sum(matrix[s][f] for s in range(len(matrix)))
        if not (1 - tol <= col <= 1 + tol):
            raise InputError(
                f"kernel column for fine signal "
                f"{fine_signals[f]!r} sums to {format_number(col)}, expected 1"
            )


def outcome(fn, *args):
    """None when ``fn`` accepts, else the InputError message."""
    try:
        fn(*args)
    except InputError as exc:
        return str(exc)
    return None


# -- strategies ----------------------------------------------------------------


@st.composite
def exact_rows(draw, width=None):
    """Exact rows near the simplex: ints and Fractions (int-valued ones
    included), sometimes a negative entry, sometimes a sum off by
    1/10^k."""
    n = width or draw(st.integers(2, 5))
    den = draw(st.integers(1, 12))
    nums = [draw(st.integers(0, 6)) for _ in range(n)]
    if not any(nums):
        nums[0] = 1
    total = sum(nums)
    row = [F(v * den, total * den) for v in nums]
    row = [int(v) if v.denominator == 1 and draw(st.booleans()) else v for v in row]
    change = draw(st.sampled_from(("none", "none", "negative", "off")))
    k = draw(st.integers(0, n - 1))
    if change == "negative":
        row[k] -= row[k] + F(1, draw(st.integers(1, 9)))
    elif change == "off":
        row[k] += draw(st.sampled_from((1, -1))) * F(1, 10 ** draw(st.integers(1, 40)))
    return tuple(row)


SPACE = SkillSpace((0, 1, 2))


@settings(max_examples=200, deadline=None)
@given(exact_rows(width=3))
def test_dist_validates_like_the_oracle(probs):
    got = outcome(Dist, SPACE, probs)
    assert got == outcome(oracle_prob_vector, probs, "distribution")
    if got is None:
        d = Dist(SPACE, probs)
        (ints,), scale = clear_denominators((probs,))
        assert d.int_form == (tuple(ints), scale)
        assert d.full_support == all(v > 0 for v in probs)


@settings(max_examples=200, deadline=None)
@given(st.lists(exact_rows(width=3), min_size=3, max_size=3))
def test_structure_validates_like_the_oracle(rows):
    def oracle():
        for k, row in enumerate(rows):
            oracle_prob_vector(row, f"likelihood row for type index {k}")
        for j, label in enumerate("abc"):
            if not any(row[j] > 0 for row in rows):
                raise InputError(f"signal {label!r} has zero likelihood everywhere")

    got = outcome(SignalStructure, SPACE, ("a", "b", "c"), rows)
    assert got == outcome(oracle)
    if got is None:
        sig = SignalStructure(SPACE, ("a", "b", "c"), rows)
        ints, scale = clear_denominators(rows)
        assert sig.int_form == (tuple(map(tuple, ints)), scale)


@settings(max_examples=200, deadline=None)
@given(st.lists(exact_rows(width=2), min_size=3, max_size=3))
def test_kernel_validates_like_the_oracle(cols):
    matrix = tuple(zip(*cols))  # columns drawn near the simplex
    got = outcome(GarblingKernel, ("c0", "c1"), ("f0", "f1", "f2"), matrix)
    assert got == outcome(oracle_kernel, ("f0", "f1", "f2"), matrix)
    if got is None:
        kernel = GarblingKernel(("c0", "c1"), ("f0", "f1", "f2"), matrix)
        ints, scale = clear_denominators(matrix)
        assert kernel.int_form == (tuple(map(tuple, ints)), scale)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generated_forms_equal_cleared_fields(seed):
    rng = trial_rng(seed, 0)
    space = random_skill_space(rng, max_types=4)
    firm = random_firm(rng, space.size)
    fine, coarse, kernel = random_garbling_pair(rng, space)
    p = random_dist(rng, space)

    def cleared(rows):
        ints, scale = clear_denominators(rows)
        return tuple(map(tuple, ints)), scale

    def cleared_row(row):
        (ints,), scale = cleared((row,))
        return ints, scale

    assert p.int_form == cleared_row(p.probs)
    assert firm.int_form == cleared([t.surplus for t in firm.tasks])
    for task in firm.tasks:
        assert task.int_form == cleared_row(task.surplus)
    for sig in (fine, coarse):
        assert sig.int_form == cleared(sig.likelihood)
    assert kernel.int_form == cleared(kernel.matrix)
    for obj in (p, firm, fine, coarse, kernel, *firm.tasks):
        assert obj.to_float().int_form is None


def test_mixed_objects_carry_no_int_form():
    assert Dist(SPACE, (F(1, 2), 0.25, 0.25)).int_form is None
    assert Task((1, 2.5)).int_form is None
    assert Firm((Task((1, 2, 3)), Task((0.5, 1, 2)))).int_form is None
    assert Firm((Task((1, 2, 3)), Task((F(1, 2), 1, 2)))).int_form == (
        ((2, 4, 6), (1, 2, 4)), 2,
    )
    mixed = SignalStructure(SPACE, ("a", "b"), ((F(1, 2), F(1, 2)), (0.5, 0.5), (1, 0)))
    assert mixed.int_form is None
    kernel = GarblingKernel(("c",), ("a", "b"), ((1, 1.0),))
    assert kernel.int_form is None
    # a float row next to exact ones keeps its own tolerance
    SignalStructure(SPACE, ("a", "b"), ((F(1, 3), F(2, 3)), (0.5, 0.5 + 1e-12), (1, 0)))


# -- the entry classifier ----------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: Dist(SkillSpace((0, 1)), (True, False)),
        lambda: Dist(SkillSpace((0, 1)), ("0.5", "0.5")),
        lambda: Dist(SkillSpace((0, 1)), (None, 1)),
        lambda: Task(("1", "2")),
        lambda: Task((1, True)),
        lambda: SkillSpace(("1", "2")),
        lambda: SkillSpace((False, True)),
        lambda: SignalStructure(SkillSpace((0, 1)), ("a",), ((True,), (1,))),
        lambda: SignalStructure(
            SkillSpace((0, 1)), ("a", "b"), ((1, 0), (0, 1)), values=("x", "y")
        ),
        lambda: GarblingKernel(("c",), ("a",), ((True,),)),
        lambda: within_eps_of_full(
            SignalStructure(SkillSpace((0, 1)), ("a",), ((1,), (1,))), True
        ),
        lambda: binary_symmetric_structure(SkillSpace((0, 1)), "0.5"),
        lambda: extremeness_eps_bound(Dist(SkillSpace((0, 1)), (F(1, 2), F(1, 2))), "x"),
    ],
)
def test_bools_and_non_numbers_raise_input_error(build):
    with pytest.raises(InputError, match="is not a number"):
        build()


def test_numpy_scalars_take_the_float_path():
    d = Dist(SkillSpace((0, 1)), (np.float64(0.25), np.float64(0.75)))
    assert d.int_form is None and d.full_support
    t = Task((np.int64(1), np.int64(3)))
    assert t.int_form is None and t.is_increasing


# -- the cache is invisible to equality, hashing, repr and copies --------------

# the fields each public constructor takes, in order: the value's fields
INIT_FIELDS = {
    SkillSpace: ("thetas",),
    Dist: ("space", "probs"),
    Task: ("surplus",),
    Firm: ("tasks",),
    SignalStructure: ("space", "signals", "likelihood", "values"),
    Population: ("p", "q", "sig"),
    GarblingKernel: ("coarse_signals", "fine_signals", "matrix"),
    GapScenario: ("firm", "p", "q_i", "q_j", "coarse", "fine"),
}
CACHED = ("int_form", "full_support", "_float_twin")


def objects():
    space = SkillSpace((0, 1))
    sig = SignalStructure(space, ("a", "b"), ((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))))
    kernel = GarblingKernel(("c",), ("a", "b"), ((1, 1),))
    p, q = Dist(space, (F(1, 4), F(3, 4))), Dist(space, (F(1, 2), F(1, 2)))
    pop = Population(p, q, sig)
    scenario = GapScenario(
        Firm((Task((0, 1)),)), q, p, q, uninformative_structure(space), sig
    )
    for obj in (pop, scenario):
        obj.to_float()  # the space now caches its float twin
    return [
        Dist(space, (F(1, 4), F(3, 4))),
        Dist(space, (0.25, 0.75)),
        Task((1, F(5, 2))),
        Firm((Task((1, 2)), Task((F(1, 3), 3)))),
        sig,
        sig.to_float(),
        kernel,
        kernel.to_float(),
        space,
        space.to_float(),
        pop,
        pop.to_float(),
        scenario,
        scenario.to_float(),
    ]


@pytest.mark.parametrize("obj", objects(), ids=lambda o: type(o).__name__)
def test_cache_is_invisible(obj):
    names = INIT_FIELDS[type(obj)]
    values = [getattr(obj, n) for n in names]
    twin = type(obj)(*values)
    assert twin == obj and hash(twin) == hash(obj)
    assert obj != tuple(values)  # equal only to its own class
    assert not any(c in repr(obj) for c in CACHED)
    assert repr(obj) == f"{type(obj).__name__}(" + ", ".join(
        f"{n}={v!r}" for n, v in zip(names, values)
    ) + ")"
    form = getattr(obj, "int_form", None)
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert clone == obj and getattr(clone, "int_form", None) == form
    rebuilt = type(obj)(**dict(zip(names, values)))
    assert rebuilt == obj and getattr(rebuilt, "int_form", None) == form
    with pytest.raises(TypeError):
        type(obj)(**dict(zip(names, values)), int_form=None)


@pytest.mark.parametrize("obj", objects(), ids=lambda o: type(o).__name__)
def test_fields_cannot_be_assigned(obj):
    before = repr(obj), hash(obj)
    for name in (*INIT_FIELDS[type(obj)], *CACHED):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert (repr(obj), hash(obj)) == before


def test_replace_recomputes_the_form():
    d = Dist(SkillSpace((0, 1)), (F(1, 4), F(3, 4)))
    assert Dist(d.space, probs=(F(1, 6), F(5, 6))).int_form == ((1, 5), 6)
    assert Dist(d.space, probs=(0.5, 0.5)).int_form is None
    with pytest.raises(InputError, match="entries sum to"):
        Dist(d.space, probs=(F(1, 6), F(4, 6)))


# -- hot paths read the cache ------------------------------------------------------


def count_calls(monkeypatch, names):
    """The list every later call of ``names`` is appended to, through every
    name each package module imported (or defines)."""
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for mod_name, module in list(sys.modules.items()):
        if mod_name == "infopay" or mod_name.startswith("infopay."):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_hot_paths_make_no_exactness_scans(monkeypatch):
    rng = trial_rng(5, 0)
    space = random_skill_space(rng, max_types=4)
    firm = random_firm(rng, space.size, monotone=True)
    fine, coarse, kernel = random_garbling_pair(rng, space, mlr=True)
    p, q = random_dist(rng, space), random_dist(rng, space)

    calls = count_calls(monkeypatch, ("clear_denominators", "all_exact"))
    table = pay_table(firm, p, q, fine)
    assert table.exact
    assert kernel_reproduces(kernel, fine, coarse)
    garble(fine, kernel)
    decompose(firm, p, q, coarse, fine, kernel=kernel)
    is_slightly_more_informative(firm, q, fine, coarse, kernel)
    lr_geq(p, q)
    assert is_mlr(fine)
    assert calls == []


def test_int_producers_skip_the_fraction_round_trip(monkeypatch):
    rng = trial_rng(5, 1)
    space = random_skill_space(rng, max_types=4)
    calls = count_calls(
        monkeypatch, ("int_row", "validate_prob_vector", "clear_denominators")
    )
    q = random_dist(rng, space)
    fine = random_signal_structure(rng, space)
    mlr = random_mlr_structure(rng, space)
    kernel = random_kernel(rng, fine.signals, 3)
    hi = random_lr_above(rng, q)
    coarse = garble(fine, kernel)
    extreme = extreme_structure(space, F(1, 7))
    posts = [posterior(q, sig, label) for sig in (fine, mlr, coarse) for label in sig.signals]
    assert calls == []
    made = (q, fine, mlr, kernel, hi, coarse, extreme, *posts)
    assert None not in [obj.int_form for obj in made]
