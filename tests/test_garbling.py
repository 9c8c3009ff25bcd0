"""Informativeness order, garbling kernels, joint distributions.

The binary symmetric pair has a unique kernel, solved by hand from the
2x2 linear system and frozen here: mixing weight (c + f - 1)/(2f - 1)
for coarse accuracy c and fine accuracy f.
"""

import contextlib
import hashlib
import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infopay import (
    Dist,
    Firm,
    InputError,
    SignalStructure,
    SkillSpace,
    Task,
    binary_symmetric_structure,
    compose_kernels,
    extremeness_eps_bound,
    find_garbling,
    fully_informative_structure,
    garble,
    GarblingKernel,
    is_slightly_more_informative,
    kernel_reproduces,
    posterior,
    uninformative_structure,
    within_eps_of_full,
)
from infopay.generators import (
    random_dist,
    random_firm,
    random_garbling_pair,
    random_signal_structure,
    random_skill_space,
    trial_rng,
)
from fraction_simplex import condensed, fraction_feasible_point, fraction_program
from infopay import garbling, simplex
from infopay.numeric import ORDER_TOL
from infopay.suites import run_suite
from joint_law import build_joints
from posterior_argmax import slight_per_coarse_signal

BIN = SkillSpace((0, 1))
TRI = SkillSpace((0, 1, 2))
FIRM2 = Firm((Task((0, 1)), Task((-4, 4))))


def sym(lam):
    return binary_symmetric_structure(BIN, lam)


@contextlib.contextmanager
def fractions_built():
    """A list that gets the arguments of every ``Fraction`` built inside."""
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with mock.patch.object(F, "__new__", counting):
        yield built


# -- find_garbling ------------------------------------------------------------


def test_binary_symmetric_kernel_is_exact_and_unique():
    fine = sym(F(4, 5))
    coarse = sym(F(9, 13))
    kernel = find_garbling(fine, coarse)
    assert kernel is not None
    x = F(32, 39)  # (9/13 + 4/5 - 1) / (2*4/5 - 1)
    assert kernel.matrix == ((x, 1 - x), (1 - x, x))
    assert kernel_reproduces(kernel, fine, coarse)


def test_more_informative_direction_infeasible():
    assert find_garbling(sym(F(9, 13)), sym(F(4, 5))) is None


def test_identity_garbling():
    sig = sym(F(7, 10))
    kernel = find_garbling(sig, sig)
    assert kernel is not None
    assert kernel_reproduces(kernel, sig, sig)


def test_everything_dominates_uninformative():
    fine = sym(F(3, 5))
    coarse = SignalStructure(BIN, ("u0", "u1"), ((F(1, 3), F(2, 3)),) * 2)
    kernel = find_garbling(fine, coarse)
    assert kernel is not None
    assert kernel_reproduces(kernel, fine, coarse)


def test_full_information_dominates_everything():
    fine = fully_informative_structure(TRI)
    rows = (
        (F(1, 2), F(1, 4), F(1, 4)),
        (F(1, 3), F(1, 3), F(1, 3)),
        (F(1, 6), F(1, 3), F(1, 2)),
    )
    coarse = SignalStructure(TRI, ("a", "b", "c"), rows)
    kernel = find_garbling(fine, coarse)
    # with a fully informative source the kernel is forced: column for the
    # signal revealing type t must equal t's coarse likelihood row
    assert kernel is not None
    for t in range(3):
        assert tuple(kernel.matrix[s][t] for s in range(3)) == rows[t]


def test_incomparable_structures():
    # different pooling patterns on three types: neither garbles the other
    pool_01 = SignalStructure(TRI, ("x", "y"), ((1, 0), (1, 0), (0, 1)))
    pool_12 = SignalStructure(TRI, ("x", "y"), ((1, 0), (0, 1), (0, 1)))
    assert find_garbling(pool_01, pool_12) is None
    assert find_garbling(pool_12, pool_01) is None


def pinned_pairs():
    """The exact (fine, coarse) pairs ``test_witnesses_are_pinned`` solves:
    a constructed pair and a random pair per draw, both directions."""
    for seed in range(20):
        for trial in range(3):
            rng = trial_rng(seed, trial)
            space = random_skill_space(rng, max_types=4)
            fine, coarse, _ = random_garbling_pair(rng, space, max_fine=4, max_coarse=3)
            a = random_signal_structure(rng, space, max_signals=4)
            b = random_signal_structure(rng, space, max_signals=4)
            yield from ((fine, coarse), (coarse, fine), (a, b), (b, a))


def recorded_program(fine, coarse):
    """``(program, kernel)``: what ``find_garbling`` hands the simplex,
    copied before the loop consumes it, and the kernel it returns.  In
    both modes that is the condensed tableau and cost row
    ``(tableau, red)``, handed to the exact loop or to the float loop
    ``feasible_point``."""
    programs = []

    def recording(solve):
        def record(tableau, red, *tol):
            programs.append(([list(row) for row in tableau], list(red)))
            return solve(tableau, red, *tol)
        return record

    with mock.patch.object(
        garbling, "_exact_feasible_point", recording(simplex._exact_feasible_point)
    ), mock.patch.object(
        garbling, "feasible_point", recording(simplex.feasible_point)
    ):
        kernel = find_garbling(fine, coarse)
    program, = programs
    return program, kernel


def dense_program(fine, coarse):
    """The dense program ``(A, b)`` of ``find_garbling``: the Fraction
    program as ints over the lcm of the two int forms' scales on exact
    input, else the structures' own entries with int 1s and 0s."""
    rows, rhs = fraction_program(fine, coarse)
    if fine.int_form is None or coarse.int_form is None:
        return rows, rhs
    scale = math.lcm(fine.int_form[1], coarse.int_form[1])
    return [[int(v * scale) for v in row] for row in rows], [int(v * scale) for v in rhs]


def assert_same_numbers(got, want):
    """Entry by entry: the same type, and a float with the same bits."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w), (got, want)
        assert (g.hex() == w.hex()) if type(g) is float else (g == w), (got, want)


def assert_program_is_the_dense_program(fine, coarse):
    # in both modes find_garbling writes the tableau and its closed-form
    # cost row, and the general condensed of the dense program must give
    # them bit for bit: ints equal, floats with the same bits
    (tableau, red), _ = recorded_program(fine, coarse)
    want_tableau, want_red = condensed(*dense_program(fine, coarse))
    assert len(tableau) == len(want_tableau)
    for row, want in zip(tableau, want_tableau):
        assert_same_numbers(row, want)
    assert_same_numbers(red, want_red)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_find_garbling_writes_the_dense_program_on_pinned_pairs(mode):
    for fine, coarse in pinned_pairs():
        if mode == "float":
            fine, coarse = fine.to_float(), coarse.to_float()
        assert_program_is_the_dense_program(fine, coarse)


@st.composite
def garbling_pairs(draw):
    """A garbling-ordered pair, MLR or not, swapped half the time (then
    mostly infeasible)."""
    rng = trial_rng(draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 10**6)))
    space = random_skill_space(rng, max_types=4)
    fine, coarse, _ = random_garbling_pair(
        rng, space, mlr=draw(st.booleans()), max_fine=4, max_coarse=3
    )
    return (coarse, fine) if draw(st.booleans()) else (fine, coarse)


@settings(max_examples=100, deadline=None)
@given(garbling_pairs(), st.booleans())
def test_find_garbling_writes_the_dense_program(pair, to_float):
    fine, coarse = pair
    if to_float:
        fine, coarse = fine.to_float(), coarse.to_float()
    assert_program_is_the_dense_program(fine, coarse)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_garbling_suite_solves_each_program_in_its_own_loop(mode):
    # feasible_point, the float loop's public name that perfbench's tracer
    # wraps, gets the tableau as args[0] with len(red) columns per row
    solvers = {
        "rational": mock.Mock(wraps=simplex._exact_feasible_point),
        "float": mock.Mock(wraps=simplex.feasible_point),
    }
    with mock.patch.object(garbling, "_exact_feasible_point", solvers["rational"]), \
            mock.patch.object(garbling, "feasible_point", solvers["float"]):
        result = run_suite("garbling", 4, 0, mode=mode)
    assert result.ok
    for name, solve in solvers.items():
        assert solve.call_count == (16 if name == mode else 0)  # four per trial
    for (tableau, red, *_), kwargs in solvers["float"].call_args_list:
        assert not kwargs
        assert all(len(row) == len(red) for row in tableau)


def test_exact_kernel_is_the_public_kernel_of_the_fraction_witness():
    # find_garbling builds its kernel from the exact loop's int pairs: it
    # must be the kernel the public constructor builds from the Fraction
    # oracle's witness of the same program (Fractions and int zeros, the
    # loop's entry types), its matrix unbuilt until read.  The program is
    # read off the tableau find_garbling writes: the scaled Fraction
    # program with its right-hand sides, and the cost row condensed
    # builds from it.
    feasible = 0
    for fine, coarse in pinned_pairs():
        (tableau, red), kernel = recorded_program(fine, coarse)
        a_rows, b = [row[:-1] for row in tableau], [row[-1] for row in tableau]
        frac_rows, frac_b = fraction_program(fine, coarse)
        scale = math.lcm(fine.int_form[1], coarse.int_form[1])
        assert tableau == [
            [v * scale for v in (*row, rhs)] for row, rhs in zip(frac_rows, frac_b)
        ]
        assert red == condensed(a_rows, b)[1]
        x = fraction_feasible_point(a_rows, b)
        assert (kernel is None) == (x is None)
        if x is None:
            continue
        feasible += 1
        n_f = fine.n_signals
        public = GarblingKernel(
            coarse.signals, fine.signals,
            [x[s * n_f:(s + 1) * n_f] for s in range(coarse.n_signals)],
        )
        assert "matrix" not in kernel.__dict__
        assert kernel.int_form == public.int_form
        assert [list(row) for row in kernel._int_mask()] == public._int_mask()
        assert "matrix" not in kernel.__dict__
        assert repr(kernel) == repr(public)
        assert hash(kernel) == hash(public)
        assert kernel == public
        assert [[type(v) for v in row] for row in kernel.matrix] == (
            [[type(v) for v in row] for row in public.matrix]
        )
    assert feasible >= 60  # every constructed pair, fine to coarse


def test_exact_garbling_suite_builds_no_fraction():
    # the witnesses stay ints from the simplex to the kernel, and the
    # structures of the draw are built from ints
    with fractions_built() as built:
        for seed in (0, 1, 2):
            run_suite("garbling", 4, seed)
    assert built == []


def test_witnesses_are_pinned():
    # one digest over the witnesses (entry types and int form included)
    # of constructed pairs and random pairs, each in both directions and
    # both modes: the exact simplex must keep Bland's pivots, so a change
    # in its arithmetic that picks another vertex shows here
    digest = hashlib.sha256()
    for seed in range(20):
        for trial in range(3):
            rng = trial_rng(seed, trial)
            space = random_skill_space(rng, max_types=4)
            fine, coarse, _ = random_garbling_pair(rng, space, max_fine=4, max_coarse=3)
            a = random_signal_structure(rng, space, max_signals=4)
            b = random_signal_structure(rng, space, max_signals=4)
            for x, y in ((fine, coarse), (coarse, fine), (a, b), (b, a)):
                for x, y in ((x, y), (x.to_float(), y.to_float())):
                    k = find_garbling(x, y)
                    witness = None if k is None else (
                        k.matrix, [[type(v).__name__ for v in row] for row in k.matrix],
                        k.int_form,
                    )
                    digest.update(repr(witness).encode())
    assert digest.hexdigest() == (
        "0d3b35a79edefa28836adeff23906df0053f5f1fdd083169165b74a183a5957b"
    )


def test_find_garbling_requires_shared_space():
    with pytest.raises(InputError):
        find_garbling(fully_informative_structure(TRI), sym(F(3, 5)))


def test_garble_then_recover():
    fine = SignalStructure(
        TRI,
        ("u", "v", "w"),
        (
            (F(1, 2), F(1, 2), 0),
            (F(1, 4), F(1, 4), F(1, 2)),
            (0, F(1, 3), F(2, 3)),
        ),
    )
    kernel = GarblingKernel(
        coarse_signals=("c0", "c1"),
        fine_signals=("u", "v", "w"),
        matrix=((1, F(1, 2), F(1, 4)), (0, F(1, 2), F(3, 4))),
    )
    coarse = garble(fine, kernel)
    assert coarse.signals == ("c0", "c1")
    found = find_garbling(fine, coarse)
    assert found is not None
    assert kernel_reproduces(found, fine, coarse)


def test_compose_kernels_witnesses_transitivity():
    top = sym(F(9, 10))
    mid = sym(F(7, 10))
    bot = sym(F(3, 5))
    k_tm = find_garbling(top, mid)
    k_mb = find_garbling(mid, bot)
    composed = compose_kernels(k_mb, k_tm)
    assert kernel_reproduces(composed, top, bot)


# -- joint distributions (the test oracle in joint_law.py) ---------------------


def test_joint_tensor_showcase():
    # coarse carries nothing, fine reveals the type exactly
    p = Dist(BIN, (F(1, 2), F(1, 2)))
    q = Dist(BIN, (F(1, 4), F(3, 4)))
    fine = fully_informative_structure(BIN)
    coarse = uninformative_structure(BIN)
    kernel = find_garbling(fine, coarse)
    jp, jq = build_joints(p, q, fine, coarse, kernel)
    for t in range(2):
        for s_fine in range(2):
            expect_p = p.probs[t] if t == s_fine else 0
            expect_q = q.probs[t] if t == s_fine else 0
            assert jp.probs[t][0][s_fine] == expect_p
            assert jq.probs[t][0][s_fine] == expect_q


def test_joint_conditional_independence():
    p = Dist(BIN, (F(2, 5), F(3, 5)))
    q = Dist(BIN, (F(1, 3), F(2, 3)))
    fine = sym(F(4, 5))
    coarse = sym(F(3, 5))
    kernel = find_garbling(fine, coarse)
    jp, _ = build_joints(p, q, fine, coarse, kernel)
    # type conditional on (coarse, fine) equals type conditional on fine
    for s in range(2):
        for f in range(2):
            pair = sum(jp.probs[t][s][f] for t in range(2))
            fine_m = sum(
                jp.probs[t][u][f] for t in range(2) for u in range(2)
            )
            for t in range(2):
                lhs = jp.probs[t][s][f] * fine_m
                rhs = sum(jp.probs[t][u][f] for u in range(2)) * pair
                assert lhs == rhs


def test_joint_marginals_match_structures():
    p = Dist(BIN, (F(2, 5), F(3, 5)))
    q = Dist(BIN, (F(1, 3), F(2, 3)))
    fine = sym(F(4, 5))
    coarse = sym(F(13, 20))
    kernel = find_garbling(fine, coarse)
    jp, jq = build_joints(p, q, fine, coarse, kernel)
    assert sum(sum(sum(r) for r in plane) for plane in jp.probs) == 1
    for s in range(2):
        marg = sum(jq.probs[t][s][f] for t in range(2) for f in range(2))
        direct = sum(q.probs[t] * coarse.likelihood[t][s] for t in range(2))
        assert marg == direct


def test_build_joints_rejects_bad_kernel():
    fine = sym(F(4, 5))
    coarse = sym(F(3, 5))
    bad = GarblingKernel(("s0", "s1"), ("s0", "s1"), ((1, 1), (0, 0)))
    with pytest.raises(InputError):
        build_joints(
            Dist(BIN, (F(1, 2), F(1, 2))),
            Dist(BIN, (F(1, 2), F(1, 2))),
            fine,
            coarse,
            bad,
        )


def test_kernel_columns_must_be_stochastic():
    with pytest.raises(InputError):
        GarblingKernel(("a",), ("u", "v"), ((F(1, 2), 1),))


# -- slight informativeness gains ---------------------------------------------


def test_slightness_holds_when_no_assignment_moves():
    q = Dist(BIN, (F(1, 4), F(3, 4)))
    fine, coarse = sym(F(13, 20)), sym(F(3, 5))
    kernel = find_garbling(fine, coarse)
    assert is_slightly_more_informative(FIRM2, q, fine, coarse, kernel)


def test_slightness_fails_across_assignment_kink():
    q = Dist(BIN, (F(3, 4), F(1, 4)))
    fine, coarse = sym(F(9, 10)), sym(F(9, 13))
    kernel = find_garbling(fine, coarse)
    assert not is_slightly_more_informative(FIRM2, q, fine, coarse, kernel)


def test_single_task_firm_is_always_slight():
    firm = Firm((Task((0, 1)),))
    q = Dist(BIN, (F(1, 2), F(1, 2)))
    fine, coarse = sym(F(99, 100)), sym(F(1, 2))
    kernel = find_garbling(fine, coarse)
    assert is_slightly_more_informative(firm, q, fine, coarse, kernel)


def test_slightness_reads_only_linked_fine_signals():
    # the identity kernel links each coarse signal to its own fine signal
    # alone; FIRM2 picks task 0 at type 0 and task 1 at type 1, so no task
    # would stay optimal at both fine signals
    full = fully_informative_structure(BIN)
    q = Dist(BIN, (F(1, 2), F(1, 2)))
    kernel = find_garbling(full, full)
    assert is_slightly_more_informative(FIRM2, q, full, full, kernel)
    assert is_slightly_more_informative(
        FIRM2, q.to_float(), full.to_float(), full.to_float(), kernel.to_float()
    )


@st.composite
def slightness_instances(draw):
    """Generator firms, perceptions and garbling pairs; a repeated task
    ties at every signal, and full-information fine structures make
    posteriors degenerate."""
    rng = trial_rng(draw(st.integers(0, 2**32 - 1)), 0)
    space = random_skill_space(rng, max_types=4)
    firm = random_firm(rng, space.size, monotone=draw(st.booleans()))
    if draw(st.booleans()):
        firm = Firm(firm.tasks + firm.tasks[:1])
    q = random_dist(rng, space)
    if draw(st.booleans()):
        fine, coarse, kernel = random_garbling_pair(rng, space, max_fine=5)
    else:
        fine = fully_informative_structure(space)
        coarse = random_garbling_pair(rng, space, max_fine=4)[1]
        kernel = find_garbling(fine, coarse)
    return firm, q, fine, coarse, kernel


@settings(max_examples=150, deadline=None)
@given(slightness_instances(), st.sampled_from(("rational", "float")))
def test_slightness_matches_posterior_oracle(instance, mode):
    # the pay table's tie sets against argmax sets of normalized posteriors
    if mode == "float":
        instance = tuple(obj.to_float() for obj in instance)
    firm, q, fine, coarse, kernel = instance
    positive = 0 if mode == "rational" else ORDER_TOL
    assert is_slightly_more_informative(
        firm, q, fine, coarse, kernel
    ) == slight_per_coarse_signal(firm, q, fine, coarse, kernel, positive)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_float_coarse_image_of_exact_kernel_reproduces(seed):
    # an exact kernel and fine structure against a float coarse structure:
    # the float slack applies whenever any of the three holds a float
    rng = trial_rng(seed, 0)
    space = random_skill_space(rng)
    fine, coarse, kernel = random_garbling_pair(rng, space)
    coarse_f = garble(fine.to_float(), kernel.to_float())
    assert kernel_reproduces(kernel, fine, coarse_f)
    assert kernel_reproduces(kernel, fine.to_float(), coarse_f)
    assert kernel_reproduces(kernel.to_float(), fine, coarse.to_float())


# -- near-full informativeness ------------------------------------------------


def test_within_eps_of_full():
    assert within_eps_of_full(sym(F(9, 10)), F(1, 9))
    assert not within_eps_of_full(sym(F(9, 10)), F(1, 10))
    assert within_eps_of_full(fully_informative_structure(TRI), 0)
    assert within_eps_of_full(uninformative_structure(BIN), 1)
    assert not within_eps_of_full(uninformative_structure(BIN), F(1, 2))
    with pytest.raises(InputError):
        within_eps_of_full(sym(F(9, 10)), -1)
    for eps in (-1.0, -math.inf, math.nan):  # nan is not "not within eps"
        with pytest.raises(InputError, match="eps must be a nonnegative number"):
            within_eps_of_full(sym(F(9, 10)).to_float(), eps)
    assert within_eps_of_full(uninformative_structure(BIN), math.inf)


@pytest.mark.parametrize("eps, quoted", [
    (F(-1, 2), "-1/2"), (-1, "-1"), (-0.5, "-0.5"), (math.nan, "nan"),
])
def test_eps_refusal_quotes_the_number_in_its_notation(eps, quoted):
    # exact numbers read a/b, as an instance file or --eps writes them
    with pytest.raises(InputError) as exc:
        within_eps_of_full(sym(F(9, 10)), eps)
    assert str(exc.value) == f"eps must be a nonnegative number, got {quoted}"


@pytest.mark.parametrize("entry, quoted", [(F(1, 2), "1/2"), (0.5, "0.5")])
def test_kernel_column_refusal_quotes_the_sum_in_its_notation(entry, quoted):
    with pytest.raises(InputError) as exc:
        GarblingKernel(("a",), ("x",), ((entry,),))
    assert str(exc.value) == (
        f"kernel column for fine signal 'x' sums to {quoted}, expected 1"
    )


def test_eps_bound_examples():
    assert extremeness_eps_bound(Dist(BIN, (F(1, 2), F(1, 2))), F(1, 2)) == 1
    assert extremeness_eps_bound(Dist(BIN, (F(3, 4), F(1, 4))), F(1, 10)) == F(1, 27)
    assert extremeness_eps_bound(Dist(BIN, (F(1, 2), F(1, 2))), 1) == math.inf
    with pytest.raises(InputError):
        extremeness_eps_bound(Dist(BIN, (F(1, 2), F(1, 2))), 0)
    with pytest.raises(InputError):
        extremeness_eps_bound(Dist(BIN, (F(1, 2), F(1, 2))), F(3, 2))



@pytest.mark.parametrize("seed", [0, 7])
def test_eps_bound_reads_the_int_form(seed):
    # the bound equals the formula over the probs, in value and type, on
    # exact, float and mixed distributions and exact or float delta; an
    # exact distribution built from ints keeps its probs unbuilt, and the
    # bound on it builds one Fraction
    def formula(q, delta):
        min_odds = min(v / (1 - v) for v in q.probs)
        return (delta / (1 - delta)) * min_odds / (q.space.size - 1)

    for trial in range(25):
        rng = trial_rng(seed, trial)
        space = random_skill_space(rng)
        for delta in (F(1, 3), 0.25):
            q = random_dist(rng, space)
            with fractions_built() as built:
                got = extremeness_eps_bound(q, delta)
            assert len(built) == 1
            assert "probs" not in q.__dict__
            mixed = Dist(space, (float(q.probs[0]), *q.probs[1:]))
            for dist in (q, q.to_float(), mixed):
                value = got if dist is q else extremeness_eps_bound(dist, delta)
                want = formula(dist, delta)
                assert type(value) is type(want) and value == want
@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 19),
)
@settings(max_examples=60, deadline=None)
def test_eps_bound_forces_extreme_posteriors(w0, w1, w2, dnum):
    # structures at the bound: every off-dominant likelihood exactly at
    # eps times the dominant one; posteriors must put 1-delta somewhere
    total = w0 + w1 + w2
    q = Dist(TRI, (F(w0, total), F(w1, total), F(w2, total)))
    delta = F(dnum, 20)
    eps = extremeness_eps_bound(q, delta)
    c = 1 / (1 + 2 * eps)  # diagonal weight making ratios exactly eps
    rows = tuple(
        tuple(c if i == j else eps * c for j in range(3)) for i in range(3)
    )
    sig = SignalStructure(TRI, ("e0", "e1", "e2"), rows)
    assert within_eps_of_full(sig, eps)
    for s in sig.signals:
        post = posterior(q, sig, s)
        assert max(post.probs) >= 1 - delta
