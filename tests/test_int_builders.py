"""Objects built from an int form equal the public constructor's.

In-package producers that already hold ints (the generators, among them
``extreme_structure``, ``garble``, ``compose_kernels``, the exact
``posterior``, the exact ``find_garbling``, and the uninformative, fully
informative and exact binary symmetric structures) build ``Dist``,
``SignalStructure`` and ``GarblingKernel`` from ``(ints, scale)`` with
the one private builder ``_from_ints``, naming the other fields by
keyword; each class's validator brings the form to lowest terms.  On
the same values the result must be the object the public constructor
builds from Fractions: equal fields, the same entry types, the same
``int_form`` and ``full_support``; and a bad form must raise the same
``InputError``.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infopay import (
    Dist,
    GarblingKernel,
    InputError,
    SignalStructure,
    SkillSpace,
    binary_symmetric_structure,
    compose_kernels,
    fully_informative_structure,
    garble,
    uninformative_structure,
)
from infopay.generators import extreme_structure
from infopay.model import posterior

SPACES = {n: SkillSpace(tuple(range(n))) for n in range(2, 5)}


def outcome(build):
    """(object, None) when ``build`` accepts, else (None, the message)."""
    try:
        return build(), None
    except InputError as exc:
        return None, str(exc)


def types(rows):
    return [[type(v) for v in row] for row in rows]


def same_object(built, public):
    assert built == public
    assert repr(built) == repr(public)
    assert built.int_form == public.int_form


@st.composite
def int_rows(draw, n_rows, width, faults):
    """``n_rows`` int rows of ``width`` entries over one scale, each row
    summing to it, the form multiplied by a common factor so it is not in
    lowest terms; sometimes one fault from ``faults`` is planted."""
    rows, totals = [], []
    for _ in range(n_rows):
        row = [draw(st.integers(0, 6)) for _ in range(width)]
        row[draw(st.integers(0, width - 1))] += 1  # a positive sum
        rows.append(row)
        totals.append(sum(row))
    scale = 1
    for total in totals:
        scale *= total
    rows = [[n * (scale // total) for n in row] for row, total in zip(rows, totals)]
    factor = draw(st.integers(1, 6))
    rows = [[n * factor for n in row] for row in rows]
    scale *= factor
    fault = draw(st.sampled_from(("none", "none", *faults)))
    t, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, width - 1))
    if fault == "negative":
        rows[t][j] = -draw(st.integers(1, 3))
    elif fault == "sum-off-by-one":
        rows[t][j] += draw(st.sampled_from((1, -1))) if rows[t][j] else 1
    elif fault == "dead-column":
        for row in rows:
            row[(j + 1) % width] += row[j]
            row[j] = 0
    return rows, scale


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dist_builder_matches_constructor(data):
    n = data.draw(st.integers(2, 4))
    (ints,), scale = data.draw(int_rows(1, n, ("negative", "sum-off-by-one")))
    built, err = outcome(lambda: Dist._from_ints((ints, scale), space=SPACES[n]))
    public, public_err = outcome(lambda: Dist(SPACES[n], tuple(F(v, scale) for v in ints)))
    assert err == public_err
    if public is not None:
        same_object(built, public)
        assert types([built.probs]) == types([public.probs])
        assert built.full_support == public.full_support


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_structure_builder_matches_constructor(data):
    n_t, n_s = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4))
    rows, scale = data.draw(
        int_rows(n_t, n_s, ("negative", "sum-off-by-one", "dead-column"))
    )
    labels = tuple(f"s{k}" for k in range(n_s))
    values = data.draw(st.sampled_from((None, tuple(range(n_s)))))
    built, err = outcome(lambda: SignalStructure._from_ints(
        (rows, scale), space=SPACES[n_t], signals=labels, values=values
    ))
    fractions = tuple(tuple(F(v, scale) for v in row) for row in rows)
    public, public_err = outcome(
        lambda: SignalStructure(SPACES[n_t], labels, fractions, values=values)
    )
    assert err == public_err
    if public is not None:
        same_object(built, public)
        assert types(built.likelihood) == types(public.likelihood)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_builder_matches_constructor(data):
    n_c, n_f = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    cols, scale = data.draw(int_rows(n_f, n_c, ("negative", "sum-off-by-one")))
    rows = [list(row) for row in zip(*cols)]  # columns drawn near the simplex
    coarse = tuple(f"c{k}" for k in range(n_c))
    fine = tuple(f"f{k}" for k in range(n_f))
    built, err = outcome(lambda: GarblingKernel._from_ints(
        (rows, scale), coarse_signals=coarse, fine_signals=fine
    ))
    fractions = tuple(tuple(F(v, scale) for v in row) for row in rows)
    public, public_err = outcome(lambda: GarblingKernel(coarse, fine, fractions))
    assert err == public_err
    if public is not None:
        same_object(built, public)
        assert types(built.matrix) == types(public.matrix)


@st.composite
def exact_matrix(draw, n_rows, width):
    """Valid exact rows: all-int 0/1 rows (a point mass) or Fractions,
    int-valued Fractions included."""
    out = []
    for _ in range(n_rows):
        if draw(st.booleans()):
            row = [0] * width
            row[draw(st.integers(0, width - 1))] = 1
        else:
            (ints,), scale = draw(int_rows(1, width, ()))
            row = [F(v, scale) for v in ints]
        out.append(tuple(row))
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_garble_matches_fraction_arithmetic(data):
    n_t, n_f, n_c = (data.draw(st.integers(2, 4)) for _ in range(3))
    fine, err = outcome(lambda: SignalStructure(
        SPACES[n_t], tuple(f"f{k}" for k in range(n_f)), data.draw(exact_matrix(n_t, n_f))
    ))
    assume(err is None)  # no dead fine column
    kernel = GarblingKernel(
        tuple(f"c{k}" for k in range(n_c)),
        fine.signals,
        tuple(zip(*data.draw(exact_matrix(n_f, n_c)))),
    )
    g, lik = kernel.matrix, fine.likelihood
    # Python arithmetic keeps an entry int exactly when its terms are ints
    mixed = tuple(
        tuple(sum(g[s][f] * lik[t][f] for f in range(n_f)) for s in range(n_c))
        for t in range(n_t)
    )
    built, err = outcome(lambda: garble(fine, kernel))
    public, public_err = outcome(
        lambda: SignalStructure(SPACES[n_t], kernel.coarse_signals, mixed)
    )
    assert err == public_err  # an unreachable coarse signal is a dead column
    if public is not None:
        same_object(built, public)
        assert types(built.likelihood) == types(public.likelihood)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compose_kernels_matches_fraction_arithmetic(data):
    n_a, n_b, n_c = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b, c = (tuple(f"{x}{k}" for k in range(n)) for x, n in zip("abc", (n_a, n_b, n_c)))
    # each drawn row is one column of a kernel: a distribution over its targets
    inner = GarblingKernel(b, a, tuple(zip(*data.draw(exact_matrix(n_a, n_b)))))
    outer = GarblingKernel(c, b, tuple(zip(*data.draw(exact_matrix(n_b, n_c)))))
    g, h = outer.matrix, inner.matrix
    # Python arithmetic keeps an entry int exactly when its terms are ints
    mixed = tuple(
        tuple(sum(g[k][j] * h[j][i] for j in range(n_b)) for i in range(n_a))
        for k in range(n_c)
    )
    built = compose_kernels(outer, inner)
    public = GarblingKernel(c, a, mixed)
    same_object(built, public)
    assert types(built.matrix) == types(public.matrix)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_posterior_matches_fraction_formula(data):
    n_t, n_s = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4))
    weights = [data.draw(st.integers(1, 9)) for _ in range(n_t)]
    q = Dist(SPACES[n_t], tuple(F(w, sum(weights)) for w in weights))
    sig, err = outcome(lambda: SignalStructure(
        q.space, tuple(f"s{k}" for k in range(n_s)), data.draw(exact_matrix(n_t, n_s))
    ))
    assume(err is None)  # no dead signal
    for j, label in enumerate(sig.signals):
        weights = [q.probs[i] * sig.likelihood[i][j] for i in range(n_t)]
        total = sum(weights)
        post = posterior(q, sig, label)
        oracle = Dist(q.space, tuple(w / total for w in weights))
        same_object(post, oracle)
        assert types([post.probs]) == types([oracle.probs])
        assert post.full_support == oracle.full_support


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 4),
    st.one_of(
        st.integers(0, 3), st.fractions(min_value=0, max_value=5, max_denominator=40)
    ),
)
def test_extreme_structure_matches_fraction_formula(n, eps):
    # own-type likelihood 1 / (1 + (n - 1) eps), eps times that elsewhere
    c = F(1) / (1 + (n - 1) * eps)
    rows = tuple(tuple(c if j == i else eps * c for j in range(n)) for i in range(n))
    built = extreme_structure(SPACES[n], eps)
    public = SignalStructure(SPACES[n], built.signals, rows)
    same_object(built, public)
    assert types(built.likelihood) == types(public.likelihood)


def same_structure(built, public):
    """``same_object``, and the hash, entry types and int mask too; an
    exact structure must keep its likelihood unbuilt until it is read."""
    if public.int_form is not None:
        assert "likelihood" not in built.__dict__
    assert [list(row) for row in built._int_mask()] == public._int_mask()
    same_object(built, public)
    assert hash(built) == hash(public)
    assert types(built.likelihood) == types(public.likelihood)
    assert built.values == public.values
    assert built.values is None or types([built.values]) == types([public.values])


@pytest.mark.parametrize("n", range(2, 6))
def test_fixed_structures_match_constructor(n):
    for space in (SkillSpace(tuple(range(n))), SkillSpace(tuple(k / 2 for k in range(n)))):
        same_structure(
            uninformative_structure(space), SignalStructure(space, ("u0",), ((1,),) * n)
        )
        rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        labels = tuple(f"r{k}" for k in range(n))
        same_structure(
            fully_informative_structure(space),
            SignalStructure(space, labels, rows, values=tuple(range(n))),
        )


@pytest.mark.parametrize(
    "accuracy", [0, 1, F(1), F(0), F(1, 2), F(9, 13), F(4, 5), 0.8], ids=repr
)
def test_binary_symmetric_builder_matches_constructor(accuracy):
    for space in (SPACES[2], SkillSpace((0.0, 1.5))):
        lam = accuracy
        rows = ((lam, 1 - lam), (1 - lam, lam))
        same_structure(
            binary_symmetric_structure(space, accuracy),
            SignalStructure(space, ("s0", "s1"), rows, values=(0, 1)),
        )
