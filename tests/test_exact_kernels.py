"""Integer-scaled exact kernels against their Fraction formulas.

On exact input the pay table, ``decompose``, the kernel check
and ``garble`` clear denominators once and work on Python ints.  The
Fraction loops they replaced are kept here as the oracle: values must
be equal and of the same type (``int`` or ``Fraction``), and
assignments must match under both tie rules.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infopay import (
    Dist,
    Firm,
    GarblingKernel,
    Population,
    SignalStructure,
    average_pay,
    decompose,
    find_garbling,
    fully_informative_structure,
    garble,
    kernel_reproduces,
)
from infopay.errors import InputError
from infopay.generators import (
    random_dist,
    random_firm,
    random_garbling_pair,
    random_signal_structure,
    random_skill_space,
    trial_rng,
)
from infopay.model import SignalRow, pay_table, table_pay

# -- the Fraction oracle ---------------------------------------------------------


def fraction_pay_table(firm, p, q, sig, tie_break="lowest"):
    n = q.space.size
    rows = []
    for j in range(sig.n_signals):
        weights = [q.probs[t] * sig.likelihood[t][j] for t in range(n)]
        m_q = sum(weights)
        m_p = sum(p.probs[t] * sig.likelihood[t][j] for t in range(n))
        scores = [
            sum(w * a for w, a in zip(weights, task.surplus)) for task in firm.tasks
        ]
        best = max(scores)
        ties = [i for i, v in enumerate(scores) if v == best]
        task = ties[0] if tie_break == "lowest" else ties[-1]
        rows.append(SignalRow(m_p, m_q, weights, task, scores[task], ties, scores))
    return rows


def fraction_table_pay(rows):
    total = 0
    for row in rows:
        total += row.m_p * row.score / row.m_q
    return total


def fraction_core(firm, p, q, coarse, fine, kernel, tie_break):
    """The decomposition's fields by the Fraction formulas, and the
    signalwise instrumental form: best less the mixed value, per fine
    signal."""
    n_c, n_f = coarse.n_signals, fine.n_signals
    g = kernel.matrix
    rows_c = fraction_pay_table(firm, p, q, coarse, tie_break)
    rows_f = fraction_pay_table(firm, p, q, fine, tie_break)
    ratio = [r.m_p / r.m_q for r in rows_f]
    kept = [firm.tasks[r.task].surplus for r in rows_c]
    e_dot = [[None] * n_f for _ in range(n_c)]
    for s in range(n_c):
        for f in range(n_f):
            if g[s][f] != 0:
                e_dot[s][f] = sum(w * a for w, a in zip(rows_f[f].weights, kept[s]))
    correction = 0
    inst_joint = 0
    inst_signalwise = 0
    for f in range(n_f):
        best = rows_f[f].score
        mixed = 0
        gap = 0
        for s in range(n_c):
            coef = g[s][f]
            if coef != 0:
                mixed += coef * e_dot[s][f]
                gap += coef * (best - e_dot[s][f])
        correction += ratio[f] * mixed
        inst_joint += ratio[f] * gap
        inst_signalwise += ratio[f] * (best - mixed)
    for s in range(n_c):
        mu_p = 0
        mu_q = 0
        inner = 0
        for f in range(n_f):
            coef = g[s][f]
            if coef != 0:
                mu_p += coef * rows_f[f].m_p
                mu_q += coef * rows_f[f].m_q
                inner += coef * e_dot[s][f]
        correction -= (mu_p / mu_q) * inner
    return {  # keyed by the DecompResult fields they oracle
        "w_fine": fraction_table_pay(rows_f),
        "w_coarse": fraction_table_pay(rows_c),
        "perception_correcting": correction,
        "instrumental": inst_joint,
        "assignment_coarse": tuple(r.task for r in rows_c),
        "assignment_fine": tuple(r.task for r in rows_f),
    }, inst_signalwise


def fraction_kernel_reproduces(kernel, fine, coarse):
    for t in range(fine.space.size):
        for s in range(coarse.n_signals):
            mixed = sum(
                kernel.matrix[s][f] * fine.likelihood[t][f]
                for f in range(fine.n_signals)
            )
            if mixed != coarse.likelihood[t][s]:
                return False
    return True


def fraction_garble_rows(fine, kernel):
    return tuple(
        tuple(
            sum(
                kernel.matrix[s][f] * fine.likelihood[t][f]
                for f in range(fine.n_signals)
            )
            for s in range(len(kernel.coarse_signals))
        )
        for t in range(fine.space.size)
    )


# -- helpers -----------------------------------------------------------------------


def same(got, want):
    """Equal value and equal type, elementwise through tuples and lists."""
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            same(a, b)
    else:
        assert type(got) is type(want), (got, want)
        assert got == want


@st.composite
def instances(draw):
    """Generator instances: random garbling pairs (Fraction likelihoods),
    fully informative fine structures (0/1 int likelihoods) with an LP
    witness (int 0 beside Fractions), and 0/1 int kernels that merge
    fully informative signals (int likelihoods throughout).  Surpluses
    are ints; a repeated task makes ties at every signal."""
    rng = trial_rng(draw(st.integers(0, 2**32 - 1)), 0)
    space = random_skill_space(rng, max_types=4)
    firm = random_firm(rng, space.size)
    if draw(st.booleans()):
        firm = Firm(firm.tasks + firm.tasks[:1])
    p, q = random_dist(rng, space), random_dist(rng, space)
    kind = draw(st.sampled_from(("random", "full", "merge")))
    if kind == "random":
        fine, coarse, kernel = random_garbling_pair(rng, space, max_fine=4, max_coarse=3)
    elif kind == "full":
        fine = fully_informative_structure(space)
        coarse = random_signal_structure(rng, space, max_signals=3)
        kernel = find_garbling(fine, coarse)
    else:
        fine = fully_informative_structure(space)
        middle = [draw(st.integers(0, 1)) for _ in range(space.size - 2)]
        targets = [0, *middle, 1]
        kernel = GarblingKernel(
            ("m0", "m1"),
            fine.signals,
            tuple(tuple(int(t == s) for t in targets) for s in (0, 1)),
        )
        coarse = garble(fine, kernel)
    return firm, p, q, coarse, fine, kernel


# -- differentials -----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(instances())
def test_pay_table_matches_fraction_oracle(instance):
    firm, p, q, coarse, fine, _ = instance
    for sig in (coarse, fine):
        for tie_break in ("lowest", "highest"):
            table = pay_table(firm, p, q, sig, tie_break)
            want = fraction_pay_table(firm, p, q, sig, tie_break)
            assert table.exact
            assert all(
                type(v) is int
                for r in table.rows
                for v in (r.m_p, r.m_q, r.score, *r.weights, *r.scores)
            )
            # the scales the PayTable docstring documents
            f, fs = table.freq_scale, table.freq_scale * table.surplus_scale
            assert len(table.rows) == len(want)
            for got, row in zip(table.rows, want):
                assert (got.m_p, got.m_q, got.score) == (
                    row.m_p * f, row.m_q * f, row.score * fs
                )
                assert got.weights == [w * f for w in row.weights]
                assert got.scores == [v * fs for v in row.scores]
                assert (got.task, got.ties) == (row.task, row.ties)
            same(table_pay(table), fraction_table_pay(want))
            for got, row in zip(table.rows, want):  # the pay at each signal
                same(F(got.score, got.m_q * table.surplus_scale), row.score / row.m_q)
        same(average_pay(firm, Population(p, q, sig)), fraction_table_pay(
            fraction_pay_table(firm, p, q, sig)
        ))
        perceived = pay_table(firm, q, q, sig)
        for got, row in zip(perceived.rows, fraction_pay_table(firm, q, q, sig)):
            same(F(got.score, got.m_q * perceived.surplus_scale), row.score / row.m_q)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_core_matches_fraction_oracle(instance):
    firm, p, q, coarse, fine, kernel = instance
    for tie_break in ("lowest", "highest"):
        got = decompose(firm, p, q, coarse, fine, kernel, tie_break)
        want, signalwise = fraction_core(firm, p, q, coarse, fine, kernel, tie_break)
        for field, value in want.items():
            same(getattr(got, field), value)
        same(got.total, want["w_fine"] - want["w_coarse"])
        # the signalwise form folds the kernel into the coarse task first;
        # every kernel column sums to 1, so it equals the joint form exactly
        same(got.instrumental, signalwise)


@settings(max_examples=30, deadline=None)
@given(instances())
def test_float_kernel_on_exact_instance_raises_input_error(instance):
    # the two arithmetics do not mix: a float kernel needs a float instance
    firm, p, q, coarse, fine, kernel = instance
    with pytest.raises(InputError, match="to_float"):
        decompose(firm, p, q, coarse, fine, kernel.to_float())
    decompose(
        firm.to_float(), p.to_float(), q.to_float(), coarse.to_float(),
        fine.to_float(), kernel.to_float(),
    )


@settings(max_examples=150, deadline=None)
@given(instances())
def test_garble_matches_fraction_oracle(instance):
    _, _, _, _, fine, kernel = instance
    same(garble(fine, kernel).likelihood, fraction_garble_rows(fine, kernel))


@settings(max_examples=150, deadline=None)
@given(instances(), st.integers(0, 3), st.integers(1, 60))
def test_kernel_check_matches_fraction_oracle(instance, row, exponent):
    _, _, _, coarse, fine, kernel = instance
    assert kernel_reproduces(kernel, fine, coarse)
    assert fraction_kernel_reproduces(kernel, fine, coarse)
    # move mass 1/10^k between two coarse signals of one type: still a
    # valid structure, no longer the kernel's image
    if coarse.n_signals < 2:
        return
    t = row % fine.space.size
    lik = [list(r) for r in coarse.likelihood]
    s = next(i for i, v in enumerate(lik[t]) if v > 0)
    nudge = min(F(1, 10**exponent), lik[t][s] / 2)
    lik[t][s] -= nudge
    lik[t][(s + 1) % coarse.n_signals] += nudge
    moved = SignalStructure(coarse.space, coarse.signals, lik)
    assert not kernel_reproduces(kernel, fine, moved)
    assert not fraction_kernel_reproduces(kernel, fine, moved)


def test_kernel_missing_by_one_in_ten_to_the_thirty_is_rejected():
    space = random_skill_space(trial_rng(1, 0), max_types=2)
    fine = fully_informative_structure(space)
    coarse = SignalStructure(space, ("u0", "u1"), ((F(1, 3), F(2, 3)),) * 2)
    kernel = find_garbling(fine, coarse)
    assert kernel_reproduces(kernel, fine, coarse)
    tiny = F(1, 10**30)
    near = SignalStructure(
        space,
        coarse.signals,
        ((F(1, 3) + tiny, F(2, 3) - tiny), (F(1, 3), F(2, 3))),
    )
    assert not kernel_reproduces(kernel, fine, near)
    assert not fraction_kernel_reproduces(kernel, fine, near)


def test_exact_table_keeps_ints_at_documented_scales():
    space = random_skill_space(trial_rng(2, 0), max_types=2)
    firm = random_firm(trial_rng(2, 1), space.size)
    p = Dist(space, (F(1, 6), F(5, 6)))
    q = Dist(space, (F(1, 4), F(3, 4)))
    sig = SignalStructure(space, ("a", "b"), ((F(2, 5), F(3, 5)), (F(1, 7), F(6, 7))))
    table = pay_table(firm, p, q, sig)
    assert table.freq_scale == 12 * 35  # lcm(6, 4) * lcm(5, 7)
    assert table.surplus_scale == 1  # int surpluses
    row = table.rows[0]
    assert row.m_p == (F(1, 6) * F(2, 5) + F(5, 6) * F(1, 7)) * table.freq_scale
    assert row.m_q == (F(1, 4) * F(2, 5) + F(3, 4) * F(1, 7)) * table.freq_scale
