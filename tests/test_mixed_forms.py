"""Calls that mix exact and float numbers.

One float argument, or one float entry in an otherwise exact object,
makes a whole call a float call: the function reads every entry as
given (Fractions and ints stay as they are) and compares with its float
slack.  Only a call whose every number is exact reads the int forms.
One digest over the repr of each call's result pins what mixed calls
return; it was taken before the functions shared one number-form reader.
"""

import hashlib
from fractions import Fraction
from itertools import product

from infopay.decomposition import decompose
from infopay.errors import InputError
from infopay.garbling import (
    GarblingKernel,
    compose_kernels,
    find_garbling,
    garble,
    is_slightly_more_informative,
    kernel_reproduces,
    within_eps_of_full,
)
from infopay.generators import (
    random_dist,
    random_firm,
    random_garbling_pair,
    random_kernel,
    random_lr_pair,
    random_skill_space,
    trial_rng,
)
from infopay.model import (
    Dist,
    Firm,
    SignalStructure,
    pay_table,
    posterior,
    table_pay,
    twin,
)
from infopay.orders import fosd_geq, is_mlr, lr_geq, lr_violation, perception_class


def part(obj):
    """``obj`` with its first row (or entry) as floats and the rest exact."""
    if isinstance(obj, Dist):
        return Dist(obj.space, (float(obj.probs[0]), *obj.probs[1:]))
    if isinstance(obj, Firm):
        return Firm((obj.tasks[0].to_float(), *obj.tasks[1:]))
    if isinstance(obj, SignalStructure):
        first = tuple(map(float, obj.likelihood[0]))
        return SignalStructure(
            obj.space, obj.signals, (first, *obj.likelihood[1:]), obj.values
        )
    first = tuple(map(float, obj.matrix[0]))
    rows = (first, *obj.matrix[1:])
    return GarblingKernel(obj.coarse_signals, obj.fine_signals, rows)


def exact(obj):
    return obj


FORMS = (exact, twin, part)


def variants(*objs, forms=FORMS):
    """Every way of giving each object exact, as its float twin, or in part."""
    for picks in product(forms, repeat=len(objs)):
        yield tuple(f(o) for f, o in zip(picks, objs))


def outcome(call, *args):
    try:
        return repr(call(*args))
    except InputError as exc:
        return f"InputError: {exc}"


def table_facts(firm, p, q, sig):
    table = pay_table(firm, p, q, sig)
    rows = [(r.m_p, r.m_q, r.weights, r.task, r.score, r.ties) for r in table.rows]
    exact, scales = table.exact, (table.freq_scale, table.surplus_scale)
    pays = [  # the pay at each signal
        Fraction(r.score, r.m_q * table.surplus_scale) if exact else r.score / r.m_q
        for r in table.rows
    ]
    return rows, exact, *scales, pays, table_pay(table)


def with_form(obj):
    return obj, obj.int_form


def decompose_facts(firm, p, q, coarse, fine, kernel):
    res = decompose(firm, p, q, coarse, fine, kernel)
    return res, res.identity_gap


def slightly(firm, q, fine, coarse, kernel):
    return is_slightly_more_informative(firm, q, fine, coarse, kernel)


def mixed_lines(trial):
    rng = trial_rng(29, trial)
    space = random_skill_space(rng, max_types=4)
    firm = random_firm(rng, space.size, monotone=trial % 2 == 0)
    p = random_dist(rng, space)
    hi, lo = random_lr_pair(rng, space)
    fine, coarse, kernel = random_garbling_pair(rng, space, mlr=True)
    outer = random_kernel(rng, coarse.signals, 2)
    for args in variants(firm, p, lo, fine):
        yield outcome(table_facts, *args)
    for q, sig in variants(hi, coarse):
        for label in sig.signals:
            yield outcome(lambda: with_form(posterior(q, sig, label)))
    for args in variants(kernel, fine, coarse):
        yield outcome(kernel_reproduces, *args)
    for args in variants(fine, coarse):
        yield outcome(find_garbling, *args)
    for args in variants(fine, kernel):
        yield outcome(lambda f, k: with_form(garble(f, k)), *args)
    for args in variants(outer, kernel):
        yield outcome(lambda o, i: with_form(compose_kernels(o, i)), *args)
    for args in variants(firm, lo, fine, coarse, kernel):
        yield outcome(slightly, *args)
    for a, b in variants(hi, lo):
        for x, y in ((a, b), (b, a), (a, twin(a)), (twin(b), b)):
            for judge in (lr_geq, lr_violation, fosd_geq, perception_class):
                yield outcome(judge, x, y)
    for sig in variants(fine):
        yield outcome(is_mlr, *sig)
        for eps in (0, Fraction(1, 3), 1 / 3, 2, 2.0):
            yield outcome(within_eps_of_full, *sig, eps)
    for args in variants(firm, p, lo, coarse, fine, kernel, forms=(exact, twin)):
        yield outcome(decompose_facts, *args)


def test_mixed_calls_are_pinned():
    digest = hashlib.sha256()
    for trial in range(6):
        for line in mixed_lines(trial):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == (
        "6d54e241734b7288ec9553f08484f8dee2d2c672e188d7d983aa65efa748d32d"
    )
