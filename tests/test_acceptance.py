"""Acceptance criteria: one test and one printed pass/fail line each.

Counts, sizes, and tolerances are fixed by the acceptance contract:
exact equalities in rational mode, 1e-9 (identity) and -1e-12
(instrumental floor) in float mode.  Seeds are arbitrary fixed values
so every run checks the same instances.
"""

import time
from fractions import Fraction

import pytest

from infopay.decomposition import decompose
from infopay.discrimination import (
    check_narrowing,
    narrowing_counterexamples,
    pay_gap,
)
from infopay.examples import run_example
from infopay.garbling import compose_kernels, find_garbling, garble, kernel_reproduces
from infopay.generators import (
    _int,
    extreme_structure,
    random_dist,
    random_firm,
    random_garbling_pair,
    random_kernel,
    random_lr_pair,
    random_narrowing_scenario,
    random_non_lr_pair,
    random_signal_structure,
    random_skill_space,
    trial_rng,
)
from infopay.garbling import extremeness_eps_bound, within_eps_of_full
from infopay.model import (
    Dist,
    Firm,
    Population,
    SkillSpace,
    Task,
    average_pay,
    binary_symmetric_structure,
    fully_informative_structure,
    pay_table,
    posterior,
    uninformative_structure,
)
from infopay.orders import lr_violation, separating_signal_structure
from infopay.sweep import figure1_instance, figure1_rows, parse_grid


def verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bulk():
    """10^4 unconstrained instances, decomposed in both modes.

    Sizes: up to 5 types, 5 coarse signals, 6 fine signals, 4 tasks.
    """
    t0 = time.perf_counter()
    rational_identity_ok = True
    min_inst_rational = Fraction(0)
    worst_float_identity = 0.0
    min_inst_float = 0.0
    for trial in range(10_000):
        rng = trial_rng(1001, trial)
        space = random_skill_space(rng)
        firm = random_firm(rng, space.size, max_tasks=4)
        p = random_dist(rng, space)
        q = random_dist(rng, space)
        fine, coarse, kernel = random_garbling_pair(
            rng, space, max_fine=6, max_coarse=5
        )
        res = decompose(firm, p, q, coarse, fine, kernel)
        if res.identity_gap != 0:
            rational_identity_ok = False
        min_inst_rational = min(min_inst_rational, res.instrumental)
        fres = decompose(
            firm.to_float(), p.to_float(), q.to_float(),
            coarse.to_float(), fine.to_float(), kernel.to_float(),
        )
        worst_float_identity = max(worst_float_identity, abs(fres.identity_gap))
        min_inst_float = min(min_inst_float, fres.instrumental)
    return {
        "rational_identity_ok": rational_identity_ok,
        "min_inst_rational": min_inst_rational,
        "worst_float_identity": worst_float_identity,
        "min_inst_float": min_inst_float,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_01_decomposition_identity(bulk):
    ok = (
        bulk["rational_identity_ok"]
        and bulk["worst_float_identity"] <= 1e-9
        and bulk["elapsed"] <= 60.0
    )
    verdict(
        1,
        "pay change equals correction plus instrumental on 10^4 instances",
        ok,
        f"float worst {bulk['worst_float_identity']:.2e}, "
        f"{bulk['elapsed']:.1f}s",
    )


def test_criterion_02_instrumental_nonnegative(bulk):
    ok = bulk["min_inst_rational"] >= 0 and bulk["min_inst_float"] >= -1e-12
    verdict(
        2,
        "instrumental part never negative on the same instances",
        ok,
        f"min rational {bulk['min_inst_rational']}, "
        f"min float {bulk['min_inst_float']:.2e}",
    )


def test_criterion_03_correction_sign():
    bad = None
    for trial in range(10_000):
        rng = trial_rng(1003, trial)
        space = random_skill_space(rng)
        firm = random_firm(rng, space.size, monotone=True)
        fine, coarse, kernel = random_garbling_pair(rng, space, mlr=True)
        if trial % 2 == 0:
            p, q = random_lr_pair(rng, space)  # truth above perception
            res = decompose(firm, p, q, coarse, fine, kernel)
            good = res.perception_correcting >= 0
        else:
            q, p = random_lr_pair(rng, space)  # perception above truth
            res = decompose(firm, p, q, coarse, fine, kernel)
            good = res.perception_correcting <= 0
        if not good:
            bad = trial
            break
    verdict(
        3,
        "correction sign follows the perception order on 10^4 "
        "monotone-firm MLR instances",
        bad is None,
        "" if bad is None else f"first failure at trial {bad}",
    )


def test_criterion_04_single_task_reversal():
    space = SkillSpace((0, 1))
    res = decompose(
        Firm((Task((0, 1)),)),
        Dist(space, (Fraction(1, 2), Fraction(1, 2))),
        Dist(space, (Fraction(1, 4), Fraction(3, 4))),
        uninformative_structure(space),
        fully_informative_structure(space),
    )
    report = run_example("ex1-reversal")
    ok = (
        res.total == Fraction(-1, 4)
        and res.perception_correcting == Fraction(-1, 4)
        and res.instrumental == 0
        and report.ok
    )
    verdict(
        4,
        "single increasing task, full revelation: change -1/4, all of it "
        "correction",
        ok,
        f"total {res.total}, correction {res.perception_correcting}, "
        f"instrumental {res.instrumental}",
    )


def test_criterion_05_decreasing_task_correction():
    space = SkillSpace((0, 1))
    firm = Firm((Task((1, 0)),))
    coarse = uninformative_structure(space)
    fine = fully_informative_structure(space)
    bad = None
    for trial in range(100):
        rng = trial_rng(1005, trial)
        p = random_dist(rng, space)
        q = random_dist(rng, space)
        res = decompose(firm, p, q, coarse, fine)
        if res.perception_correcting != p.probs[0] - q.probs[0]:
            bad = trial
            break
    verdict(
        5,
        "decreasing task: correction equals p(0) - q(0) on 100 random pairs",
        bad is None,
        "" if bad is None else f"first failure at trial {bad}",
    )


def test_criterion_06_extreme_pooling_correction():
    failures = []
    for delta in (
        Fraction(1, 25), Fraction(-1, 25), Fraction(1, 50), Fraction(-1, 50)
    ):
        report = run_example("ex3-mlr-fail", delta=delta)
        got = Fraction(dict(report.facts)["perception-correcting"])
        want = -delta / 3
        if not (report.ok and got == want and (got < 0) == (delta > 0)):
            failures.append(f"delta {delta}: correction {got}")
    verdict(
        6,
        "extreme-pooling structure: correction is (1/4 - p1)/3 with the "
        "opposite sign of the shift",
        not failures,
        "; ".join(failures),
    )


def test_criterion_07_accuracy_sweep():
    failures = []
    t0 = time.perf_counter()
    rows = figure1_rows(parse_grid("1/2:1:1/520"))
    elapsed = time.perf_counter() - t0
    kink_i, kink_j, step = Fraction(9, 13), Fraction(4, 5), Fraction(1, 520)
    by_acc = {r.accuracy: r for r in rows}

    first_flat = next(r.accuracy for r in rows if r.task_i_s0 == 0)
    if first_flat != kink_i:
        failures.append(f"favored low-signal switch at {first_flat}, not 9/13")
    first_steep = next(r.accuracy for r in rows if r.task_j_s1 == 1)
    if first_steep != kink_j + step:
        failures.append(
            f"disfavored high-signal switch at {first_steep}, not just above 4/5"
        )
    firm, _, q_i, q_j = figure1_instance()
    sig_i = binary_symmetric_structure(q_i.space, kink_i)
    sig_j = binary_symmetric_structure(q_j.space, kink_j)
    tie_i = pay_table(firm, q_i, q_i, sig_i).rows[0].ties
    tie_j = pay_table(firm, q_j, q_j, sig_j).rows[1].ties
    if tie_i != [0, 1] or tie_j != [0, 1]:
        failures.append("kink accuracies are not exact assignment ties")
    if by_acc[Fraction(1)].gap != 0:
        failures.append(f"gap at accuracy 1 is {by_acc[Fraction(1)].gap}")
    if not by_acc[kink_j].gap > by_acc[kink_i].gap:
        failures.append("gap not larger at the second kink than at the first")
    if elapsed > 10.0:
        failures.append(f"sweep took {elapsed:.1f}s")

    g79, g81 = (
        r.gap for r in figure1_rows([Fraction(79, 100), Fraction(81, 100)])
    )
    if not g81 > g79:
        failures.append(
            f"gap(0.81) = {g81} is not above gap(0.79) = {g79}; "
            "the gap peaks at 4/5 between them"
        )
    verdict(
        7,
        "accuracy sweep: exact kinks at 9/13 and 4/5, zero gap at full "
        "accuracy, stated gap comparison",
        not failures,
        "; ".join(failures),
    )


def test_criterion_08_widening_counterexamples():
    failures = []
    records = narrowing_counterexamples()
    if len(records) != 5:
        failures.append(f"{len(records)} counterexamples")
    for rec in records:
        report = check_narrowing(rec.scenario)
        broken = [k for k, v in report.hypotheses.items() if not v]
        if broken != [rec.violated]:
            failures.append(f"{rec.name} breaks {broken}")
        if not report.baseline_lr or report.star_holds or report.gap_change <= 0:
            failures.append(f"{rec.name} does not widen the gap")
    third = records[2]
    want = Fraction(1, 10) - Fraction(35, 384)
    got = check_narrowing(third.scenario).gap_change
    if got != want:
        failures.append(f"third tuple gap change {got}, want {want}")
    verdict(
        8,
        "five designated-hypothesis counterexamples all widen the gap; "
        "third tuple change is 1/10 - 35/384",
        not failures,
        "; ".join(failures),
    )


def test_criterion_09_narrowing_within_hypotheses():
    bad = None
    for trial in range(1_000):
        rng = trial_rng(1009, trial)
        scenario, kernel = random_narrowing_scenario(rng)
        report = check_narrowing(scenario, kernel=kernel)
        if not (
            report.all_hypotheses_hold and report.baseline_lr and report.star_holds
        ):
            bad = trial
            break
    verdict(
        9,
        "gap never widens on 10^3 instances satisfying all five hypotheses",
        bad is None,
        "" if bad is None else f"first failure at trial {bad}",
    )


def test_criterion_10_accurate_perception_gain():
    bad = None
    for trial in range(10_000):
        rng = trial_rng(1010, trial)
        space = random_skill_space(rng)
        firm = random_firm(rng, space.size)
        p = random_dist(rng, space)
        fine, coarse, kernel = random_garbling_pair(rng, space)
        w_fine = average_pay(firm, Population(p, p, fine))
        w_coarse = average_pay(firm, Population(p, p, coarse))
        c = decompose(firm, p, p, coarse, fine, kernel).perception_correcting
        if w_fine < w_coarse or c != 0:
            bad = trial
            break
    verdict(
        10,
        "with accurate perception, finer information never lowers pay and "
        "the correction vanishes (10^4 pairs)",
        bad is None,
        "" if bad is None else f"first failure at trial {bad}",
    )


def test_criterion_11_favorable_perception():
    failures = []
    bad = None
    for trial in range(10_000):
        rng = trial_rng(1011, trial)
        space = random_skill_space(rng)
        firm = random_firm(rng, space.size, monotone=True)
        p = random_dist(rng, space)
        hi, lo = random_lr_pair(rng, space)
        sig = random_signal_structure(rng, space)
        if average_pay(firm, Population(p, hi, sig)) < average_pay(
            firm, Population(p, lo, sig)
        ):
            bad = trial
            break
    if bad is not None:
        failures.append(f"ordered-perception pay ranking fails at trial {bad}")
    bad = None
    for trial in range(1_000):
        rng = trial_rng(2011, trial)
        space = random_skill_space(rng)
        q_bad, q_ref = random_non_lr_pair(rng, space)
        i, j = lr_violation(q_bad, q_ref)
        sep = separating_signal_structure(space, i, j)
        p = random_dist(rng, space)
        for _ in range(10):
            firm = random_firm(rng, space.size, monotone=True)
            w_bad = average_pay(firm, Population(p, q_bad, sep))
            w_ref = average_pay(firm, Population(p, q_ref, sep))
            if not w_bad < w_ref:
                bad = trial
                break
        if bad is not None:
            break
    if bad is not None:
        failures.append(f"separating structure not strict at trial {bad}")
    verdict(
        11,
        "higher perception never earns less (10^4); pooling a violating "
        "type pair earns strictly less at 10 firms each (10^3)",
        not failures,
        "; ".join(failures),
    )


def test_criterion_12_garbling_feasibility():
    bad = None
    for trial in range(1_000):
        rng = trial_rng(1012, trial)
        space = random_skill_space(rng, max_types=4)
        sig = random_signal_structure(rng, space, max_signals=4)
        flat = uninformative_structure(space)
        full = fully_informative_structure(space)
        checks = (
            find_garbling(sig, sig),
            find_garbling(sig, flat),
            find_garbling(full, sig),
        )
        if any(k is None for k in checks):
            bad = trial
            break
        if not kernel_reproduces(checks[2], full, sig):
            bad = trial
            break
        inner = random_kernel(rng, sig.signals, 3)
        mid = garble(sig, inner)
        outer = random_kernel(rng, mid.signals, 2)
        far = garble(mid, outer)
        if not kernel_reproduces(compose_kernels(outer, inner), sig, far):
            bad = trial
            break
    verdict(
        12,
        "identity, uninformative-target, and full-source kernels found on "
        "10^3 structures; composed kernels reproduce chained garblings",
        bad is None,
        "" if bad is None else f"first failure at trial {bad}",
    )


def test_criterion_13_extremeness_and_full_information():
    failures = []
    bad = None
    for trial in range(1_000):
        rng = trial_rng(1013, trial)
        space = random_skill_space(rng, max_types=4)
        q = random_dist(rng, space)
        delta = Fraction(_int(rng, 1, 9), 10)
        eps = extremeness_eps_bound(q, delta)
        sig = extreme_structure(space, eps)
        if not within_eps_of_full(sig, eps):
            bad = trial
            break
        if any(
            max(posterior(q, sig, s).probs) < 1 - delta for s in sig.signals
        ):
            bad = trial
            break
    if bad is not None:
        failures.append(f"extremeness bound fails at trial {bad}")
    bad = None
    for trial in range(1_000):
        rng = trial_rng(2013, trial)
        space = random_skill_space(rng)
        firm = random_firm(rng, space.size)
        p = random_dist(rng, space)
        q_i = random_dist(rng, space)
        q_j = random_dist(rng, space)
        if pay_gap(firm, p, q_i, q_j, fully_informative_structure(space)) != 0:
            bad = trial
            break
    if bad is not None:
        failures.append(f"full-information gap nonzero at trial {bad}")
    verdict(
        13,
        "posterior extremeness holds at the derived bound (10^3); the "
        "fully-informative gap is identically zero (10^3)",
        not failures,
        "; ".join(failures),
    )
