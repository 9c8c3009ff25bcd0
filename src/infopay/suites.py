"""Randomized property suites over generated instances.

Each suite checks a family of claims on ``trials`` independent random
instances.  Instances are generated exactly (rationals); in float mode
they are converted before checking and signed comparisons get the
documented slacks.  Trial streams are seeded with ``(seed, trial)``, so
results are reproducible and independent of execution order; trials are
checked sequentially and counterexamples report the first failing
trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .decomposition import check_signs
from .discrimination import (
    GapScenario,
    check_gap_ranking,
    check_narrowing,
    check_nearly_full,
    narrowing_counterexamples,
    pay_gap,
)
from .errors import InputError
from .garbling import (
    compose_kernels,
    extremeness_eps_bound,
    find_garbling,
    garble,
    kernel_reproduces,
    within_eps_of_full,
)
from .generators import (
    PRNG_ID,
    _int,
    extreme_structure,
    random_dist,
    random_firm,
    random_garbling_pair,
    random_kernel,
    random_lr_above,
    random_lr_pair,
    random_mlr_structure,
    random_narrowing_scenario,
    random_non_lr_pair,
    random_signal_structure,
    random_skill_space,
    trial_rng,
)
from .instancefile import serialize_instance
from .model import (
    Population,
    average_pay,
    fully_informative_structure,
    pay_table,
    posterior,
    uninformative_structure,
)
from .numeric import claim_slacks, format_number, require_count
from .orders import (
    PerceptionClass,
    fosd_geq,
    is_mlr,
    lr_geq,
    lr_violation,
    perception_class,
    separating_signal_structure,
)

__all__ = ["ClaimStats", "SuiteResult", "SUITE_NAMES", "run_suite"]


@dataclass
class ClaimStats:
    name: str
    passes: int = 0
    failures: int = 0
    first_failure: str | None = None

    @property
    def attempts(self) -> int:
        return self.passes + self.failures


@dataclass
class SuiteResult:
    suite: str
    trials: int
    seed: int
    mode: str
    prng: str
    claims: tuple[ClaimStats, ...]

    @property
    def ok(self) -> bool:
        return all(c.failures == 0 for c in self.claims)

    def render(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"prng: {self.prng}",
            f"seed: {self.seed}",
            f"mode: {self.mode}",
            f"trials: {self.trials}",
        ]
        for c in self.claims:
            status = f"claim {c.name}: {c.passes}/{c.attempts} pass"
            if c.failures:
                status += f", {c.failures} FAIL"
            lines.append(status)
            if c.first_failure is not None:
                body = c.first_failure.rstrip("\n").replace("\n", "\n    ")
                lines.append(f"  first counterexample: {body}")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


class _Book:
    def __init__(self):
        self.claims: dict[str, ClaimStats] = {}

    def check(self, name, ok, trial, carrier=None, detail="") -> bool:
        stats = self.claims.setdefault(name, ClaimStats(name))
        if ok:
            stats.passes += 1
        else:
            stats.failures += 1
            if stats.first_failure is None:
                text = f"trial {trial}"
                if detail:
                    text += f"; {detail}"
                if carrier is not None:
                    try:
                        text += "\n" + serialize_instance(carrier)
                    except InputError:
                        text += f"\n{carrier!r}"
                stats.first_failure = text
        return bool(ok)


def _adj(mode: str, obj):
    return obj if mode == "rational" else obj.to_float()


# -- suite bodies ---------------------------------------------------------------


def _suite_theorem1(rng, trial, mode, tol, book: _Book) -> None:
    eq, _, _ = claim_slacks(mode == "rational", tol)

    # hypothesis-free claims on a fully arbitrary instance
    space = random_skill_space(rng)
    firm = _adj(mode, random_firm(rng, space.size))
    p = _adj(mode, random_dist(rng, space))
    q = _adj(mode, random_dist(rng, space))
    fine, coarse, kernel = random_garbling_pair(rng, space)
    fine, coarse, kernel = _adj(mode, fine), _adj(mode, coarse), _adj(mode, kernel)
    carrier = GapScenario(firm=firm, p=p, q_i=q, q_j=q, coarse=coarse, fine=fine)

    report = check_signs(firm, p, q, coarse, fine, kernel, tol=tol)
    res = report.result
    book.check(
        "decomposition-identity", report.identity_ok, trial, carrier,
        f"identity gap {format_number(res.identity_gap)}",
    )
    report_hi = check_signs(
        firm, p, q, coarse, fine, kernel, tie_break="highest", tol=tol
    )
    book.check(
        "identity-other-tiebreak", report_hi.identity_ok, trial, carrier,
        f"identity gap {format_number(report_hi.result.identity_gap)}",
    )
    direct = average_pay(firm, Population(p, q, fine)) - average_pay(
        firm, Population(p, q, coarse)
    )
    book.check(
        "total-matches-pay-difference", abs(res.total - direct) <= eq, trial,
        carrier, f"total {format_number(res.total)} vs {format_number(direct)}",
    )
    book.check(
        "instrumental-nonneg", report.instrumental_ok, trial, carrier,
        f"instrumental {format_number(res.instrumental)}",
    )
    other = res.instrumental_signalwise
    book.check(
        "instrumental-forms-agree", abs(res.instrumental - other) <= eq, trial,
        carrier, f"{format_number(res.instrumental)} vs {format_number(other)}",
    )

    # signed claims on a within-hypothesis instance; check_signs classes
    # the perception (random_lr_pair may draw p = q: accurate)
    space_w = random_skill_space(rng)
    firm_w = random_firm(rng, space_w.size, monotone=True)
    fine_w, coarse_w, kernel_w = random_garbling_pair(rng, space_w, mlr=True)
    rotation = trial % 3
    if rotation == 0:
        p_w, q_w = random_lr_pair(rng, space_w)
    elif rotation == 1:
        q_w, p_w = random_lr_pair(rng, space_w)
    else:
        p_w = random_dist(rng, space_w)
        q_w = p_w
    firm_w, p_w, q_w = _adj(mode, firm_w), _adj(mode, p_w), _adj(mode, q_w)
    fine_w, coarse_w, kernel_w = (
        _adj(mode, fine_w), _adj(mode, coarse_w), _adj(mode, kernel_w)
    )
    carrier_w = GapScenario(
        firm=firm_w, p=p_w, q_i=q_w, q_j=q_w, coarse=coarse_w, fine=fine_w
    )
    report_w = check_signs(firm_w, p_w, q_w, coarse_w, fine_w, kernel_w, tol=tol)
    res_w = report_w.result
    book.check(
        "correction-sign-within-hypotheses", report_w.correction_sign_ok,
        trial, carrier_w,
        f"rotation {('under', 'over', 'accurate')[rotation]}, "
        f"correction {format_number(res_w.perception_correcting)}",
    )

    book.check(
        "conditional-task-value-monotone",
        _kept_task_values_monotone(firm_w, q_w, fine_w, res_w.assignment_coarse, eq),
        trial, carrier_w,
    )
    if rotation == 0:
        book.check(
            "conditional-frequency-fosd",
            _conditional_fosd(firm_w, p_w, q_w, fine_w, kernel_w, eq),
            trial, carrier_w,
        )

    if trial % 50 == 0:  # LP witness instead of the constructed kernel
        lp = check_signs(firm_w, p_w, q_w, coarse_w, fine_w, kernel=None, tol=tol)
        lp_ok = lp.identity_ok and lp.instrumental_ok and lp.correction_sign_ok
        book.check("lp-witness-kernel-agrees", lp_ok, trial, carrier_w)


def _kept_task_values_monotone(firm, q, fine, assignment_coarse, eq) -> bool:
    """Perceived fine-posterior value of each kept coarse task must be
    nondecreasing along the fine signal order (fine is MLR, firm
    monotone).  Exact values carry the table's positive surplus scale."""
    table = pay_table(firm, q, q, fine)
    for idx in set(assignment_coarse):
        surplus = table.surplus[idx]
        prev = None
        for row in table.rows:
            dot = sum(map(mul, row.weights, surplus))
            v = Fraction(dot, row.m_q) if table.exact else dot / row.m_q
            if prev is not None and v < prev - eq:
                return False
            prev = v
    return True


def _conditional_fosd(firm, p, q, fine, kernel, eq) -> bool:
    """Given each coarse signal, the true fine-signal law must FOSD the
    perceived one when the truth is LR-above the perception."""
    rows = pay_table(firm, p, q, fine).rows
    for g_row in kernel.matrix:
        a = [g * r.m_p for g, r in zip(g_row, rows)]
        b = [g * r.m_q for g, r in zip(g_row, rows)]
        total_a, total_b = sum(a), sum(b)
        if total_a <= 0 or total_b <= 0:
            continue
        cum_a = 0
        cum_b = 0
        for f in range(len(rows) - 1):
            cum_a += a[f]
            cum_b += b[f]
            # CDF under p must not exceed CDF under q (cross-multiplied)
            if cum_a * total_b > cum_b * total_a + eq * total_a * total_b:
                return False
    return True


def _suite_lemma1(rng, trial, mode, tol, book: _Book) -> None:
    eq, sign, _ = claim_slacks(mode == "rational", tol)

    space = random_skill_space(rng)
    firm = random_firm(rng, space.size, monotone=True)
    p = random_dist(rng, space)
    hi, lo = random_lr_pair(rng, space)
    sig = random_signal_structure(rng, space)
    firm, p, hi, lo, sig = (
        _adj(mode, firm), _adj(mode, p), _adj(mode, hi), _adj(mode, lo),
        _adj(mode, sig),
    )
    w_hi = average_pay(firm, Population(p, hi, sig))
    w_lo = average_pay(firm, Population(p, lo, sig))
    book.check(
        "lr-favorable-earns-at-least", w_hi >= w_lo - sign, trial,
        Population(p, hi, sig),
        f"lo {' '.join(format_number(v) for v in lo.probs)}, "
        f"pay {format_number(w_hi)} vs {format_number(w_lo)}",
    )

    q_bad, q_ref = random_non_lr_pair(rng, space)
    i, j = lr_violation(q_bad, q_ref)
    sep = separating_signal_structure(space, i, j)
    p2 = random_dist(rng, space)
    q_bad, q_ref, sep, p2 = (
        _adj(mode, q_bad), _adj(mode, q_ref), _adj(mode, sep), _adj(mode, p2)
    )
    strict = True
    for _ in range(10):
        firm2 = _adj(mode, random_firm(rng, space.size, monotone=True))
        w_bad = average_pay(firm2, Population(p2, q_bad, sep))
        w_ref = average_pay(firm2, Population(p2, q_ref, sep))
        if not w_bad < w_ref:
            strict = False
            break
    book.check(
        "separating-structure-strictly-separates", strict, trial,
        Population(p2, q_bad, sep),
        f"reference {' '.join(format_number(v) for v in q_ref.probs)}",
    )


def _suite_corollary1(rng, trial, mode, tol, book: _Book) -> None:
    _, sign, _ = claim_slacks(mode == "rational", tol)
    space = random_skill_space(rng)
    firm = random_firm(rng, space.size, monotone=True)
    fine, coarse, kernel = random_garbling_pair(rng, space, mlr=True)
    p, q = random_lr_pair(rng, space)  # truth LR-above perception
    firm, p, q = _adj(mode, firm), _adj(mode, p), _adj(mode, q)
    fine, coarse, kernel = _adj(mode, fine), _adj(mode, coarse), _adj(mode, kernel)
    carrier = GapScenario(firm=firm, p=p, q_i=q, q_j=q, coarse=coarse, fine=fine)
    report = check_signs(firm, p, q, coarse, fine, kernel, tol=tol)
    res = report.result
    book.check(
        "information-gain-nonneg-when-under-perceived",
        res.total >= -sign, trial, carrier, f"total {format_number(res.total)}",
    )
    book.check(
        "correction-nonneg-when-under-perceived",
        report.correction_sign_ok, trial, carrier,
        f"correction {format_number(res.perception_correcting)}",
    )


def _suite_corollary2(rng, trial, mode, tol, book: _Book) -> None:
    eq, sign, _ = claim_slacks(mode == "rational", tol)
    space = random_skill_space(rng)
    firm = random_firm(rng, space.size, monotone=True)
    q_j = random_dist(rng, space)
    p = random_lr_above(rng, q_j)
    q_i = random_lr_above(rng, q_j)
    fine, coarse, kernel = random_garbling_pair(rng, space, mlr=True)
    firm, p, q_i, q_j = (
        _adj(mode, firm), _adj(mode, p), _adj(mode, q_i), _adj(mode, q_j)
    )
    fine, coarse, kernel = _adj(mode, fine), _adj(mode, coarse), _adj(mode, kernel)
    carrier = GapScenario(firm=firm, p=p, q_i=q_i, q_j=q_j, coarse=coarse, fine=fine)
    report = check_gap_ranking(
        firm, p, q_i, q_j, sig_i=fine, sig_j=coarse, kernel=kernel, tol=tol
    )
    book.check(
        "hypotheses-constructed", report.all_hypotheses_hold, trial, carrier,
        f"hypotheses {report.hypotheses}",
    )
    book.check(
        "favored-earns-at-least", report.conclusion_holds, trial, carrier,
        f"pay {format_number(report.w_i)} vs {format_number(report.w_j)}",
    )
    terms_ok = (
        report.favorableness >= -sign
        and report.signs.correction_sign_ok
        and report.signs.instrumental_ok
    )
    book.check(
        "three-terms-nonneg", terms_ok, trial, carrier,
        f"favorableness {format_number(report.favorableness)}, "
        f"correction {format_number(report.correction)}, "
        f"instrumental {format_number(report.instrumental)}",
    )
    resid = (report.w_i - report.w_j) - (
        report.favorableness + report.correction + report.instrumental
    )
    book.check(
        "terms-sum-to-gap", abs(resid) <= eq, trial, carrier,
        f"residual {format_number(resid)}",
    )


def _suite_prop1(rng, trial, mode, tol, book: _Book) -> None:
    scenario, kernel = random_narrowing_scenario(rng)
    scenario, kernel = _adj(mode, scenario), _adj(mode, kernel)
    report = check_narrowing(scenario, kernel=kernel, tol=tol)
    book.check(
        "hypotheses-constructed",
        report.all_hypotheses_hold and report.baseline_lr,
        trial, scenario, f"hypotheses {report.hypotheses}",
    )
    book.check(
        "gap-narrowed", report.star_holds, trial, scenario,
        f"gap {format_number(report.gap_coarse)} -> {format_number(report.gap_fine)}",
    )


def _suite_prop2(rng, trial, mode, tol, book: _Book) -> None:
    eq, _, _ = claim_slacks(mode == "rational", tol)
    records = narrowing_counterexamples()
    expected_changes = {
        "monotone_firm": Fraction(1, 2),
        "favored_over_perceived": Fraction(17, 1920),
        "other_under_perceived": Fraction(17, 1920),
        "slight_gain": Fraction(517, 5642),
    }
    for rec in records:
        scenario = _adj(mode, rec.scenario)
        report = check_narrowing(scenario, tol=tol)
        failed = [k for k, v in report.hypotheses.items() if not v]
        book.check(
            "designated-hypothesis-fails-alone", failed == [rec.violated],
            trial, scenario, f"{rec.name}: failed {failed}",
        )
        book.check(
            "baseline-order-holds", report.baseline_lr, trial, scenario, rec.name
        )
        book.check(
            "gap-widens", (not report.star_holds) and report.gap_change > eq,
            trial, scenario,
            f"{rec.name}: change {format_number(report.gap_change)}",
        )
        if rec.violated in expected_changes:
            want = expected_changes[rec.violated]
            got = report.gap_change
            book.check(
                "frozen-gap-change-values", abs(got - want) <= eq, trial,
                scenario,
                f"{rec.name}: {format_number(got)} vs {format_number(want)}",
            )


def _suite_prop3(rng, trial, mode, tol, book: _Book) -> None:
    eq, sign, _ = claim_slacks(mode == "rational", tol)

    space = random_skill_space(rng, max_types=4)
    q = random_dist(rng, space)
    delta = Fraction(_int(rng, 1, 9), 10)
    bound = extremeness_eps_bound(q, delta)
    eps = bound * Fraction(_int(rng, 1, 9), 9)
    sig = extreme_structure(space, eps)
    q_m, sig_m = _adj(mode, q), _adj(mode, sig)
    extreme_ok = within_eps_of_full(sig_m, float(bound) if mode == "float" else bound)
    for label in sig_m.signals:
        post = posterior(q_m, sig_m, label)
        if max(post.probs) < 1 - delta - sign:
            extreme_ok = False
            break
    book.check(
        "extremeness-bound-forces-extreme-posteriors", extreme_ok, trial,
        Population(q_m, q_m, sig_m),
        f"delta {format_number(delta)}, eps {format_number(eps)}",
    )

    space_b = random_skill_space(rng)
    firm_b = _adj(mode, random_firm(rng, space_b.size))
    p_b = _adj(mode, random_dist(rng, space_b))
    qi_b = _adj(mode, random_dist(rng, space_b))
    qj_b = _adj(mode, random_dist(rng, space_b))
    full = _adj(mode, fully_informative_structure(space_b))
    gap = pay_gap(firm_b, p_b, qi_b, qj_b, full)
    book.check(
        "fully-informative-gap-zero", abs(gap) <= eq, trial,
        GapScenario(firm=firm_b, p=p_b, q_i=qi_b, q_j=qj_b, coarse=full, fine=full),
        f"gap {format_number(gap)}",
    )

    space_c = random_skill_space(rng, max_types=4)
    firm_c = random_firm(rng, space_c.size, max_tasks=3, monotone=True)
    q_i, q_j = random_lr_pair(rng, space_c)
    p_c = random_dist(rng, space_c)
    eta = None
    for _ in range(20):
        coarse_c = random_signal_structure(rng, space_c, max_signals=4)
        eta = pay_gap(firm_c, p_c, q_i, q_j, coarse_c)
        if eta > 0:
            break
    if eta is not None and eta > 0:
        m_max = max(abs(v) for task in firm_c.tasks for v in task.surplus)
        delta_c = eta / (8 * (m_max + 1))
        eps_c = min(
            extremeness_eps_bound(q_i, delta_c),
            extremeness_eps_bound(q_j, delta_c),
        )
        fine_c = extreme_structure(space_c, eps_c)
        scenario = GapScenario(
            firm=firm_c, p=p_c, q_i=q_i, q_j=q_j, coarse=coarse_c, fine=fine_c
        )
        scenario = _adj(mode, scenario)
        report = check_nearly_full(
            scenario, float(eps_c) if mode == "float" else eps_c, tol=tol
        )
        book.check(
            "near-full-narrows-positive-gap",
            report.within_eps and report.ok
            and report.gap_fine <= report.gap_coarse + sign,
            trial, scenario,
            f"eta {format_number(eta)}, fine gap {format_number(report.gap_fine)}",
        )


def _suite_orders(rng, trial, mode, tol, book: _Book) -> None:
    space = random_skill_space(rng)
    hi, lo = random_lr_pair(rng, space)
    hi_m, lo_m = _adj(mode, hi), _adj(mode, lo)
    book.check(
        "lr-implies-fosd", fosd_geq(hi_m, lo_m, tol=tol), trial, None,
        f"hi {' '.join(format_number(v) for v in hi.probs)}, "
        f"lo {' '.join(format_number(v) for v in lo.probs)}",
    )

    sig = _adj(mode, random_signal_structure(rng, space))
    posterior_ok = all(
        lr_geq(posterior(hi_m, sig, s), posterior(lo_m, sig, s), tol=tol)
        for s in sig.signals
    )
    book.check(
        "posterior-preserves-lr", posterior_ok, trial, Population(hi_m, lo_m, sig)
    )

    mlr_sig = _adj(mode, random_mlr_structure(rng, space))
    book.check("mlr-construction-valid", is_mlr(mlr_sig, tol=tol), trial, None)

    same = hi.probs == lo.probs
    cls = perception_class(hi_m, lo_m, tol=tol)
    expected = PerceptionClass.ACCURATE if same else PerceptionClass.UNDER_PERCEIVED
    mirror = perception_class(lo_m, hi_m, tol=tol)
    expected_mirror = (
        PerceptionClass.ACCURATE if same else PerceptionClass.OVER_PERCEIVED
    )
    book.check(
        "perception-class-consistent",
        cls is expected and mirror is expected_mirror,
        trial, None, f"got {cls.value} / {mirror.value}",
    )


def _suite_garbling(rng, trial, mode, tol, book: _Book) -> None:
    space = random_skill_space(rng, max_types=4)
    sig = _adj(mode, random_signal_structure(rng, space, max_signals=4))

    found = find_garbling(sig, sig, tol=tol)
    book.check(
        "identity-target-feasible",
        found is not None and kernel_reproduces(found, sig, sig, tol=tol),
        trial, None,
    )

    flat = _adj(mode, uninformative_structure(space))
    found = find_garbling(sig, flat, tol=tol)
    book.check(
        "uninformative-target-feasible",
        found is not None and kernel_reproduces(found, sig, flat, tol=tol),
        trial, None,
    )

    full = _adj(mode, fully_informative_structure(space))
    found = find_garbling(full, sig, tol=tol)
    book.check(
        "full-information-source-feasible",
        found is not None and kernel_reproduces(found, full, sig, tol=tol),
        trial, None,
    )

    fine, coarse, kernel = random_garbling_pair(rng, space, max_fine=4, max_coarse=3)
    fine, coarse = _adj(mode, fine), _adj(mode, coarse)
    found = find_garbling(fine, coarse, tol=tol)
    book.check(
        "derived-garbling-recovered",
        found is not None and kernel_reproduces(found, fine, coarse, tol=tol),
        trial, None,
    )

    inner = _adj(mode, random_kernel(rng, fine.signals, 3))
    mid = garble(fine, inner)
    outer = _adj(mode, random_kernel(rng, mid.signals, 2))
    far = garble(mid, outer)
    composed = compose_kernels(outer, inner)
    book.check(
        "composition-reproduces",
        kernel_reproduces(composed, fine, far, tol=tol),
        trial, None,
    )


SUITES = {
    "theorem1": (_suite_theorem1, None),
    "lemma1": (_suite_lemma1, None),
    "corollary1": (_suite_corollary1, None),
    "corollary2": (_suite_corollary2, None),
    "prop1": (_suite_prop1, None),
    "prop2": (_suite_prop2, 1),  # fixed counterexample tuples; trials ignored
    "prop3": (_suite_prop3, None),
    "orders": (_suite_orders, None),
    "garbling": (_suite_garbling, None),
}

SUITE_NAMES = tuple(SUITES)


def run_suite(
    name: str,
    trials: int = 200,
    seed: int = 0,
    mode: str = "rational",
    tol: float | None = None,
) -> SuiteResult:
    """Run one named suite; deterministic given (name, trials, seed, mode)."""
    if name not in SUITES:
        raise InputError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    if mode not in ("rational", "float"):
        raise InputError(f"unknown mode {mode!r}")
    require_count(trials, "trials", 1)
    require_count(seed, "seed", 0)
    body, override = SUITES[name]
    n = override if override is not None else trials
    book = _Book()
    for trial in range(n):
        body(trial_rng(seed, trial), trial, mode, tol, book)
    return SuiteResult(
        suite=name,
        trials=n,
        seed=seed,
        mode=mode,
        prng=PRNG_ID,
        claims=tuple(book.claims.values()),
    )
