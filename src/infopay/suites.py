"""Randomized property suites over generated instances.

Each suite checks a family of claims on ``trials`` independent random
instances.  Its draw, ``_draw_<suite>(rng, trial)``, returns the trial's
exact instance; its judge books the claims on the instance it is given,
whatever the mode.  One trial loop seeds each trial's stream with ``(seed,
trial)``, so results are reproducible and independent of execution order,
takes the instance's float twin once per trial in float mode, and hands
the judge the mode's one claim slack (``claim_slacks``).  Counterexamples
report the first failing trial with the instance the claim was judged on.
"""

from __future__ import annotations

from fractions import Fraction

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
    number_forms,
    pay_table,
    posterior,
    twin,
    uninformative_structure,
)
from .numeric import check_mode, claim_slacks, format_number, require_count
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


class ClaimStats:
    """Pass and failure counts of one claim, with its first counterexample."""

    def __init__(self, name: str, passes: int = 0, failures: int = 0,
                 first_failure: str | None = None):
        self.name = name
        self.passes = passes
        self.failures = failures
        self.first_failure = first_failure

    @property
    def attempts(self) -> int:
        return self.passes + self.failures


class SuiteResult:
    """The claims one suite run booked, and the run's settings."""

    def __init__(self, suite: str, trials: int, seed: int, mode: str, prng: str,
                 claims: tuple[ClaimStats, ...]):
        self.suite = suite
        self.trials = trials
        self.seed = seed
        self.mode = mode
        self.prng = prng
        self.claims = claims

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
        """Book one check of claim ``name``.  ``detail`` is the failure's
        text, or a function giving it, called only on a first failure, so
        a passing check builds no text."""
        stats = self.claims.get(name)
        if stats is None:  # a claim's first booking
            stats = self.claims[name] = ClaimStats(name)
        if ok:
            stats.passes += 1
        else:
            stats.failures += 1
            if stats.first_failure is None:
                text = f"trial {trial}"
                if callable(detail):
                    detail = detail()
                if detail:
                    text += f"; {detail}"
                if carrier is not None:
                    try:
                        text += "\n" + serialize_instance(carrier)
                    except InputError:
                        text += f"\n{carrier!r}"
                stats.first_failure = text
        return bool(ok)


def _run_trials(draw, judge, trials, seed, mode, tol) -> tuple[ClaimStats, ...]:
    """Judge ``trials`` drawn instances, each on its own stream; float mode
    judges each instance's twin."""
    slack, _ = claim_slacks(mode == "rational", tol)
    book = _Book()
    for trial in range(trials):
        inst = draw(trial_rng(seed, trial), trial)
        judge(inst if mode == "rational" else twin(inst), trial, slack, tol, book)
    return tuple(book.claims.values())


# -- draws and judges -----------------------------------------------------------


def _draw_theorem1(rng, trial):
    # a fully arbitrary instance for the hypothesis-free claims
    space = random_skill_space(rng)
    firm = random_firm(rng, space.size)
    p = random_dist(rng, space)
    q = random_dist(rng, space)
    fine, coarse, kernel = random_garbling_pair(rng, space)
    free = GapScenario(firm, p, q, q, coarse, fine)

    # a within-hypothesis instance for the signed claims; check_signs
    # classes the perception (random_lr_pair may draw p = q: accurate)
    space = random_skill_space(rng)
    firm = random_firm(rng, space.size, monotone=True)
    fine, coarse, kernel_w = random_garbling_pair(rng, space, mlr=True)
    rotation = trial % 3
    if rotation == 0:
        p, q = random_lr_pair(rng, space)
    elif rotation == 1:
        q, p = random_lr_pair(rng, space)
    else:
        p = q = random_dist(rng, space)
    within = GapScenario(firm, p, q, q, coarse, fine)
    return free, kernel, within, kernel_w


def _judge_theorem1(inst, trial, slack, tol, book: _Book) -> None:
    s, kernel, w, kernel_w = inst

    report = check_signs(s.firm, s.p, s.q_i, s.coarse, s.fine, kernel, tol=tol)
    res = report.result
    book.check(
        "decomposition-identity", report.identity_ok, trial, s,
        lambda: f"identity gap {format_number(res.identity_gap)}",
    )
    report_hi = check_signs(
        s.firm, s.p, s.q_i, s.coarse, s.fine, kernel, tie_break="highest", tol=tol
    )
    book.check(
        "identity-other-tiebreak", report_hi.identity_ok, trial, s,
        lambda: f"identity gap {format_number(report_hi.result.identity_gap)}",
    )
    book.check(
        "instrumental-nonneg", report.instrumental_ok, trial, s,
        lambda: f"instrumental {format_number(res.instrumental)}",
    )

    rotation = trial % 3
    report_w = check_signs(w.firm, w.p, w.q_i, w.coarse, w.fine, kernel_w, tol=tol)
    res_w = report_w.result
    book.check(
        "correction-sign-within-hypotheses", report_w.correction_sign_ok, trial, w,
        lambda: f"rotation {('under', 'over', 'accurate')[rotation]}, "
        f"correction {format_number(res_w.perception_correcting)}",
    )
    book.check(
        "conditional-task-value-monotone",
        _kept_task_values_monotone(w, res_w.assignment_coarse, slack), trial, w,
    )
    if rotation == 0:
        book.check(
            "conditional-frequency-fosd",
            _conditional_fosd(w, kernel_w, slack), trial, w,
        )

    if trial % 50 == 0:  # LP witness instead of the constructed kernel
        lp = check_signs(w.firm, w.p, w.q_i, w.coarse, w.fine, kernel=None, tol=tol)
        lp_ok = lp.identity_ok and lp.instrumental_ok and lp.correction_sign_ok
        book.check("lp-witness-kernel-agrees", lp_ok, trial, w)


def _kept_task_values_monotone(s: GapScenario, assignment_coarse, slack) -> bool:
    """Perceived fine-posterior value of each kept coarse task must be
    nondecreasing along the fine signal order (fine is MLR, firm
    monotone).  Exact values carry the table's positive surplus scale."""
    table = pay_table(s.firm, s.q_i, s.q_i, s.fine)
    for idx in set(assignment_coarse):
        prev = None
        for row in table.rows:
            dot = row.scores[idx]
            v = Fraction(dot, row.m_q) if table.exact else dot / row.m_q
            if prev is not None and v < prev - slack:
                return False
            prev = v
    return True


def _conditional_fosd(s: GapScenario, kernel, slack) -> bool:
    """Given each coarse signal, the true fine-signal law must FOSD the
    perceived one when the truth is LR-above the perception.  The kernel
    is read in its ``number_forms``: each test is invariant under its
    positive scale.  The weights are nonnegative, so a coarse signal
    with zero total weight under p or q reads ``0 > 0`` at every test
    and passes."""
    rows = pay_table(s.firm, s.p, s.q_i, s.fine).rows
    _, ((links, _),) = number_forms(kernel)
    for g_row in links:
        a = [g * r.m_p for g, r in zip(g_row, rows)]
        b = [g * r.m_q for g, r in zip(g_row, rows)]
        total_a, total_b = sum(a), sum(b)
        cum_a = 0
        cum_b = 0
        for f in range(len(rows) - 1):
            cum_a += a[f]
            cum_b += b[f]
            # CDF under p must not exceed CDF under q (cross-multiplied)
            if cum_a * total_b > cum_b * total_a + slack * total_a * total_b:
                return False
    return True


def _draw_lemma1(rng, trial):
    space = random_skill_space(rng)
    firm = random_firm(rng, space.size, monotone=True)
    p = random_dist(rng, space)
    hi, lo = random_lr_pair(rng, space)
    favored = Population(p, hi, random_signal_structure(rng, space))

    q_bad, q_ref = random_non_lr_pair(rng, space)
    sep = separating_signal_structure(space, *lr_violation(q_bad, q_ref))
    bad = Population(random_dist(rng, space), q_bad, sep)
    firms = tuple(random_firm(rng, space.size, monotone=True) for _ in range(10))
    return firm, favored, lo, bad, q_ref, firms


def _judge_lemma1(inst, trial, slack, tol, book: _Book) -> None:
    firm, favored, lo, bad, q_ref, firms = inst

    w_hi = average_pay(firm, favored)
    w_lo = average_pay(firm, Population(favored.p, lo, favored.sig))
    book.check(
        "lr-favorable-earns-at-least", w_hi >= w_lo - slack, trial, favored,
        lambda: f"lo {' '.join(format_number(v) for v in lo.probs)}, "
        f"pay {format_number(w_hi)} vs {format_number(w_lo)}",
    )

    ref = Population(bad.p, q_ref, bad.sig)
    strict = all(average_pay(f, bad) < average_pay(f, ref) for f in firms)
    book.check(
        "separating-structure-strictly-separates", strict, trial, bad,
        lambda: f"reference {' '.join(format_number(v) for v in q_ref.probs)}",
    )


def _draw_corollary1(rng, trial):
    space = random_skill_space(rng)
    firm = random_firm(rng, space.size, monotone=True)
    fine, coarse, kernel = random_garbling_pair(rng, space, mlr=True)
    p, q = random_lr_pair(rng, space)  # truth LR-above perception
    return GapScenario(firm, p, q, q, coarse, fine), kernel


def _judge_corollary1(inst, trial, slack, tol, book: _Book) -> None:
    s, kernel = inst
    report = check_signs(s.firm, s.p, s.q_i, s.coarse, s.fine, kernel, tol=tol)
    res = report.result
    book.check(
        "information-gain-nonneg-when-under-perceived",
        res.total >= -slack, trial, s, lambda: f"total {format_number(res.total)}",
    )
    book.check(
        "correction-nonneg-when-under-perceived",
        report.correction_sign_ok, trial, s,
        lambda: f"correction {format_number(res.perception_correcting)}",
    )


def _draw_corollary2(rng, trial):
    space = random_skill_space(rng)
    firm = random_firm(rng, space.size, monotone=True)
    q_j = random_dist(rng, space)
    p = random_lr_above(rng, q_j)
    q_i = random_lr_above(rng, q_j)
    fine, coarse, kernel = random_garbling_pair(rng, space, mlr=True)
    return GapScenario(firm, p, q_i, q_j, coarse, fine), kernel


def _judge_corollary2(inst, trial, slack, tol, book: _Book) -> None:
    s, kernel = inst
    report = check_gap_ranking(
        s.firm, s.p, s.q_i, s.q_j, sig_i=s.fine, sig_j=s.coarse, kernel=kernel, tol=tol
    )
    book.check(
        "hypotheses-constructed", report.all_hypotheses_hold, trial, s,
        lambda: f"hypotheses {report.hypotheses}",
    )
    book.check(
        "favored-earns-at-least", report.conclusion_holds, trial, s,
        lambda: f"pay {format_number(report.w_i)} vs {format_number(report.w_j)}",
    )
    terms_ok = (
        report.favorableness >= -slack
        and report.signs.correction_sign_ok
        and report.signs.instrumental_ok
    )
    book.check(
        "three-terms-nonneg", terms_ok, trial, s,
        lambda: f"favorableness {format_number(report.favorableness)}, "
        f"correction {format_number(report.correction)}, "
        f"instrumental {format_number(report.instrumental)}",
    )
    resid = (report.w_i - report.w_j) - (
        report.favorableness + report.correction + report.instrumental
    )
    book.check(
        "terms-sum-to-gap", abs(resid) <= slack, trial, s,
        lambda: f"residual {format_number(resid)}",
    )


def _draw_prop1(rng, trial):
    return random_narrowing_scenario(rng)


def _judge_prop1(inst, trial, slack, tol, book: _Book) -> None:
    scenario, kernel = inst
    report = check_narrowing(scenario, kernel=kernel, tol=tol)
    book.check(
        "hypotheses-constructed",
        report.all_hypotheses_hold and report.baseline_lr,
        trial, scenario, lambda: f"hypotheses {report.hypotheses}",
    )
    book.check(
        "gap-narrowed", report.star_holds, trial, scenario,
        lambda: f"gap {format_number(report.gap_coarse)} -> "
        f"{format_number(report.gap_fine)}",
    )


def _draw_prop2(rng, trial):
    return tuple((r.name, r.violated, r.scenario) for r in narrowing_counterexamples())


def _judge_prop2(inst, trial, slack, tol, book: _Book) -> None:
    expected_changes = {
        "monotone_firm": Fraction(1, 2),
        "favored_over_perceived": Fraction(17, 1920),
        "other_under_perceived": Fraction(17, 1920),
        "slight_gain": Fraction(517, 5642),
    }
    for name, violated, scenario in inst:
        report = check_narrowing(scenario, tol=tol)
        failed = [k for k, v in report.hypotheses.items() if not v]
        book.check(
            "designated-hypothesis-fails-alone", failed == [violated],
            trial, scenario, lambda: f"{name}: failed {failed}",
        )
        book.check("baseline-order-holds", report.baseline_lr, trial, scenario, name)
        book.check(
            "gap-widens", (not report.star_holds) and report.gap_change > slack,
            trial, scenario,
            lambda: f"{name}: change {format_number(report.gap_change)}",
        )
        if violated in expected_changes:
            want = expected_changes[violated]
            got = report.gap_change
            book.check(
                "frozen-gap-change-values", abs(got - want) <= slack, trial, scenario,
                lambda: f"{name}: {format_number(got)} vs {format_number(want)}",
            )


def _draw_prop3(rng, trial):
    # the eps bounds stay exact: a float structure compared against an
    # exact eps gets the verdicts float(eps) would give
    space = random_skill_space(rng, max_types=4)
    q = random_dist(rng, space)
    delta = Fraction(_int(rng, 1, 9), 10)
    bound = extremeness_eps_bound(q, delta)
    eps = bound * Fraction(_int(rng, 1, 9), 9)
    extreme = Population(q, q, extreme_structure(space, eps))

    space = random_skill_space(rng)
    firm = random_firm(rng, space.size)
    p, q_i, q_j = (random_dist(rng, space) for _ in range(3))
    full = fully_informative_structure(space)
    fully = GapScenario(firm, p, q_i, q_j, full, full)

    space = random_skill_space(rng, max_types=4)
    firm = random_firm(rng, space.size, max_tasks=3, monotone=True)
    q_i, q_j = random_lr_pair(rng, space)
    p = random_dist(rng, space)
    for _ in range(20):
        coarse = random_signal_structure(rng, space, max_signals=4)
        eta = pay_gap(firm, p, q_i, q_j, coarse)
        if eta > 0:
            break
    near = eps_c = None
    if eta > 0:
        m_max = max(abs(v) for task in firm.tasks for v in task.surplus)
        delta_c = eta / (8 * (m_max + 1))
        eps_c = min(extremeness_eps_bound(d, delta_c) for d in (q_i, q_j))
        near = GapScenario(firm, p, q_i, q_j, coarse, extreme_structure(space, eps_c))
    return extreme, delta, eps, bound, fully, near, eta, eps_c


def _judge_prop3(inst, trial, slack, tol, book: _Book) -> None:
    extreme, delta, eps, bound, fully, near, eta, eps_c = inst

    q, sig = extreme.q, extreme.sig
    extreme_ok = within_eps_of_full(sig, bound) and all(
        max(posterior(q, sig, label).probs) >= 1 - delta - slack
        for label in sig.signals
    )
    book.check(
        "extremeness-bound-forces-extreme-posteriors", extreme_ok, trial, extreme,
        lambda: f"delta {format_number(delta)}, eps {format_number(eps)}",
    )

    gap = pay_gap(fully.firm, fully.p, fully.q_i, fully.q_j, fully.fine)
    book.check(
        "fully-informative-gap-zero", abs(gap) <= slack, trial, fully,
        lambda: f"gap {format_number(gap)}",
    )

    if near is not None:
        report = check_nearly_full(near, eps_c, tol=tol)
        book.check(
            "near-full-narrows-positive-gap",
            report.within_eps and report.ok
            and report.gap_fine <= report.gap_coarse + slack,
            trial, near,
            lambda: f"eta {format_number(eta)}, "
            f"fine gap {format_number(report.gap_fine)}",
        )


def _draw_orders(rng, trial):
    space = random_skill_space(rng)
    hi, lo = random_lr_pair(rng, space)
    pair = Population(hi, lo, random_signal_structure(rng, space))
    same = hi.int_form == lo.int_form  # lowest terms: equal forms, equal probs
    return pair, random_mlr_structure(rng, space), same


def _judge_orders(inst, trial, slack, tol, book: _Book) -> None:
    pair, mlr_sig, same = inst
    hi, lo, sig = pair.p, pair.q, pair.sig
    book.check(
        "lr-implies-fosd", fosd_geq(hi, lo, tol=tol), trial, None,
        lambda: f"hi {' '.join(format_number(v) for v in hi.probs)}, "
        f"lo {' '.join(format_number(v) for v in lo.probs)}",
    )

    posterior_ok = all(
        lr_geq(posterior(hi, sig, s), posterior(lo, sig, s), tol=tol)
        for s in sig.signals
    )
    book.check("posterior-preserves-lr", posterior_ok, trial, pair)

    book.check("mlr-construction-valid", is_mlr(mlr_sig, tol=tol), trial, None)

    cls = perception_class(hi, lo, tol=tol)
    mirror = perception_class(lo, hi, tol=tol)
    expected = (PerceptionClass.ACCURATE,) * 2 if same else (
        PerceptionClass.UNDER_PERCEIVED, PerceptionClass.OVER_PERCEIVED
    )
    book.check(
        "perception-class-consistent", (cls, mirror) == expected, trial, None,
        lambda: f"got {cls.value} / {mirror.value}",
    )


def _draw_garbling(rng, trial):
    space = random_skill_space(rng, max_types=4)
    sig = random_signal_structure(rng, space, max_signals=4)
    flat = uninformative_structure(space)
    full = fully_informative_structure(space)
    fine, coarse, _ = random_garbling_pair(rng, space, max_fine=4, max_coarse=3)
    inner = random_kernel(rng, fine.signals, 3)
    outer = random_kernel(rng, inner.coarse_signals, 2)
    return sig, flat, full, fine, coarse, inner, outer


def _judge_garbling(inst, trial, slack, tol, book: _Book) -> None:
    sig, flat, full, fine, coarse, inner, outer = inst
    for claim, source, target in (
        ("identity-target-feasible", sig, sig),
        ("uninformative-target-feasible", sig, flat),
        ("full-information-source-feasible", full, sig),
        ("derived-garbling-recovered", fine, coarse),
    ):
        found = find_garbling(source, target, tol=tol)
        ok = found is not None and kernel_reproduces(found, source, target, tol=tol)
        book.check(claim, ok, trial, None)

    far = garble(garble(fine, inner), outer)
    ok = kernel_reproduces(compose_kernels(outer, inner), fine, far, tol=tol)
    book.check("composition-reproduces", ok, trial, None)


SUITES = {  # name -> (draw, judge, fixed trial count)
    "theorem1": (_draw_theorem1, _judge_theorem1, None),
    "lemma1": (_draw_lemma1, _judge_lemma1, None),
    "corollary1": (_draw_corollary1, _judge_corollary1, None),
    "corollary2": (_draw_corollary2, _judge_corollary2, None),
    "prop1": (_draw_prop1, _judge_prop1, None),
    "prop2": (_draw_prop2, _judge_prop2, 1),  # fixed counterexamples; trials ignored
    "prop3": (_draw_prop3, _judge_prop3, None),
    "orders": (_draw_orders, _judge_orders, None),
    "garbling": (_draw_garbling, _judge_garbling, None),
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
    check_mode(mode)
    require_count(trials, "trials", 1)
    require_count(seed, "seed", 0)
    draw, judge, fixed = SUITES[name]
    n = fixed if fixed is not None else trials
    return SuiteResult(
        suite=name,
        trials=n,
        seed=seed,
        mode=mode,
        prng=PRNG_ID,
        claims=_run_trials(draw, judge, n, seed, mode, tol),
    )
