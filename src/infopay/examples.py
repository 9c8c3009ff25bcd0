"""Named worked instances with closed-form answers.

Every example builds a small exact instance, runs the decomposition or
the pay-gap machinery, and confirms the known closed-form value of each
quantity.  The first four are parameterized; the free numbers default to
the values used in the worked write-ups and can be overridden.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomposition import decompose
from .discrimination import check_gap_ranking, pay_gap
from .errors import InputError
from .generators import (
    PRNG_ID,
    random_dist,
    random_firm,
    random_garbling_pair,
    random_skill_space,
    trial_rng,
)
from .model import (
    Dist,
    Firm,
    Population,
    SignalStructure,
    SkillSpace,
    Task,
    average_pay,
    fully_informative_structure,
    uninformative_structure,
)
from .numeric import claim_slacks, format_number, require_count
from .orders import PerceptionClass, is_mlr, lr_geq, perception_class

__all__ = ["ExampleCheck", "ExampleReport", "EXAMPLE_NAMES", "run_example"]


@dataclass(frozen=True)
class ExampleCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ExampleReport:
    example: str
    mode: str
    params: tuple[tuple[str, str], ...]
    facts: tuple[tuple[str, str], ...]
    checks: tuple[ExampleCheck, ...]
    prng: str | None = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        lines = [f"example: {self.example}", f"mode: {self.mode}"]
        if self.prng is not None:
            lines.append(f"prng: {self.prng}")
        lines.extend(f"param {k}: {v}" for k, v in self.params)
        lines.extend(f"{k}: {v}" for k, v in self.facts)
        for c in self.checks:
            line = f"check {c.name}: {'PASS' if c.ok else 'FAIL'}"
            if c.detail:
                line += f" ({c.detail})"
            lines.append(line)
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _as_mode(value, mode: str):
    return float(value) if mode == "float" else Fraction(value)


def _unit_interval(name: str, value) -> None:
    if not 0 < value < 1:
        raise InputError(f"{name} must lie strictly between 0 and 1")


def _binary(space: SkillSpace, hi) -> Dist:
    return Dist(space, (1 - hi, hi))


def _fmt(value) -> str:
    return format_number(value)


# -- single-population reversals and sign failures -------------------------------


def _ex1_reversal(mode, tol, p1, q1) -> ExampleReport:
    """One increasing task, uninformative to fully informative: the pay
    change is p1 - q1, all of it perception-correcting."""
    _unit_interval("p1", p1)
    _unit_interval("q1", q1)
    eq, _, _ = claim_slacks(mode == "rational", tol)
    space = SkillSpace((0, 1))
    firm = Firm((Task((0, 1)),))
    p, q = _binary(space, p1), _binary(space, q1)
    coarse = uninformative_structure(space)
    fine = fully_informative_structure(space)
    res = decompose(firm, p, q, coarse, fine)
    expected = p1 - q1
    checks = [
        ExampleCheck(
            "total-matches-p1-minus-q1", abs(res.total - expected) <= eq,
            f"{_fmt(res.total)} vs {_fmt(expected)}",
        ),
        ExampleCheck(
            "instrumental-zero", abs(res.instrumental) <= eq,
            _fmt(res.instrumental),
        ),
        ExampleCheck(
            "correction-carries-whole-change",
            abs(res.perception_correcting - expected) <= eq,
            _fmt(res.perception_correcting),
        ),
    ]
    if q1 > p1:
        checks.append(
            ExampleCheck(
                "more-information-lowers-pay", res.total < 0,
                f"over-perceived, total {_fmt(res.total)}",
            )
        )
    return ExampleReport(
        example="ex1-reversal",
        mode=mode,
        params=(("p1", _fmt(p1)), ("q1", _fmt(q1))),
        facts=(
            ("total change", _fmt(res.total)),
            ("perception-correcting", _fmt(res.perception_correcting)),
            ("instrumental", _fmt(res.instrumental)),
        ),
        checks=tuple(checks),
    )


def _ex2_monotone_fail(mode, tol, p1, q1) -> ExampleReport:
    """Same move with the one task decreasing: the correction becomes
    p(0) - q(0), whose sign contradicts the monotone-firm sign rule."""
    _unit_interval("p1", p1)
    _unit_interval("q1", q1)
    eq, _, _ = claim_slacks(mode == "rational", tol)
    space = SkillSpace((0, 1))
    firm = Firm((Task((1, 0)),))
    p, q = _binary(space, p1), _binary(space, q1)
    res = decompose(
        firm, p, q,
        uninformative_structure(space), fully_informative_structure(space),
    )
    expected = (1 - p1) - (1 - q1)
    cls = perception_class(p, q, tol)
    c = res.perception_correcting
    if cls is PerceptionClass.OVER_PERCEIVED:
        flip = c > eq  # monotone rule would force <= 0
        note = f"over-perceived yet correction {_fmt(c)} > 0"
    elif cls is PerceptionClass.UNDER_PERCEIVED:
        flip = c < -eq  # monotone rule would force >= 0
        note = f"under-perceived yet correction {_fmt(c)} < 0"
    else:
        flip = abs(c) <= eq
        note = "no misperception, no sign to flip"
    checks = (
        ExampleCheck(
            "firm-not-monotone", not firm.is_monotone, "task surplus decreasing"
        ),
        ExampleCheck(
            "correction-matches-p0-minus-q0", abs(c - expected) <= eq,
            f"{_fmt(c)} vs {_fmt(expected)}",
        ),
        ExampleCheck(
            "instrumental-zero", abs(res.instrumental) <= eq,
            _fmt(res.instrumental),
        ),
        ExampleCheck("sign-rule-fails-without-monotonicity", flip, note),
    )
    return ExampleReport(
        example="ex2-monotone-fail",
        mode=mode,
        params=(("p1", _fmt(p1)), ("q1", _fmt(q1))),
        facts=(
            ("perception class", cls.value),
            ("total change", _fmt(res.total)),
            ("perception-correcting", _fmt(c)),
            ("instrumental", _fmt(res.instrumental)),
        ),
        checks=checks,
    )


def _ex3_mlr_fail(mode, tol, delta) -> ExampleReport:
    """Ternary types; the finer structure pools the extreme types, so it
    is not MLR, and the correction is (1/4 - p(1))/3 = -delta/3, whose
    sign contradicts the MLR sign rule."""
    lo, hi = Fraction(-1, 4), Fraction(1, 12)
    if not lo < delta < hi:
        raise InputError("delta must lie strictly between -1/4 and 1/12")
    eq, _, _ = claim_slacks(mode == "rational", tol)
    one = 1.0 if mode == "float" else Fraction(1)
    space = SkillSpace((0, 1, 2))
    firm = Firm((Task((0, 1, 2)),))
    q = Dist(space, (one / 4, one / 4, one / 2))
    p = Dist(space, (one / 4 - 3 * delta, one / 4 + delta, one / 2 + 2 * delta))
    coarse = uninformative_structure(space)
    # reveals whether the middle type holds, pooling the extremes
    fine = SignalStructure(
        space, ("pool", "mid"),
        ((one, 0), (0, one), (one, 0)),
        values=(0, 1),
    )
    res = decompose(firm, p, q, coarse, fine)
    expected = (one / 4 - p.probs[1]) / 3
    cls = perception_class(p, q, tol)
    c = res.perception_correcting
    if delta > 0:
        flip = cls is PerceptionClass.UNDER_PERCEIVED and c < -eq
        note = f"under-perceived yet correction {_fmt(c)} < 0"
    elif delta < 0:
        flip = cls is PerceptionClass.OVER_PERCEIVED and c > eq
        note = f"over-perceived yet correction {_fmt(c)} > 0"
    else:
        flip = cls is PerceptionClass.ACCURATE and abs(c) <= eq
        note = "no misperception, no sign to flip"
    checks = (
        ExampleCheck("fine-structure-not-mlr", not is_mlr(fine, tol)),
        ExampleCheck(
            "correction-matches-formula", abs(c - expected) <= eq,
            f"{_fmt(c)} vs (1/4 - p1)/3 = {_fmt(expected)}",
        ),
        ExampleCheck(
            "instrumental-zero", abs(res.instrumental) <= eq,
            _fmt(res.instrumental),
        ),
        ExampleCheck("sign-rule-fails-without-mlr", flip, note),
    )
    return ExampleReport(
        example="ex3-mlr-fail",
        mode=mode,
        params=(("delta", _fmt(delta)),),
        facts=(
            ("p", " ".join(_fmt(v) for v in p.probs)),
            ("perception class", cls.value),
            ("total change", _fmt(res.total)),
            ("perception-correcting", _fmt(c)),
            ("instrumental", _fmt(res.instrumental)),
        ),
        checks=checks,
    )


# -- two-population gap ----------------------------------------------------------


def _ex1_disc(mode, tol, p1, qi1, qj1) -> ExampleReport:
    """Fully informed, favorably perceived population against an
    uninformative, over-perceived one: the gap is p1 - qj1, so the
    better-placed population earns strictly less when qj1 > p1."""
    for name, v in (("p1", p1), ("qi1", qi1), ("qj1", qj1)):
        _unit_interval(name, v)
    eq, _, _ = claim_slacks(mode == "rational", tol)
    space = SkillSpace((0, 1))
    firm = Firm((Task((0, 1)),))
    p = _binary(space, p1)
    q_i, q_j = _binary(space, qi1), _binary(space, qj1)
    fine = fully_informative_structure(space)
    coarse = uninformative_structure(space)
    gap_at_fine = pay_gap(firm, p, q_i, q_j, fine)
    report = check_gap_ranking(firm, p, q_i, q_j, sig_i=fine, sig_j=coarse)
    total_gap = report.w_i - report.w_j
    expected = p1 - qj1
    checks = [
        ExampleCheck(
            "gap-matches-p1-minus-qj1", abs(total_gap - expected) <= eq,
            f"{_fmt(total_gap)} vs {_fmt(expected)}",
        ),
        ExampleCheck(
            "favorableness-term-zero", abs(report.favorableness) <= eq,
            _fmt(report.favorableness),
        ),
        ExampleCheck(
            "favorableness-matches-direct-gap",
            abs(report.favorableness - gap_at_fine) <= eq,
            f"{_fmt(report.favorableness)} vs {_fmt(gap_at_fine)}",
        ),
        ExampleCheck(
            "correction-carries-whole-gap",
            abs(report.correction - expected) <= eq, _fmt(report.correction),
        ),
        ExampleCheck(
            "instrumental-zero", abs(report.instrumental) <= eq,
            _fmt(report.instrumental),
        ),
    ]
    if qi1 >= qj1:
        checks.append(
            ExampleCheck(
                "favored-population-more-favorably-perceived",
                lr_geq(q_i, q_j, tol), "qi1 >= qj1",
            )
        )
    if qj1 > p1:
        checks.append(
            ExampleCheck(
                "better-informed-population-paid-less", total_gap < 0,
                f"qj1 > p1 and gap {_fmt(total_gap)}",
            )
        )
        checks.append(
            ExampleCheck(
                "ranking-hypotheses-fail-as-expected",
                not report.hypotheses["other_under_perceived"]
                and not report.violation,
                "the disfavored population is over-perceived",
            )
        )
    return ExampleReport(
        example="ex1-disc",
        mode=mode,
        params=(("p1", _fmt(p1)), ("qi1", _fmt(qi1)), ("qj1", _fmt(qj1))),
        facts=(
            ("pay population I", _fmt(report.w_i)),
            ("pay population J", _fmt(report.w_j)),
            ("gap", _fmt(total_gap)),
            ("favorableness", _fmt(report.favorableness)),
            ("perception-correcting", _fmt(report.correction)),
            ("instrumental", _fmt(report.instrumental)),
            ("gap at shared fine structure", _fmt(gap_at_fine)),
        ),
        checks=tuple(checks),
    )


# -- accurate perceptions: information is worth a nonnegative amount -------------


def _blackwell_forward(mode, tol, trials, seed) -> ExampleReport:
    """Random garbling-ordered pairs with accurate perceptions: the
    correction vanishes and the whole nonnegative gain is instrumental."""
    require_count(trials, "trials", 1)
    eq, sign, _ = claim_slacks(mode == "rational", tol)
    gain_fail = corr_fail = inst_fail = None
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        space = random_skill_space(rng)
        firm = random_firm(rng, space.size)
        p = random_dist(rng, space)
        fine, coarse, kernel = random_garbling_pair(rng, space)
        if mode == "float":
            firm, p = firm.to_float(), p.to_float()
            fine, coarse = fine.to_float(), coarse.to_float()
            kernel = kernel.to_float()
        res = decompose(firm, p, p, coarse, fine, kernel)
        direct = average_pay(firm, Population(p, p, fine)) - average_pay(
            firm, Population(p, p, coarse)
        )
        if direct < -sign and gain_fail is None:
            gain_fail = trial
        if abs(res.perception_correcting) > eq and corr_fail is None:
            corr_fail = trial
        if abs(res.total - res.instrumental) > eq and inst_fail is None:
            inst_fail = trial
    def agg(name, first_bad):
        detail = f"{trials}/{trials} trials"
        if first_bad is not None:
            detail = f"first failure at trial {first_bad}"
        return ExampleCheck(name, first_bad is None, detail)
    checks = (
        agg("more-information-never-hurts", gain_fail),
        agg("correction-zero-when-perception-accurate", corr_fail),
        agg("gain-entirely-instrumental", inst_fail),
    )
    return ExampleReport(
        example="blackwell-forward",
        mode=mode,
        params=(("trials", str(trials)), ("seed", str(seed))),
        facts=(),
        checks=checks,
        prng=PRNG_ID,
    )


_EXAMPLES = {
    "ex1-reversal": (
        _ex1_reversal, {"p1": Fraction(1, 2), "q1": Fraction(3, 4)}
    ),
    "ex2-monotone-fail": (
        _ex2_monotone_fail, {"p1": Fraction(1, 2), "q1": Fraction(3, 4)}
    ),
    "ex3-mlr-fail": (_ex3_mlr_fail, {"delta": Fraction(1, 25)}),
    "ex1-disc": (
        _ex1_disc,
        {"p1": Fraction(1, 2), "qi1": Fraction(5, 6), "qj1": Fraction(3, 4)},
    ),
    "blackwell-forward": (_blackwell_forward, {"trials": 25, "seed": 0}),
}

EXAMPLE_NAMES = tuple(_EXAMPLES)


def run_example(
    name: str, mode: str = "rational", tol: float | None = None, **overrides
) -> ExampleReport:
    """Build and check one named example; numeric parameters may be
    overridden by keyword."""
    if name not in _EXAMPLES:
        raise InputError(
            f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}"
        )
    if mode not in ("rational", "float"):
        raise InputError(f"unknown mode {mode!r}")
    fn, defaults = _EXAMPLES[name]
    params = {}
    for key, default in defaults.items():
        if key in overrides:
            value = overrides.pop(key)
        elif isinstance(default, int):  # counts and seeds stay integers
            value = default
        else:
            value = _as_mode(default, mode)
        params[key] = value
    if overrides:
        raise InputError(
            f"example {name!r} does not take parameter(s) "
            + ", ".join(sorted(overrides))
        )
    return fn(mode, tol, **params)
