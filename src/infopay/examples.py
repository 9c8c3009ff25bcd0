"""Named worked instances with closed-form answers.

Every example builds a small exact instance, runs the decomposition or
the pay-gap machinery, and confirms the known closed-form value of each
quantity.  The first four are parameterized; the free numbers default to
the values used in the worked write-ups and can be overridden.  An
example returns only its facts and checks; ``run_example`` builds the
report around them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .decomposition import SignReport, check_signs, decompose
from .discrimination import check_gap_ranking, pay_gap
from .errors import InputError
from .generators import (
    PRNG_ID,
    random_dist,
    random_firm,
    random_garbling_pair,
    random_skill_space,
)
from .model import (
    Dist,
    Firm,
    SignalStructure,
    SkillSpace,
    Task,
    fully_informative_structure,
    uninformative_structure,
)
from .numeric import check_mode, claim_slacks, format_number, require_count
from .orders import lr_geq
from .suites import _run_trials

__all__ = ["ExampleCheck", "ExampleReport", "EXAMPLE_NAMES", "run_example"]


class ExampleCheck(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class ExampleReport(NamedTuple):
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


def _unit_interval(**params) -> None:
    for name, value in params.items():
        if not 0 < value < 1:
            raise InputError(f"{name} must lie strictly between 0 and 1")


def _delta_range(delta) -> None:
    if not Fraction(-1, 4) < delta < Fraction(1, 12):
        raise InputError("delta must lie strictly between -1/4 and 1/12")


def _binary(space: SkillSpace, hi) -> Dist:
    return Dist(space, (1 - hi, hi))


def _matches(name: str, got, want, eq, formula: str = "") -> ExampleCheck:
    """``got`` equals its closed form ``want`` within ``eq``; both show."""
    return ExampleCheck(
        name, abs(got - want) <= eq,
        f"{format_number(got)} vs {formula}{format_number(want)}",
    )


def _equals(name: str, got, want, eq) -> ExampleCheck:
    """``got`` equals ``want`` within ``eq``; the value alone shows."""
    return ExampleCheck(name, abs(got - want) <= eq, format_number(got))


def _parts(res) -> tuple:
    return (
        ("total change", res.total),
        ("perception-correcting", res.perception_correcting),
        ("instrumental", res.instrumental),
    )


def _sign_flip(name: str, report: SignReport, eq) -> tuple[ExampleCheck, ...]:
    """The check that the correction breaks the sign rule its perception
    class implies; an accurate one has no sign, so it must vanish.  A
    misperception is checked only when the correction exceeds ``eq`` in
    size: within the slack, a correction of either sign holds the rule."""
    c = report.result.perception_correcting
    rule, holds = report.correction_sign_rule, report.correction_sign_holds
    if rule not in ("nonneg", "nonpos"):
        return (ExampleCheck(name, holds is True, "no misperception, no sign to flip"),)
    if abs(c) <= eq:
        return ()
    side, sign = ("under", "<") if rule == "nonneg" else ("over", ">")
    note = f"{side}-perceived yet correction {format_number(c)} {sign} 0"
    return (ExampleCheck(name, holds is False, note),)


# -- single-population reversals and sign failures -------------------------------


def _ex1_reversal(mode, tol, eq, p1, q1):
    """One increasing task, uninformative to fully informative: the pay
    change is p1 - q1, all of it perception-correcting."""
    space = SkillSpace((0, 1))
    res = decompose(
        Firm((Task((0, 1)),)), _binary(space, p1), _binary(space, q1),
        uninformative_structure(space), fully_informative_structure(space), tol=tol,
    )
    expected = p1 - q1
    checks = [
        _matches("total-matches-p1-minus-q1", res.total, expected, eq),
        _equals("instrumental-zero", res.instrumental, 0, eq),
        _equals(
            "correction-carries-whole-change", res.perception_correcting, expected, eq
        ),
    ]
    if q1 > p1 + eq:  # beyond the slack: a float total cannot round to 0
        checks.append(
            ExampleCheck(
                "more-information-lowers-pay", res.total < 0,
                f"over-perceived, total {format_number(res.total)}",
            )
        )
    return _parts(res), checks


def _ex2_monotone_fail(mode, tol, eq, p1, q1):
    """Same move with the one task decreasing: the correction becomes
    p(0) - q(0), whose sign contradicts the monotone-firm sign rule."""
    space = SkillSpace((0, 1))
    report = check_signs(
        Firm((Task((1, 0)),)), _binary(space, p1), _binary(space, q1),
        uninformative_structure(space), fully_informative_structure(space), tol=tol,
    )
    res = report.result
    checks = (
        ExampleCheck(
            "firm-not-monotone", not report.monotone, "task surplus decreasing"
        ),
        _matches(
            "correction-matches-p0-minus-q0", res.perception_correcting,
            (1 - p1) - (1 - q1), eq,
        ),
        _equals("instrumental-zero", res.instrumental, 0, eq),
        *_sign_flip("sign-rule-fails-without-monotonicity", report, eq),
    )
    return (("perception class", report.perception.value), *_parts(res)), checks


def _ex3_mlr_fail(mode, tol, eq, delta):
    """Ternary types; the finer structure pools the extreme types, so it
    is not MLR, and the correction is (1/4 - p(1))/3 = -delta/3, whose
    sign contradicts the MLR sign rule."""
    one = 1.0 if mode == "float" else Fraction(1)
    space = SkillSpace((0, 1, 2))
    q = Dist(space, (one / 4, one / 4, one / 2))
    p = Dist(space, (one / 4 - 3 * delta, one / 4 + delta, one / 2 + 2 * delta))
    # reveals whether the middle type holds, pooling the extremes
    fine = SignalStructure(
        space, ("pool", "mid"), ((one, 0), (0, one), (one, 0)), values=(0, 1)
    )
    report = check_signs(
        Firm((Task((0, 1, 2)),)), p, q, uninformative_structure(space), fine, tol=tol
    )
    res = report.result
    checks = (
        ExampleCheck("fine-structure-not-mlr", not report.fine_mlr),
        _matches(
            "correction-matches-formula", res.perception_correcting,
            (one / 4 - p.probs[1]) / 3, eq, "(1/4 - p1)/3 = ",
        ),
        _equals("instrumental-zero", res.instrumental, 0, eq),
        *_sign_flip("sign-rule-fails-without-mlr", report, eq),
    )
    facts = (
        ("p", " ".join(format_number(v) for v in p.probs)),
        ("perception class", report.perception.value),
        *_parts(res),
    )
    return facts, checks


# -- two-population gap ----------------------------------------------------------


def _ex1_disc(mode, tol, eq, p1, qi1, qj1):
    """Fully informed, favorably perceived population against an
    uninformative, over-perceived one: the gap is p1 - qj1, so the
    better-placed population earns strictly less when qj1 > p1."""
    space = SkillSpace((0, 1))
    firm = Firm((Task((0, 1)),))
    p, q_i, q_j = _binary(space, p1), _binary(space, qi1), _binary(space, qj1)
    fine = fully_informative_structure(space)
    coarse = uninformative_structure(space)
    gap_at_fine = pay_gap(firm, p, q_i, q_j, fine)
    report = check_gap_ranking(firm, p, q_i, q_j, sig_i=fine, sig_j=coarse, tol=tol)
    total_gap = report.w_i - report.w_j
    expected = p1 - qj1
    checks = [
        _matches("gap-matches-p1-minus-qj1", total_gap, expected, eq),
        _equals("favorableness-term-zero", report.favorableness, 0, eq),
        _matches(
            "favorableness-matches-direct-gap", report.favorableness, gap_at_fine, eq
        ),
        _equals("correction-carries-whole-gap", report.correction, expected, eq),
        _equals("instrumental-zero", report.instrumental, 0, eq),
    ]
    if qi1 >= qj1:
        checks.append(
            ExampleCheck(
                "favored-population-more-favorably-perceived",
                lr_geq(q_i, q_j, tol), "qi1 >= qj1",
            )
        )
    if qj1 > p1 + eq:
        checks += (
            ExampleCheck(
                "better-informed-population-paid-less", total_gap < 0,
                f"qj1 > p1 and gap {format_number(total_gap)}",
            ),
            ExampleCheck(
                "ranking-hypotheses-fail-as-expected",
                not report.hypotheses["other_under_perceived"]
                and not report.violation,
                "the disfavored population is over-perceived",
            ),
        )
    facts = (
        ("pay population I", report.w_i),
        ("pay population J", report.w_j),
        ("gap", total_gap),
        ("favorableness", report.favorableness),
        ("perception-correcting", report.correction),
        ("instrumental", report.instrumental),
        ("gap at shared fine structure", gap_at_fine),
    )
    return facts, checks


# -- accurate perceptions: information is worth a nonnegative amount -------------


def _draw_forward(rng, trial):
    space = random_skill_space(rng)
    firm = random_firm(rng, space.size)
    p = random_dist(rng, space)
    fine, coarse, kernel = random_garbling_pair(rng, space)
    return firm, p, fine, coarse, kernel


def _judge_forward(inst, trial, slack, tol, book) -> None:
    firm, p, fine, coarse, kernel = inst
    report = check_signs(firm, p, p, coarse, fine, kernel, tol=tol)
    res = report.result
    book.check("more-information-never-hurts", res.total >= -slack, trial)
    book.check(
        "correction-zero-when-perception-accurate", report.correction_sign_holds, trial
    )
    book.check(
        "gain-entirely-instrumental", abs(res.total - res.instrumental) <= slack, trial
    )


def _blackwell_forward(mode, tol, eq, trials, seed):
    """Random garbling-ordered pairs with accurate perceptions: the
    correction vanishes and the whole nonnegative gain is instrumental."""
    checks = tuple(
        ExampleCheck(c.name, True, f"{trials}/{trials} trials") if c.failures == 0
        else ExampleCheck(c.name, False, f"first failure at {c.first_failure}")
        for c in _run_trials(_draw_forward, _judge_forward, trials, seed, mode, tol)
    )
    return (), checks


def _trial_count(trials, seed) -> None:
    require_count(trials, "trials", 1)  # the trial loop checks the seed


# name -> (example, parameter check, default parameters in report order)
_EXAMPLES = {
    "ex1-reversal": (
        _ex1_reversal, _unit_interval, {"p1": Fraction(1, 2), "q1": Fraction(3, 4)}
    ),
    "ex2-monotone-fail": (
        _ex2_monotone_fail, _unit_interval,
        {"p1": Fraction(1, 2), "q1": Fraction(3, 4)},
    ),
    "ex3-mlr-fail": (_ex3_mlr_fail, _delta_range, {"delta": Fraction(1, 25)}),
    "ex1-disc": (
        _ex1_disc, _unit_interval,
        {"p1": Fraction(1, 2), "qi1": Fraction(5, 6), "qj1": Fraction(3, 4)},
    ),
    "blackwell-forward": (_blackwell_forward, _trial_count, {"trials": 25, "seed": 0}),
}

EXAMPLE_NAMES = tuple(_EXAMPLES)


def run_example(
    name: str, mode: str = "rational", tol: float | None = None, **overrides
) -> ExampleReport:
    """Build and check one named example; numeric parameters may be
    overridden by keyword.

    The parameters are checked before ``tol``.  Each example returns its
    facts (numbers or text) and its checks; the report names the
    example, its mode and its parameters in registry order, and the PRNG
    of the seeded one.
    """
    if name not in _EXAMPLES:
        raise InputError(
            f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}"
        )
    check_mode(mode)
    fn, check, defaults = _EXAMPLES[name]
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
    check(**params)
    slack, _ = claim_slacks(mode == "rational", tol)
    facts, checks = fn(mode, tol, slack, **params)
    return ExampleReport(
        example=name,
        mode=mode,
        params=tuple((k, format_number(v)) for k, v in params.items()),
        facts=tuple(
            (k, v if isinstance(v, str) else format_number(v)) for k, v in facts
        ),
        checks=tuple(checks),
        prng=PRNG_ID if "seed" in params else None,
    )
