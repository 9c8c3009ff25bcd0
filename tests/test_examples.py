"""Named worked instances: closed-form values, overrides, validation."""

import hashlib
import inspect
import math
from fractions import Fraction

import pytest

from infopay import discrimination, examples
from infopay.errors import InputError
from infopay.examples import EXAMPLE_NAMES, run_example


def by_name(report):
    return {c.name: c for c in report.checks}


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
@pytest.mark.parametrize("mode", ["rational", "float"])
def test_example_passes(name, mode):
    report = run_example(name, mode=mode)
    assert report.ok, report.render()
    assert report.mode == mode


# the parameter overrides the tests below use, on top of every default
OVERRIDES = [
    ("ex1-reversal", {"p1": Fraction(1, 4), "q1": Fraction(1, 8)}),
    ("ex3-mlr-fail", {"delta": Fraction(-1, 50)}),
    ("ex1-disc", {"qj1": Fraction(1, 4)}),
    ("blackwell-forward", {"trials": 8, "seed": 11}),
]


def test_renders_are_pinned():
    # one digest over every example's render, with its defaults and with
    # the overrides, in both modes, with and without a tol
    digest = hashlib.sha256()
    for mode in ("rational", "float"):
        as_mode = float if mode == "float" else Fraction
        for tol in (None, 1e-6):
            for name, params in [(name, {}) for name in EXAMPLE_NAMES] + OVERRIDES:
                params = {
                    k: as_mode(v) if isinstance(v, Fraction) else v
                    for k, v in params.items()
                }
                report = run_example(name, mode=mode, tol=tol, **params)
                digest.update(report.render().encode())
    assert digest.hexdigest() == (
        "23f2c172d86894271b3eba5538efc070a1f87d087845070e2d7bd2ef513031e5"
    )


def test_ex1_reversal_defaults():
    report = run_example("ex1-reversal")
    assert report.params == (("p1", "1/2"), ("q1", "3/4"))
    facts = dict(report.facts)
    assert facts["total change"] == "-1/4"
    assert facts["perception-correcting"] == "-1/4"
    assert facts["instrumental"] == "0"
    assert "more-information-lowers-pay" in by_name(report)


def test_ex1_reversal_override_drops_reversal_check():
    report = run_example("ex1-reversal", p1=Fraction(1, 4), q1=Fraction(1, 8))
    assert report.ok
    assert dict(report.facts)["total change"] == "1/8"
    assert "more-information-lowers-pay" not in by_name(report)


@pytest.mark.parametrize(
    "p1,q1",
    [
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 7), Fraction(6, 7)),
        (Fraction(9, 10), Fraction(1, 10)),
        (Fraction(1, 2), Fraction(1, 2)),
    ],
)
def test_ex2_correction_formula(p1, q1):
    report = run_example("ex2-monotone-fail", p1=p1, q1=q1)
    assert report.ok, report.render()
    want = (1 - p1) - (1 - q1)
    got = Fraction(dict(report.facts)["perception-correcting"])
    assert got == want


def test_ex3_negative_delta_flips_sign():
    report = run_example("ex3-mlr-fail", delta=Fraction(-1, 50))
    assert report.ok, report.render()
    facts = dict(report.facts)
    assert facts["perception class"] == "over-perceived"
    assert Fraction(facts["perception-correcting"]) == Fraction(1, 150)


@pytest.mark.parametrize("delta", [Fraction(1, 12), Fraction(-1, 4), Fraction(1)])
def test_ex3_delta_range_enforced(delta):
    with pytest.raises(InputError, match="delta must lie strictly between"):
        run_example("ex3-mlr-fail", delta=delta)


@pytest.mark.parametrize("name", ["ex1-reversal", "ex2-monotone-fail", "ex1-disc"])
@pytest.mark.parametrize("value", [Fraction(0), Fraction(1)])
def test_unit_interval_bounds_are_open(name, value):
    # each bound is refused by the range check itself, before a
    # distribution without full support fails elsewhere
    with pytest.raises(InputError, match="p1 must lie strictly between 0 and 1"):
        run_example(name, p1=value)


def test_parameters_are_checked_before_tol():
    with pytest.raises(InputError, match="p1 must lie strictly"):
        run_example("ex1-reversal", mode="float", tol=math.nan, p1=1.0)
    with pytest.raises(InputError, match="delta must lie strictly"):
        run_example("ex3-mlr-fail", tol=-1.0, delta=Fraction(1, 12))
    with pytest.raises(InputError, match="trials must be an integer"):
        run_example("blackwell-forward", tol=math.inf, trials=0)


def test_ex1_reversal_without_over_perception_has_no_reversal_check():
    report = run_example("ex1-reversal", p1=Fraction(1, 2), q1=Fraction(1, 2))
    assert report.ok, report.render()
    assert dict(report.facts)["total change"] == "0"
    assert "more-information-lowers-pay" not in by_name(report)


@pytest.mark.parametrize("tol", [None, 1e-6])
def test_float_sign_checks_need_a_gap_beyond_the_slack(tol):
    # one ulp of over-perception: the float total can round to 0 and the
    # judge classes the perception as accurate, so no sign is claimed
    p1 = 0.7230713612861879
    q1 = math.nextafter(p1, 1)
    for name, params in [
        ("ex1-reversal", {"p1": p1, "q1": q1}),
        ("ex1-disc", {"p1": p1, "qi1": 0.9, "qj1": q1}),
    ]:
        report = run_example(name, mode="float", tol=tol, **params)
        assert report.ok, report.render()
        assert not {
            "more-information-lowers-pay", "better-informed-population-paid-less"
        } & set(by_name(report))
    report = run_example("ex1-disc", mode="float", tol=tol, p1=p1, qj1=p1 + 2e-6)
    assert "better-informed-population-paid-less" in by_name(report)
    assert report.ok, report.render()


SIGN_RULE = ("sign-rule-fails-without-mlr", "sign-rule-fails-without-monotonicity")


@pytest.mark.parametrize(
    "name,params",
    [
        ("ex3-mlr-fail", {"delta": 1e-10}),
        ("ex3-mlr-fail", {"delta": -1e-10}),
        ("ex2-monotone-fail", {"p1": 0.5, "q1": 0.5000000001}),
        ("ex2-monotone-fail", {"p1": 0.5000000001, "q1": 0.5}),
    ],
)
def test_float_sign_rule_checks_need_a_correction_beyond_the_slack(name, params):
    # a misperception of 1e-10 is classed as one, but its correction is
    # inside the sign slack, where either sign holds the rule: no failure
    # of the rule is claimed, up to a slack of exactly the correction's size
    report = run_example(name, mode="float", **params)
    correction = abs(float(dict(report.facts)["perception-correcting"]))
    for tol in (None, correction):
        report = run_example(name, mode="float", tol=tol, **params)
        assert dict(report.facts)["perception class"] != "accurate"
        assert report.ok, report.render()
        assert not set(SIGN_RULE) & set(by_name(report))
    # below the correction's size the rule is checked, and fails as it should
    report = run_example(name, mode="float", tol=correction / 2, **params)
    assert report.ok, report.render()
    assert len(set(SIGN_RULE) & set(by_name(report))) == 1


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_sign_rule_checks_stay_for_an_accurate_perception(mode):
    for name, params in [
        ("ex3-mlr-fail", {"delta": 0}),
        ("ex2-monotone-fail", {"p1": Fraction(1, 3), "q1": Fraction(1, 3)}),
    ]:
        if mode == "float":
            params = {k: float(v) for k, v in params.items()}
        report = run_example(name, mode=mode, **params)
        assert dict(report.facts)["perception class"] == "accurate"
        assert report.ok, report.render()
        assert len(set(SIGN_RULE) & set(by_name(report))) == 1


def test_ex1_disc_at_equal_perceptions():
    # qi1 = qj1 = p1: the favored population is (weakly) more favorably
    # perceived, and the other one is not over-perceived
    half = Fraction(1, 2)
    report = run_example("ex1-disc", p1=half, qi1=half, qj1=half)
    assert report.ok, report.render()
    assert by_name(report)["favored-population-more-favorably-perceived"].ok
    assert "better-informed-population-paid-less" not in by_name(report)
    assert "ranking-hypotheses-fail-as-expected" not in by_name(report)


def test_ex1_disc_within_hypotheses_override():
    report = run_example(
        "ex1-disc", p1=Fraction(1, 2), qi1=Fraction(3, 4), qj1=Fraction(1, 4)
    )
    assert report.ok, report.render()
    assert dict(report.facts)["gap"] == "1/4"
    assert "better-informed-population-paid-less" not in by_name(report)


def test_blackwell_forward_deterministic():
    a = run_example("blackwell-forward", trials=8, seed=11)
    b = run_example("blackwell-forward", trials=8, seed=11)
    assert a.render() == b.render()
    assert "prng: numpy:PCG64" in a.render().splitlines()


def test_bad_inputs_rejected():
    with pytest.raises(InputError):
        run_example("no-such-example")
    with pytest.raises(InputError):
        run_example("ex1-reversal", mode="decimal")
    with pytest.raises(InputError):
        run_example("ex1-reversal", p1=Fraction(1))
    with pytest.raises(InputError):
        run_example("ex1-reversal", nonsense=Fraction(1, 2))
    with pytest.raises(InputError):
        run_example("blackwell-forward", trials=0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
@pytest.mark.parametrize("name", ["ex1-reversal", "blackwell-forward"])
def test_bad_tol_raises_input_error(name, tol):
    # refused before the example judges anything
    with pytest.raises(InputError, match="tolerance must be a finite nonnegative"):
        run_example(name, mode="float", tol=tol)


@pytest.mark.parametrize(
    "name, params",
    [
        ("ex2-monotone-fail", {"p1": 0.5, "q1": 0.50000001}),
        ("ex3-mlr-fail", {"delta": 1e-9}),
    ],
)
def test_perception_class_judged_at_tol(name, params):
    # a perception 1e-8 off the truth is accurate within tol = 1e-6
    report = run_example(name, mode="float", tol=1e-6, **params)
    assert dict(report.facts)["perception class"] == "accurate"


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
@pytest.mark.parametrize("mode", ["rational", "float"])
def test_tol_reaches_every_decomposition(monkeypatch, name, mode):
    # record the tol each decomposition the example runs is given, including
    # the one check_gap_ranking runs for ex1-disc
    seen = []

    def recording(real):
        signature = inspect.signature(real)

        def wrapper(*args, **kwargs):
            seen.append(signature.bind(*args, **kwargs).arguments.get("tol"))
            return real(*args, **kwargs)
        return wrapper

    for module in (examples, discrimination):
        for fn in ("decompose", "check_signs"):
            real = getattr(module, fn, None)
            if real is not None:
                monkeypatch.setattr(module, fn, recording(real))
    extra = {"trials": 3} if name == "blackwell-forward" else {}
    assert run_example(name, mode=mode, tol=1e-7, **extra).ok
    assert seen and set(seen) == {1e-7}
