"""Named worked instances: closed-form values, overrides, validation."""

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
    with pytest.raises(InputError):
        run_example("ex3-mlr-fail", delta=delta)


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
