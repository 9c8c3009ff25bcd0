"""Runner behavior and a pass over every suite in both modes."""

import hashlib
from fractions import Fraction

import pytest

from infopay.errors import InputError
from infopay.model import Dist, Population, SkillSpace, uninformative_structure
from infopay.suites import SUITE_NAMES, ClaimStats, SuiteResult, run_suite
from infopay.suites import _Book


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes_rational(name):
    res = run_suite(name, trials=25, seed=0, mode="rational")
    assert res.ok, res.render()


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes_float(name):
    res = run_suite(name, trials=25, seed=0, mode="float")
    assert res.ok, res.render()


def test_renders_are_pinned():
    # one digest over every suite's render in both modes: any change to a
    # claim name, a count or a first counterexample shows here
    digest = hashlib.sha256()
    for mode in ("rational", "float"):
        for name in SUITE_NAMES:
            digest.update(run_suite(name, trials=30, seed=7, mode=mode).render().encode())
    assert digest.hexdigest() == (
        "9994bd0f57221ad934d21374e073af42a71e26ccdedd0536f5c8ade8c7bcab3e"
    )


def test_deterministic_given_seed():
    a = run_suite("theorem1", trials=15, seed=7)
    b = run_suite("theorem1", trials=15, seed=7)
    assert a.render() == b.render()


@pytest.mark.parametrize(
    "kwargs, what",
    [
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"trials": "3"}, "trials"),
        ({"trials": 2.0}, "trials"),
        ({"trials": 0}, "trials"),
    ],
)
def test_bad_seed_or_trials_raise_input_error(kwargs, what):
    for name in ("prop1", "prop2"):  # prop2 ignores trials but checks them
        with pytest.raises(InputError, match=f"{what} must be an integer"):
            run_suite(name, **{"trials": 3, "seed": 0, **kwargs})


def test_render_format():
    res = run_suite("orders", trials=5, seed=3)
    text = res.render()
    lines = text.splitlines()
    assert lines[0] == "suite: orders"
    assert lines[1] == "prng: numpy:PCG64"
    assert lines[2] == "seed: 3"
    assert lines[3] == "mode: rational"
    assert lines[4] == "trials: 5"
    assert "claim lr-implies-fosd: 5/5 pass" in lines
    assert lines[-1] == "result: PASS"


def test_unknown_suite_rejected():
    with pytest.raises(InputError):
        run_suite("nope")
    with pytest.raises(InputError):
        run_suite("orders", mode="symbolic")
    with pytest.raises(InputError):
        run_suite("orders", trials=0)


def test_prop2_ignores_trial_count():
    res = run_suite("prop2", trials=50, seed=0)
    assert res.trials == 1
    assert res.ok


def test_failure_bookkeeping_and_render():
    space = SkillSpace((0, 1))
    pop = Population(
        Dist(space, (Fraction(1, 2), Fraction(1, 2))),
        Dist(space, (Fraction(1, 4), Fraction(3, 4))),
        uninformative_structure(space),
    )
    book = _Book()
    book.check("always-on", True, 0)
    book.check("always-on", True, 1)
    book.check("sometimes-off", True, 0)
    book.check("sometimes-off", False, 1, carrier=pop, detail="went negative")
    book.check("sometimes-off", False, 2, carrier=pop, detail="later failure")
    res = SuiteResult(
        suite="demo", trials=3, seed=0, mode="rational", prng="numpy:PCG64",
        claims=tuple(book.claims.values()),
    )
    assert not res.ok
    text = res.render()
    assert "claim always-on: 2/2 pass" in text
    assert "claim sometimes-off: 1/3 pass, 2 FAIL" in text
    # only the first failing trial is kept, with its instance attached
    assert "trial 1; went negative" in text
    assert "later failure" not in text
    assert "[population]" in text
    assert text.splitlines()[-1] == "result: FAIL"


def test_claim_stats_attempts():
    c = ClaimStats("x", passes=3, failures=2)
    assert c.attempts == 5
