"""Runner behavior and a pass over every suite in both modes."""

import hashlib
import math
from fractions import Fraction

import pytest

from infopay import examples, model, suites
from infopay.errors import InputError
from infopay.generators import trial_rng
from infopay.discrimination import GapScenario
from infopay.garbling import GarblingKernel
from infopay.model import (
    Dist,
    Firm,
    Population,
    SkillSpace,
    Task,
    binary_symmetric_structure,
    uninformative_structure,
)
from infopay.numeric import claim_slacks
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
        "22e10715b425e809e50b94b87fcbeb51f7a4c243fc454d6d9267012e725ff6be"
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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("name", ["orders", "theorem1"])
def test_bad_tol_raises_input_error(name, mode, tol):
    # a tol that is not a finite number >= 0 makes float verdicts
    # meaningless, so it is refused before any judge runs, in either mode
    with pytest.raises(InputError, match="tolerance must be a finite nonnegative"):
        run_suite(name, trials=3, seed=0, mode=mode, tol=tol)


def test_zero_tol_is_accepted():
    assert run_suite("orders", trials=3, seed=0, mode="float", tol=0).trials == 3


class _Verdicts(list):
    """A book that keeps each (claim, verdict) in order."""

    def check(self, name, ok, trial, carrier=None, detail=""):
        self.append((name, bool(ok)))


DRAW_JUDGE = {
    **{name: suites.SUITES[name][:2] for name in SUITE_NAMES},
    "blackwell-forward": (examples._draw_forward, examples._judge_forward),
}


@pytest.mark.parametrize("name", DRAW_JUDGE)
def test_float_twin_gets_the_exact_instance_verdicts(name):
    # each trial's instance is drawn once and judged exactly and as its
    # float twin: the claims booked and their verdicts must agree
    draw, judge = DRAW_JUDGE[name]
    exact, floats = claim_slacks(True)[0], claim_slacks(False)[0]
    for seed in (1, 5):
        for trial in range(30):
            inst = draw(trial_rng(seed, trial), trial)
            want, got = _Verdicts(), _Verdicts()
            judge(inst, trial, exact, None, want)
            judge(model.twin(inst), trial, floats, None, got)
            assert got == want, (seed, trial)


@pytest.mark.parametrize("exact", [True, False])
def test_conditional_fosd_fails_when_the_truth_is_lr_below(exact):
    # p = (1/2, 1/2) is LR-below q = (1/4, 3/4): behind the one coarse
    # signal the true fine law puts 1/2 on the low signal, the perceived
    # one 3/8, so the p-CDF lies above the q-CDF; swapped, the claim holds
    space = SkillSpace((0, 1))
    low = Dist(space, (Fraction(1, 2), Fraction(1, 2)))
    high = Dist(space, (Fraction(1, 4), Fraction(3, 4)))
    firm = Firm([Task((0, 1))])
    fine = binary_symmetric_structure(space, Fraction(3, 4))
    coarse = uninformative_structure(space)
    kernel = GarblingKernel(coarse.signals, fine.signals, ((1, 1),))
    slack = claim_slacks(exact)[0]
    for p, q, holds in ((low, high, False), (high, low, True)):
        inst = (GapScenario(firm, p, q, q, coarse, fine), kernel)
        s, g = inst if exact else model.twin(inst)
        assert suites._conditional_fosd(s, g, slack) is holds


def test_draws_are_pinned():
    # renders show an instance only when a claim fails, so one digest over
    # every drawn instance pins what the suites judge
    digest = hashlib.sha256()
    for draw, _ in DRAW_JUDGE.values():
        for trial in range(30):
            digest.update(repr(draw(trial_rng(7, trial), trial)).encode())
    assert digest.hexdigest() == (
        "34a426f1ecd3b14ad8df192c78d0a411741d989f2e60b87c127ee02fbd15da06"
    )


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


def test_detail_text_is_built_only_for_a_first_failure():
    built = []

    def detail():
        built.append(1)
        return "built late"

    book = _Book()
    book.check("c", True, 0, detail=detail)
    book.check("c", False, 1, detail=detail)
    book.check("c", False, 2, detail=detail)
    assert built == [1]
    assert book.claims["c"].first_failure == "trial 1; built late"


def test_claim_stats_attempts():
    c = ClaimStats("x", passes=3, failures=2)
    assert c.attempts == 5


def test_book_builds_one_claim_stats_per_claim(monkeypatch):
    # a claim's stats are built on its first booking only, not once per check
    built = []

    class Counting(ClaimStats):
        def __init__(self, name):
            built.append(name)
            super().__init__(name)

    monkeypatch.setattr(suites, "ClaimStats", Counting)
    res = run_suite("theorem1", trials=10, seed=5)
    assert sum(c.attempts for c in res.claims) > len(res.claims)
    assert built == [c.name for c in res.claims]
