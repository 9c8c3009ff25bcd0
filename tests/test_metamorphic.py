"""Metamorphic relations: transform a drawn instance and predict how
Theorem 1's decomposition moves.

Each relation rebuilds the firm through the public ``Task`` and ``Firm``
constructors and compares ``check_signs`` on the transformed instance
with its result on the original, exactly (rational mode, no slack).
The instances are both scenarios of every theorem1 draw (the arbitrary
one and the within-hypothesis one), at two seeds, under both tie rules.

* Shift: adding ``c`` to every surplus moves both average pays by ``c``
  (each distribution sums to 1) and leaves the total, both parts and
  the tie-broken assignments unchanged.
* Scale: multiplying every surplus by ``c > 0`` multiplies every value
  by ``c`` and leaves the assignments unchanged.
* Reverse: listing the tasks in reverse order swaps the tie rules: the
  "lowest" decomposition of the reversed firm gives every value of the
  original's "highest" one, with each assigned task ``k`` read as
  ``n_tasks - 1 - k``.
* Dominated task: appending a task strictly below task 0 at every type
  changes nothing, under either tie rule, since no posterior ever
  assigns it.

All four keep a monotone firm monotone (and a non-monotone one not), and
none changes the perception class or any verdict.
"""

from fractions import Fraction as F

import pytest

from infopay.decomposition import check_signs
from infopay.generators import trial_rng
from infopay.model import Firm, Task
from infopay.suites import _draw_theorem1

SEEDS = (1, 5)
TRIALS = 100
VALUES = ("w_fine", "w_coarse", "total", "perception_correcting",
          "instrumental", "instrumental_signalwise")
SHIFTS = (F(-7, 3), 5)
SCALES = (F(2, 7), 3)


def _instances(seed):
    for trial in range(TRIALS):
        free, kernel, within, kernel_w = _draw_theorem1(trial_rng(seed, trial), trial)
        yield free, kernel
        yield within, kernel_w


def _mapped(firm, f):
    return Firm([Task([f(v) for v in t.surplus]) for t in firm.tasks])


def _reports(s, kernel, firm):
    return [
        check_signs(firm, s.p, s.q_i, s.coarse, s.fine, kernel, tie_break=rule)
        for rule in ("lowest", "highest")
    ]


def _same_verdicts(moved, base, task=lambda k: k):
    assert moved._replace(result=None) == base._replace(result=None)
    for name in ("assignment_coarse", "assignment_fine"):
        assert getattr(moved.result, name) == tuple(
            task(k) for k in getattr(base.result, name)
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_shifting_every_surplus_moves_only_the_pays(seed):
    for s, kernel in _instances(seed):
        base = _reports(s, kernel, s.firm)
        for c in SHIFTS:
            firm = _mapped(s.firm, lambda v: v + c)
            assert firm.is_monotone == s.firm.is_monotone
            for moved, was in zip(_reports(s, kernel, firm), base):
                _same_verdicts(moved, was)
                r, b = moved.result, was.result
                assert (r.w_fine, r.w_coarse) == (b.w_fine + c, b.w_coarse + c)
                for name in VALUES[2:]:
                    assert getattr(r, name) == getattr(b, name)


@pytest.mark.parametrize("seed", SEEDS)
def test_scaling_every_surplus_scales_every_value(seed):
    for s, kernel in _instances(seed):
        base = _reports(s, kernel, s.firm)
        for c in SCALES:
            firm = _mapped(s.firm, lambda v: v * c)
            assert firm.is_monotone == s.firm.is_monotone
            for moved, was in zip(_reports(s, kernel, firm), base):
                _same_verdicts(moved, was)
                for name in VALUES:
                    assert getattr(moved.result, name) == getattr(was.result, name) * c


@pytest.mark.parametrize("seed", SEEDS)
def test_reversing_the_tasks_swaps_the_tie_rules(seed):
    for s, kernel in _instances(seed):
        last = len(s.firm.tasks) - 1
        firm = Firm(s.firm.tasks[::-1])
        assert firm.is_monotone == s.firm.is_monotone
        lowest, highest = _reports(s, kernel, firm)
        was_lowest, was_highest = _reports(s, kernel, s.firm)
        for moved, was in ((lowest, was_highest), (highest, was_lowest)):
            _same_verdicts(moved, was, task=lambda k: last - k)
            assert moved.result.kernel == was.result.kernel
            for name in VALUES:
                assert getattr(moved.result, name) == getattr(was.result, name)


@pytest.mark.parametrize("seed", SEEDS)
def test_appending_a_dominated_task_changes_nothing(seed):
    for s, kernel in _instances(seed):
        below = Task([v - 1 for v in s.firm.tasks[0].surplus])
        firm = Firm([*s.firm.tasks, below])
        assert firm.is_monotone == s.firm.is_monotone
        for moved, was in zip(_reports(s, kernel, firm), _reports(s, kernel, s.firm)):
            _same_verdicts(moved, was)
            for name in VALUES:
                assert getattr(moved.result, name) == getattr(was.result, name)
