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

Two more relations move the fine signals instead, rebuilding the fine
structure and the kernel through their public constructors (Blackwell
1953: neither move changes what the fine structure tells):

* Split: fine signal 0 becomes two signals carrying 1/3 and 2/3 of its
  likelihoods, and the kernel's column for it is duplicated.  Every
  value and the coarse assignment stay the same, and the fine
  assignment repeats that signal's task.
* Reverse: the fine signals are listed in reverse order, together with
  the kernel's columns.  Every value and the coarse assignment stay the
  same, and the fine assignment is reversed.

The rebuilt structures carry no signal values, so their MLR verdict is
not compared; every other verdict is.
"""

from fractions import Fraction as F

import pytest

from infopay.decomposition import check_signs
from infopay.generators import trial_rng
from infopay.garbling import GarblingKernel
from infopay.model import Firm, SignalStructure, Task
from infopay.suites import _draw_theorem1

SEEDS = (1, 5)
TRIALS = 100
VALUES = ("w_fine", "w_coarse", "total", "perception_correcting", "instrumental")
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


def _fine_moved(s, kernel, cols):
    """Decompositions, under both tie rules, with fine signal ``j`` of
    the rebuilt pair read off ``cols[j] = (f, share)``: ``share`` of old
    fine signal ``f``'s likelihoods, and the kernel's column ``f``."""
    labels = tuple(f"m{j}" for j in range(len(cols)))
    lik = [[row[f] * share for f, share in cols] for row in s.fine.likelihood]
    matrix = [[row[f] for f, _ in cols] for row in kernel.matrix]
    fine = SignalStructure(s.fine.space, labels, lik)
    kernel = GarblingKernel(kernel.coarse_signals, labels, matrix)
    return [
        check_signs(s.firm, s.p, s.q_i, s.coarse, fine, kernel, tie_break=rule)
        for rule in ("lowest", "highest")
    ]


def _same_but_fine_signals(moved, was, fine_assignment):
    assert moved._replace(fine_mlr=None, result=None) == was._replace(
        fine_mlr=None, result=None
    )
    r, b = moved.result, was.result
    assert r.assignment_coarse == b.assignment_coarse
    assert r.assignment_fine == fine_assignment(b.assignment_fine)
    for name in VALUES:
        assert getattr(r, name) == getattr(b, name)


@pytest.mark.parametrize("seed", SEEDS)
def test_splitting_a_fine_signal_changes_nothing(seed):
    for s, kernel in _instances(seed):
        rest = [(f, 1) for f in range(1, s.fine.n_signals)]
        cols = [(0, F(1, 3)), (0, F(2, 3)), *rest]
        base = _reports(s, kernel, s.firm)
        for moved, was in zip(_fine_moved(s, kernel, cols), base):
            _same_but_fine_signals(moved, was, lambda a: (a[0], *a))


@pytest.mark.parametrize("seed", SEEDS)
def test_reversing_the_fine_signals_changes_nothing(seed):
    for s, kernel in _instances(seed):
        cols = [(f, 1) for f in reversed(range(s.fine.n_signals))]
        base = _reports(s, kernel, s.firm)
        for moved, was in zip(_fine_moved(s, kernel, cols), base):
            _same_but_fine_signals(moved, was, lambda a: a[::-1])
