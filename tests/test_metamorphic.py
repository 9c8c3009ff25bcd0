"""Metamorphic relations: transform a drawn instance and predict how
Theorem 1's decomposition moves.

Each relation rebuilds the firm through the public ``Task`` and ``Firm``
constructors and compares ``check_signs`` on the transformed instance
with its result on the original, exactly (rational mode, no slack).
The instances are both scenarios of every theorem1 draw (the arbitrary
one and the within-hypothesis one), at two seeds.  The firm keeps the
lowest optimal task at a tied signal, so every relation but the task
reversal is run on the drawn firm and on its reversal, which keeps the
highest.

* Shift: adding ``c`` to every surplus moves both average pays by ``c``
  (each distribution sums to 1) and leaves the total, both parts and
  the assignments unchanged.
* Scale: multiplying every surplus by ``c > 0`` multiplies every value
  by ``c`` and leaves the assignments unchanged.
* Reverse: listing the tasks in reverse order swaps the tie rules: the
  reversed firm keeps, at each signal, the highest task of the
  original's tie set, read as ``n_tasks - 1 - k``.  Both pays and the
  total stay the same, and so does every verdict but the sign of a
  correction the hypotheses do not require; where the kept coarse
  tasks do not change, both parts and that sign stay the same too.
* Dominated task: appending a task strictly below task 0 at every type
  changes nothing, since no posterior ever assigns it.

All four keep a monotone firm monotone (and a non-monotone one not), and
none changes the perception class or any verdict that Theorem 1 makes.

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
from infopay.model import Firm, SignalStructure, Task, pay_table
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


def _mapped(f):
    """The move of a firm that maps every surplus through ``f``."""
    return lambda firm: Firm([Task([f(v) for v in t.surplus]) for t in firm.tasks])


def _reports(s, kernel, move=lambda firm: firm):
    """``check_signs`` on ``move`` of the drawn firm and of its reversal."""
    return [
        check_signs(move(firm), s.p, s.q_i, s.coarse, s.fine, kernel)
        for firm in (s.firm, Firm(s.firm.tasks[::-1]))
    ]


def _same_verdicts(moved, base):
    assert moved._replace(result=None) == base._replace(result=None)
    for name in ("assignment_coarse", "assignment_fine"):
        assert getattr(moved.result, name) == getattr(base.result, name)


@pytest.mark.parametrize("seed", SEEDS)
def test_shifting_every_surplus_moves_only_the_pays(seed):
    for s, kernel in _instances(seed):
        base = _reports(s, kernel)
        for c in SHIFTS:
            move = _mapped(lambda v: v + c)
            assert move(s.firm).is_monotone == s.firm.is_monotone
            for moved, was in zip(_reports(s, kernel, move), base):
                _same_verdicts(moved, was)
                r, b = moved.result, was.result
                assert (r.w_fine, r.w_coarse) == (b.w_fine + c, b.w_coarse + c)
                for name in VALUES[2:]:
                    assert getattr(r, name) == getattr(b, name)


@pytest.mark.parametrize("seed", SEEDS)
def test_scaling_every_surplus_scales_every_value(seed):
    for s, kernel in _instances(seed):
        base = _reports(s, kernel)
        for c in SCALES:
            move = _mapped(lambda v: v * c)
            assert move(s.firm).is_monotone == s.firm.is_monotone
            for moved, was in zip(_reports(s, kernel, move), base):
                _same_verdicts(moved, was)
                for name in VALUES:
                    assert getattr(moved.result, name) == getattr(was.result, name) * c


@pytest.mark.parametrize("seed", SEEDS)
def test_reversing_the_tasks_swaps_the_tie_rules(seed):
    swapped = 0
    for s, kernel in _instances(seed):
        last = len(s.firm.tasks) - 1
        was, moved = _reports(s, kernel)
        assert Firm(s.firm.tasks[::-1]).is_monotone == s.firm.is_monotone
        r, b = moved.result, was.result
        assert r.kernel == b.kernel
        for name, sig in (("assignment_coarse", s.coarse), ("assignment_fine", s.fine)):
            rows = pay_table(s.firm, s.p, s.q_i, sig).rows
            assert getattr(r, name) == tuple(last - row.ties[-1] for row in rows)
            assert getattr(b, name) == tuple(row.ties[0] for row in rows)
        for name in VALUES[:3]:
            assert getattr(r, name) == getattr(b, name)
        if r.assignment_coarse == tuple(last - k for k in b.assignment_coarse):
            assert moved._replace(result=None) == was._replace(result=None)
            for name in VALUES[3:]:
                assert getattr(r, name) == getattr(b, name)
        else:
            # the parts move, so a sign the hypotheses do not require may too
            assert moved._replace(result=None, correction_sign_holds=None) == (
                was._replace(result=None, correction_sign_holds=None)
            )
            assert moved.correction_sign_ok == was.correction_sign_ok
            swapped += 1
    assert swapped  # some coarse signal keeps another task


@pytest.mark.parametrize("seed", SEEDS)
def test_appending_a_dominated_task_changes_nothing(seed):
    def move(firm):
        return Firm([*firm.tasks, Task([v - 1 for v in firm.tasks[0].surplus])])

    for s, kernel in _instances(seed):
        assert move(s.firm).is_monotone == s.firm.is_monotone
        for moved, was in zip(_reports(s, kernel, move), _reports(s, kernel)):
            _same_verdicts(moved, was)
            for name in VALUES:
                assert getattr(moved.result, name) == getattr(was.result, name)


def _fine_moved(s, kernel, cols):
    """Reports, on the firm and its reversal, with fine signal ``j`` of
    the rebuilt pair read off ``cols[j] = (f, share)``: ``share`` of old
    fine signal ``f``'s likelihoods, and the kernel's column ``f``."""
    labels = tuple(f"m{j}" for j in range(len(cols)))
    lik = [[row[f] * share for f, share in cols] for row in s.fine.likelihood]
    matrix = [[row[f] for f, _ in cols] for row in kernel.matrix]
    fine = SignalStructure(s.fine.space, labels, lik)
    kernel = GarblingKernel(kernel.coarse_signals, labels, matrix)
    return [
        check_signs(firm, s.p, s.q_i, s.coarse, fine, kernel)
        for firm in (s.firm, Firm(s.firm.tasks[::-1]))
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
        base = _reports(s, kernel)
        for moved, was in zip(_fine_moved(s, kernel, cols), base):
            _same_but_fine_signals(moved, was, lambda a: (a[0], *a))


@pytest.mark.parametrize("seed", SEEDS)
def test_reversing_the_fine_signals_changes_nothing(seed):
    for s, kernel in _instances(seed):
        cols = [(f, 1) for f in reversed(range(s.fine.n_signals))]
        base = _reports(s, kernel)
        for moved, was in zip(_fine_moved(s, kernel, cols), base):
            _same_but_fine_signals(moved, was, lambda a: a[::-1])
