"""Optimal tasks read off normalized posteriors: a test oracle.

The package decides which tasks are optimal at a signal in one place,
the pay table, on unnormalized (and, for exact input, integer-scaled)
scores.  This module keeps the route it replaced: form the Bayes
posterior with ``model.posterior``, score every task under it, and keep
the tasks within ``DEFAULT_TOL`` of the best (zero slack when the
scores are exact).  The slightness checks below are built on it.
"""

from __future__ import annotations

from infopay.model import posterior
from infopay.numeric import DEFAULT_TOL, all_exact


def argmax_task_set(firm, belief, tol=None):
    """Indices of all tasks within tolerance of the best expected surplus."""
    scores = [
        sum(w * a for w, a in zip(belief.probs, task.surplus)) for task in firm.tasks
    ]
    slack = 0 if all_exact(scores) else DEFAULT_TOL if tol is None else tol
    best = max(scores)
    return tuple(i for i, v in enumerate(scores) if v >= best - slack)


def _signal_sets(firm, q, sig):
    return [frozenset(argmax_task_set(firm, posterior(q, sig, s))) for s in sig.signals]


def _linked(kernel, s, positive):
    return [f for f, g in enumerate(kernel.matrix[s]) if g > positive]


def slight_per_coarse_signal(firm, q, fine, coarse, kernel, positive=0):
    """Every coarse signal keeps a task optimal at all of its linked fine
    signals (the reading the package implements)."""
    coarse_sets, fine_sets = _signal_sets(firm, q, coarse), _signal_sets(firm, q, fine)
    for s, kept in enumerate(coarse_sets):
        for f in _linked(kernel, s, positive):
            kept = kept & fine_sets[f]
        if not kept:
            return False
    return True


def slight_pairwise(firm, q, fine, coarse, kernel, positive=0):
    """Every linked (coarse, fine) pair shares an optimal task (the weaker
    reading, which admits counterexamples to gap narrowing)."""
    coarse_sets, fine_sets = _signal_sets(firm, q, coarse), _signal_sets(firm, q, fine)
    return all(
        coarse_sets[s] & fine_sets[f]
        for s in range(coarse.n_signals)
        for f in _linked(kernel, s, positive)
    )
