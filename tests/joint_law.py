"""Joint (type, coarse signal, fine signal) laws: a test oracle.

``build_joints`` forms the two joint tensors that the decomposition is
defined on, and ``joint_law_decomposition`` reads the decomposition
straight off them with normalized conditionals.  ``decompose`` never
builds these tensors, so the two routes share no arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from infopay import Dist, GarblingKernel, InputError, SignalStructure, kernel_reproduces
from infopay.numeric import LP_TOL, all_exact


@dataclass(frozen=True)
class JointDist:
    """Joint law of (type, coarse signal, fine signal) under one belief.

    ``probs[t][s][f]`` multiplies the type weight, the fine likelihood
    and the kernel entry, so type and coarse signal are independent
    conditional on the fine signal by construction.
    """

    probs: tuple

    def __post_init__(self):
        flat = [v for plane in self.probs for row in plane for v in row]
        tol = 0 if all_exact(flat) else LP_TOL
        if any(v < -tol for v in flat):
            raise InputError("joint probabilities must be nonnegative")
        total = sum(flat)
        if not (1 - max(tol, 1e-9) <= total <= 1 + max(tol, 1e-9)):
            raise InputError(f"joint probabilities sum to {total!r}, expected 1")

    def coarse_marginal(self, s):
        return sum(sum(plane[s]) for plane in self.probs)

    def fine_marginal(self, f):
        return sum(row[f] for plane in self.probs for row in plane)

    def pair_marginal(self, s, f):
        return sum(plane[s][f] for plane in self.probs)


def build_joints(
    p: Dist,
    q: Dist,
    fine: SignalStructure,
    coarse: SignalStructure,
    kernel: GarblingKernel,
) -> tuple[JointDist, JointDist]:
    """Joint laws under the true and the perceived type distribution,
    sharing one garbling kernel."""
    if not kernel_reproduces(kernel, fine, coarse):
        raise InputError("kernel does not reproduce the coarse structure")

    def tensor(dist: Dist) -> JointDist:
        return JointDist(
            tuple(
                tuple(
                    tuple(
                        dist.probs[t] * fine.likelihood[t][f] * kernel.matrix[s][f]
                        for f in range(fine.n_signals)
                    )
                    for s in range(coarse.n_signals)
                )
                for t in range(dist.space.size)
            )
        )

    return tensor(p), tensor(q)


def _value(surplus, weights, total):
    return sum(w * a for w, a in zip(weights, surplus)) / total


def _best(firm, weights, total):
    values = [_value(task.surplus, weights, total) for task in firm.tasks]
    best = max(values)
    return values.index(best), best


def joint_law_decomposition(firm, p, q, coarse, fine, kernel) -> dict:
    """Total change, both parts and both assignments, from the joint
    laws; exact input only (ties go to the lowest task index)."""
    jp, jq = build_joints(p, q, fine, coarse, kernel)
    types = range(p.space.size)
    n_c, n_f = coarse.n_signals, fine.n_signals
    # perceived type weights given a coarse signal, a fine signal
    wq_c = [[sum(jq.probs[t][s]) for t in types] for s in range(n_c)]
    wq_f = [
        [sum(jq.probs[t][s][f] for s in range(n_c)) for t in types]
        for f in range(n_f)
    ]
    assign_c, pay_c = zip(
        *(_best(firm, wq_c[s], jq.coarse_marginal(s)) for s in range(n_c))
    )
    assign_f, pay_f = zip(
        *(_best(firm, wq_f[f], jq.fine_marginal(f)) for f in range(n_f))
    )
    total = sum(jp.fine_marginal(f) * pay_f[f] for f in range(n_f)) - sum(
        jp.coarse_marginal(s) * pay_c[s] for s in range(n_c)
    )
    correction = instrumental = 0
    for s in range(n_c):
        kept = firm.tasks[assign_c[s]].surplus
        for f in range(n_f):
            if jq.pair_marginal(s, f) == 0:
                continue
            kept_value = _value(kept, wq_f[f], jq.fine_marginal(f))
            # true pair law against the true coarse law times the
            # perceived fine-given-coarse law
            perceived_given_s = jq.pair_marginal(s, f) / jq.coarse_marginal(s)
            correction += (
                jp.pair_marginal(s, f) - jp.coarse_marginal(s) * perceived_given_s
            ) * kept_value
            instrumental += jp.pair_marginal(s, f) * (pay_f[f] - kept_value)
    return {
        "total": total,
        "perception_correcting": correction,
        "instrumental": instrumental,
        "assignment_coarse": assign_c,
        "assignment_fine": assign_f,
    }
