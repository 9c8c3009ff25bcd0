"""Seeded random instance generators for the property suites.

Everything draws small integers from a PCG64 stream and builds exact
rational objects, so claims checked on generated instances are checked
with zero tolerance; float variants come from the objects' ``to_float``
methods.  Inputs must be exact too: ``random_lr_above`` and
``extreme_structure`` raise ``InputError`` on floats.  Distributions,
signal structures and kernels are built from the drawn ints over their
row or column sums by the one int-form builder, ``_Frozen._from_ints``,
which runs the public constructors' validation and brings the form to
lowest terms.  They store only that int form and build their Fraction
fields on first read, so an instance costs what its ints cost: no
Fraction is made only to be cleared again or never read.
Per-trial reproducibility: each trial seeds its own stream from the
``(seed, trial)`` pair, which yields independent streams for any trial
order.

The stream is numpy's, in pure Python: ``trial_rng(s, t)`` followed by
``_int(rng, lo, hi)`` gives the draws of
``numpy.random.default_rng((s, t)).integers(lo, hi + 1)`` bit for bit.
Seeding is numpy's ``SeedSequence`` pool mixing (O'Neill's
``seed_seq`` design), the generator is PCG64 XSL-RR 128/64 (O'Neill
2014) with each 64-bit output split into two buffered 32-bit halves,
and bounded draws are Lemire's multiply-and-reject (Lemire 2019), as
numpy does them for ranges below 2^32.  ``PRNG_ID`` names that stream.

Within-hypothesis generation never rejects on the hypotheses that can
be enforced by construction: likelihood-ratio ordered pairs come from
nondecreasing multipliers, MLR structures from geometric tilts of a
base row, and garbling-ordered pairs from applying an explicit random
kernel.  Only the slightness condition is enforced by rejection (with a
single-task fallback, for which it holds trivially).
"""

from __future__ import annotations

from fractions import Fraction

from .discrimination import GapScenario
from .errors import InputError
from .garbling import GarblingKernel, garble, is_slightly_more_informative
from .model import Dist, Firm, SignalStructure, SkillSpace, Task
from .numeric import join_rows, require_count
from .orders import lr_geq

__all__ = [
    "PRNG_ID",
    "trial_rng",
    "random_skill_space",
    "random_dist",
    "random_task",
    "random_firm",
    "random_signal_structure",
    "random_mlr_structure",
    "extreme_structure",
    "random_kernel",
    "random_garbling_pair",
    "random_lr_above",
    "random_lr_pair",
    "random_lr_chain",
    "random_non_lr_pair",
    "random_narrowing_scenario",
]

PRNG_ID = "numpy:PCG64"

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """numpy ``SeedSequence``'s ``hashmix``; its constant advances per call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * mult) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)

    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ (r >> 16)


def _seed_words(entropy: tuple[int, ...]) -> list[int]:
    """numpy ``SeedSequence(entropy).generate_state(4, uint64)``."""
    words = []
    for n in entropy:  # little-endian 32-bit words; 0 is one zero word
        words.append(n & _M32)
        while n > _M32:
            n >>= 32
            words.append(n & _M32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    # a pool of 4 words, mixed all to all; later words are mixed in after
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = [hashmix(pool[k % 4]) for k in range(8)]  # low half first
    return [halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2)]


class PCG64Stream:
    """numpy's PCG64 bit generator, seeded through ``SeedSequence``."""

    __slots__ = ("state", "inc", "half")

    def __init__(self, entropy: tuple[int, ...]):
        w = _seed_words(entropy)
        self.inc = (((w[2] << 64 | w[3]) << 1) | 1) & _M128
        # state = 0; step; state += initstate; step (the first step gives inc)
        self.state = ((self.inc + (w[0] << 64 | w[1])) * _PCG_MULT + self.inc) & _M128
        self.half = None  # the buffered high half of the last 64-bit output

    def next32(self) -> int:
        half = self.half
        if half is not None:
            self.half = None
            return half
        s = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        rot = s >> 122
        x = ((s >> 64) ^ s) & _M64
        x = ((x >> rot) | (x << (64 - rot))) & _M64  # XSL-RR output
        self.half = x >> 32
        return x & _M32


def trial_rng(seed: int, trial: int) -> PCG64Stream:
    """Independent, reproducible stream for one suite trial: the stream
    of ``numpy.random.default_rng((seed, trial))``."""
    require_count(seed, "seed", 0)
    require_count(trial, "trial", 0)
    return PCG64Stream((seed, trial))


def _int(rng: PCG64Stream, lo: int, hi: int) -> int:
    """Uniform int in ``[lo, hi]``: numpy's ``integers(lo, hi + 1)``.

    ``lo == hi`` draws nothing, as in numpy.  Python ints throughout, so
    exactness detection downstream sees plain ``int``.
    """
    width = hi - lo
    if not 0 <= width <= _M32:
        raise InputError(f"draw range [{lo}, {hi}] is empty or holds more than 2^32 values")
    if not width:
        return lo
    excl = width + 1
    m = rng.next32() * excl
    if m & _M32 < excl:  # rejection, numpy's threshold (2^32 - excl) % excl
        threshold = (_M32 - width) % excl
        while m & _M32 < threshold:
            m = rng.next32() * excl
    return lo + (m >> 32)


def random_skill_space(rng: PCG64Stream, max_types: int = 5) -> SkillSpace:
    n = _int(rng, 2, max_types)
    theta = _int(rng, -3, 3)
    thetas = []
    for _ in range(n):
        thetas.append(theta)
        theta += _int(rng, 1, 3)
    return SkillSpace(tuple(thetas))


def random_dist(rng: PCG64Stream, space: SkillSpace) -> Dist:
    """Full-support rational distribution with small denominators."""
    weights = [_int(rng, 1, 9) for _ in range(space.size)]
    return Dist._from_ints((weights, sum(weights)), space=space)


def random_task(rng: PCG64Stream, n_types: int, monotone: bool = False) -> Task:
    if monotone:
        v = _int(rng, -3, 3)
        out = []
        for _ in range(n_types):
            out.append(v)
            v += _int(rng, 1, 3)
        return Task(tuple(out))
    return Task(tuple(_int(rng, -4, 4) for _ in range(n_types)))


def random_firm(
    rng: PCG64Stream,
    n_types: int,
    max_tasks: int = 4,
    monotone: bool = False,
) -> Firm:
    count = _int(rng, 1, max_tasks)
    return Firm(tuple(random_task(rng, n_types, monotone) for _ in range(count)))


def random_signal_structure(
    rng: PCG64Stream,
    space: SkillSpace,
    max_signals: int = 6,
) -> SignalStructure:
    """Row-stochastic structure; zero entries allowed, dead columns not."""
    n_s = _int(rng, 2, max_signals)
    n_t = space.size
    weights = [[_int(rng, 0, 4) for _ in range(n_s)] for _ in range(n_t)]
    for row in weights:
        if not any(row):
            row[_int(rng, 0, n_s - 1)] = _int(rng, 1, 4)
    for j in range(n_s):
        if not any(row[j] for row in weights):
            weights[_int(rng, 0, n_t - 1)][j] = _int(rng, 1, 4)
    labels = tuple(f"s{k}" for k in range(n_s))
    form = join_rows([(row, sum(row)) for row in weights])
    return SignalStructure._from_ints(form, space=space, signals=labels, values=None)


def random_mlr_structure(
    rng: PCG64Stream, space: SkillSpace, max_signals: int = 6
) -> SignalStructure:
    """Valued structure with monotone likelihood ratios by construction.

    Row for type t is proportional to base[j] * tilt_t**j with tilts
    nondecreasing in t, so every likelihood cross product is ordered.
    """
    n_s = _int(rng, 2, max_signals)
    base = [_int(rng, 1, 4) for _ in range(n_s)]
    tilt = _int(rng, 1, 2)
    rows = []
    for _ in range(space.size):
        raw = [base[j] * tilt**j for j in range(n_s)]
        rows.append((raw, sum(raw)))
        tilt += _int(rng, 0, 1)
    labels = tuple(f"s{k}" for k in range(n_s))
    return SignalStructure._from_ints(
        join_rows(rows), space=space, signals=labels, values=tuple(range(n_s))
    )


def extreme_structure(space: SkillSpace, eps: Fraction) -> SignalStructure:
    """One signal per type; every off-type likelihood is exactly ``eps``
    times the own-type one, so the structure sits at the boundary of
    being within ``eps`` of full information."""
    if not eps >= 0:
        raise InputError(f"eps must be nonnegative, got {eps!r}")
    if not isinstance(eps, (int, Fraction)):
        raise InputError(f"eps must be an int or Fraction, got {eps!r}")
    n = space.size
    labels = tuple(f"e{k}" for k in range(n))
    a, b = eps.numerator, eps.denominator  # eps = a/b: b own, a elsewhere
    rows = tuple(tuple(b if j == i else a for j in range(n)) for i in range(n))
    return SignalStructure._from_ints(
        (rows, b + (n - 1) * a), space=space, signals=labels, values=None
    )


def random_kernel(
    rng: PCG64Stream,
    fine_labels: tuple[str, ...],
    n_coarse: int,
) -> GarblingKernel:
    """Column-stochastic kernel whose every coarse row is reachable."""
    n_f = len(fine_labels)
    for _ in range(100):
        cols = []
        for _ in range(n_f):
            col = [_int(rng, 0, 4) for _ in range(n_coarse)]
            if not any(col):
                col[_int(rng, 0, n_coarse - 1)] = _int(rng, 1, 4)
            cols.append(col)
        if all(any(cols[f][s] for f in range(n_f)) for s in range(n_coarse)):
            break
    else:  # force reachability, keeping column sums positive
        for s in range(n_coarse):
            if not any(cols[f][s] for f in range(n_f)):
                cols[s % n_f][s] += 1
    cols, scale = join_rows([(col, sum(col)) for col in cols])
    labels = tuple(f"c{k}" for k in range(n_coarse))
    return GarblingKernel._from_ints(
        (tuple(zip(*cols)), scale), coarse_signals=labels, fine_signals=fine_labels
    )


def random_garbling_pair(
    rng: PCG64Stream,
    space: SkillSpace,
    mlr: bool = False,
    max_fine: int = 6,
    max_coarse: int = 5,
) -> tuple[SignalStructure, SignalStructure, GarblingKernel]:
    """(fine, coarse, kernel) with coarse produced by the kernel, so the
    pair is garbling-ordered by construction."""
    if mlr:
        fine = random_mlr_structure(rng, space, max_signals=max_fine)
    else:
        fine = random_signal_structure(rng, space, max_signals=max_fine)
    kernel = random_kernel(rng, fine.signals, _int(rng, 1, max_coarse))
    return fine, garble(fine, kernel), kernel


def random_lr_above(rng: PCG64Stream, lo: Dist) -> Dist:
    """Reweight by a nondecreasing positive multiplier: LR-above ``lo``.

    ``lo`` is exact and is reweighted in ints, from its int form.
    """
    if lo.int_form is None:
        raise InputError("random_lr_above needs an exact distribution")
    mult = _int(rng, 1, 3)
    raw = []
    for v in lo.int_form[0]:
        raw.append(v * mult)
        mult += _int(rng, 0, 2)
    return Dist._from_ints((raw, sum(raw)), space=lo.space)


def random_lr_pair(rng: PCG64Stream, space: SkillSpace) -> tuple[Dist, Dist]:
    """(hi, lo) with hi LR-above lo."""
    lo = random_dist(rng, space)
    return random_lr_above(rng, lo), lo


def random_lr_chain(rng: PCG64Stream, space: SkillSpace) -> tuple[Dist, Dist, Dist]:
    """LR-descending chain ``(hi, mid, lo)``, drawn from ``lo`` upwards."""
    lo = random_dist(rng, space)
    mid = random_lr_above(rng, lo)
    return random_lr_above(rng, mid), mid, lo


def random_non_lr_pair(rng: PCG64Stream, space: SkillSpace) -> tuple[Dist, Dist]:
    """(a, b) with a *not* LR-above b; the violating index pair exists."""
    while True:
        a = random_dist(rng, space)
        b = random_dist(rng, space)
        if not lr_geq(a, b):
            return a, b
        if not lr_geq(b, a):
            return b, a
        # a and b proportional: redraw


def random_narrowing_scenario(rng: PCG64Stream) -> tuple[GapScenario, GarblingKernel]:
    """Scenario satisfying all five narrowing hypotheses.

    Monotone firm, MLR fine, kernel-derived coarse, and the LR chain
    q_i above p above q_j are enforced by construction; slightness is
    enforced by rejection.  When 50 draws fail the firm is collapsed to a
    single monotone task, for which slightness holds at every belief.
    """
    space = random_skill_space(rng, max_types=4)
    q_i, p, q_j = random_lr_chain(rng, space)
    for attempt in range(51):
        if attempt < 50:
            firm = random_firm(rng, space.size, max_tasks=3, monotone=True)
        else:
            firm = Firm((random_task(rng, space.size, monotone=True),))
        fine = random_mlr_structure(rng, space, max_signals=5)
        kernel = random_kernel(rng, fine.signals, _int(rng, 1, 4))
        coarse = garble(fine, kernel)
        if is_slightly_more_informative(
            firm, q_i, fine, coarse, kernel
        ) and is_slightly_more_informative(firm, q_j, fine, coarse, kernel):
            scenario = GapScenario(
                firm=firm, p=p, q_i=q_i, q_j=q_j, coarse=coarse, fine=fine
            )
            return scenario, kernel
    raise AssertionError("unreachable: single-task firms are always slight")
