"""What the public constructors of ``Dist``, ``SignalStructure`` and
``GarblingKernel`` refuse, and with which message.

Each case holds one defect, in an exact, a float and a mixed form (some
entries floats, the rest ints and Fractions).  The messages are the
constructors' own wording; a float in any entry makes the object a float
object, compared with float slack throughout (``test_mixed_structure_*``).
"""

from fractions import Fraction as F

import pytest

from infopay.errors import InputError
from infopay.garbling import GarblingKernel
from infopay.model import Dist, SignalStructure, SkillSpace
from infopay.numeric import DIST_SUM_TOL, format_number

S3 = SkillSpace((0, 1, 2))
h, q, t = F(1, 2), F(1, 4), F(3, 4)
INF = float("inf")

# valid likelihood rows: exact, float, and mixed (first row floats)
OK = {"exact": ((h, h), (q, t), (t, q)),
      "float": ((0.5, 0.5), (0.25, 0.75), (0.75, 0.25)),
      "mixed": ((0.5, 0.5), (q, t), (t, q))}


def _dist(*probs):
    return lambda: Dist(S3, probs)


def _sig(form, row1=None, values=None, labels=("a", "b")):
    rows = OK[form] if row1 is None else (OK[form][0], row1, OK[form][2])
    return lambda: SignalStructure(S3, labels, rows, values)


def _kernel(rows, coarse=("x", "y"), fine=("a", "b")):
    return lambda: GarblingKernel(coarse, fine, rows)


CASES = [  # (case id, build, expected message)
    ("dist-length-exact", _dist(h, h), "distribution has 2 entries for 3 types"),
    ("dist-length-float", _dist(0.5, 0.5), "distribution has 2 entries for 3 types"),
    ("dist-length-mixed", _dist(0.5, h), "distribution has 2 entries for 3 types"),
    ("dist-nonnumber-exact", _dist(h, "x", h), "distribution: 'x' is not a number"),
    ("dist-nonnumber-float", _dist(0.5, "x", 0.5), "distribution: 'x' is not a number"),
    ("dist-nonnumber-mixed", _dist(0.5, "x", h), "distribution: 'x' is not a number"),
    ("dist-bool", _dist(h, True, h), "distribution: True is not a number"),
    ("dist-negative-exact", _dist(h, -q, t),
     "distribution: entry 1 is negative (-1/4)"),
    ("dist-negative-float", _dist(0.5, -0.25, 0.75),
     "distribution: entry 1 is negative (-0.25)"),
    ("dist-negative-mixed", _dist(0.5, -q, t),
     "distribution: entry 1 is negative (-1/4)"),
    ("dist-sum-exact", _dist(h, q, h),
     "distribution: entries sum to 5/4, expected 1"),
    ("dist-sum-float", _dist(0.5, 0.25, 0.5),
     "distribution: entries sum to 1.25, expected 1"),
    ("dist-sum-mixed", _dist(0.5, q, h),
     "distribution: entries sum to 1.25, expected 1"),
    ("dist-nan", _dist(0.5, float("nan"), 0.5),
     "distribution: entries sum to nan, expected 1"),
    *[(f"sig-rows-{form}", lambda form=form: SignalStructure(S3, ("a", "b"), OK[form][:2]),
       "likelihood has 2 rows for 3 types") for form in OK],
    ("sig-width-exact", _sig("exact", (q, t, 0)),
     "likelihood row for type index 1 has wrong width"),
    ("sig-width-float", _sig("float", (0.25, 0.75, 0.0)),
     "likelihood row for type index 1 has wrong width"),
    ("sig-width-mixed", _sig("mixed", (q, t, 0)),
     "likelihood row for type index 1 has wrong width"),
    ("sig-nonnumber-exact", _sig("exact", (q, "x")),
     "likelihood row for type index 1: 'x' is not a number"),
    ("sig-nonnumber-float", _sig("float", (0.25, "x")),
     "likelihood row for type index 1: 'x' is not a number"),
    ("sig-nonnumber-mixed", _sig("mixed", (q, "x")),
     "likelihood row for type index 1: 'x' is not a number"),
    ("sig-negative-exact", _sig("exact", (-q, F(5, 4))),
     "likelihood row for type index 1: entry 0 is negative (-1/4)"),
    ("sig-negative-float", _sig("float", (-0.25, 1.25)),
     "likelihood row for type index 1: entry 0 is negative (-0.25)"),
    ("sig-negative-mixed", _sig("mixed", (-q, F(5, 4))),
     "likelihood row for type index 1: entry 0 is negative (-1/4)"),
    ("sig-sum-exact", _sig("exact", (q, h)),
     "likelihood row for type index 1: entries sum to 3/4, expected 1"),
    ("sig-sum-float", _sig("float", (0.25, 0.5)),
     "likelihood row for type index 1: entries sum to 0.75, expected 1"),
    ("sig-sum-mixed", _sig("mixed", (q, h)),
     "likelihood row for type index 1: entries sum to 3/4, expected 1"),
    ("sig-dead-exact",
     lambda: SignalStructure(S3, ("a", "b"), ((1, 0), (1, 0), (1, 0))),
     "signal 'b' has zero likelihood everywhere"),
    ("sig-dead-float",
     lambda: SignalStructure(S3, ("a", "b"), ((1.0, 0.0), (1.0, 0.0), (1.0, 0.0))),
     "signal 'b' has zero likelihood everywhere"),
    ("sig-dead-mixed",
     lambda: SignalStructure(S3, ("a", "b"), ((1.0, 0.0), (1, 0), (1, 0))),
     "signal 'b' has zero likelihood everywhere"),
    *[(f"sig-values-short-{form}", _sig(form, values=(1,)),
       "signal values must match signal count") for form in OK],
    *[(f"sig-values-inf-{form}", _sig(form, values=(0, INF)),
       "signal values: inf is not a finite number") for form in OK],
    *[(f"sig-values-nan-{form}", _sig(form, values=(0.0, float("nan"))),
       "signal values: nan is not a finite number") for form in OK],
    *[(f"sig-values-nonnumber-{form}", _sig(form, values=(0, "x")),
       "signal values: 'x' is not a number") for form in OK],
    *[(f"sig-values-order-{form}", _sig(form, values=(1, 1)),
       "signal values must be strictly increasing") for form in OK],
    ("sig-values-order-float-values", _sig("exact", values=(1.0, 0.5)),
     "signal values must be strictly increasing"),
    ("sig-no-signals",
     lambda: SignalStructure(S3, (), ((), (), ())),
     "signal structure needs at least one signal"),
    *[(f"sig-duplicate-{form}", _sig(form, labels=("a", "a")),
       "signal labels must be unique") for form in OK],
    ("kernel-empty", _kernel((), coarse=()), "kernel needs nonempty signal sets"),
    ("kernel-rows-exact", _kernel(((1, 0),)),
     "kernel matrix shape does not match signal sets"),
    ("kernel-rows-float", _kernel(((1.0, 0.0),)),
     "kernel matrix shape does not match signal sets"),
    ("kernel-width-exact", _kernel(((1, h, 0), (0, h))),
     "kernel matrix shape does not match signal sets"),
    ("kernel-width-mixed", _kernel(((1.0, 0.5, 0.0), (0, h, 1))),
     "kernel matrix shape does not match signal sets"),
    ("kernel-nonnumber-exact", _kernel(((1, "x"), (0, 1))),
     "kernel entries: 'x' is not a number"),
    ("kernel-nonnumber-float", _kernel(((1.0, "x"), (0.0, 1.0))),
     "kernel entries: 'x' is not a number"),
    ("kernel-nonnumber-mixed", _kernel(((1.0, "x"), (0, 1))),
     "kernel entries: 'x' is not a number"),
    ("kernel-range-exact", _kernel(((F(3, 2), 0), (-h, 1))),
     "kernel entries must lie in [0, 1]"),
    ("kernel-range-float", _kernel(((1.5, 0.0), (-0.5, 1.0))),
     "kernel entries must lie in [0, 1]"),
    ("kernel-range-mixed", _kernel(((1.5, 0), (-h, 1))),
     "kernel entries must lie in [0, 1]"),
    ("kernel-negative-exact", _kernel(((-q, h), (F(5, 4), h))),
     "kernel entries must lie in [0, 1]"),
    ("kernel-column-exact", _kernel(((1, h), (0, q))),
     "kernel column for fine signal 'b' sums to 3/4, expected 1"),
    ("kernel-column-float", _kernel(((1.0, 0.5), (0.0, 0.25))),
     "kernel column for fine signal 'b' sums to 0.75, expected 1"),
    ("kernel-column-mixed", _kernel(((1.0, h), (0, q))),
     "kernel column for fine signal 'b' sums to 3/4, expected 1"),
]


@pytest.mark.parametrize(
    "build, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_public_constructors_refuse_one_defect(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("form", sorted(OK))
def test_the_valid_base_cases_are_accepted(form):
    # every case above differs from one of these in a single place
    sig = SignalStructure(S3, ("a", "b"), OK[form], (0, 1))
    assert (sig.int_form is None) == (form != "exact")
    Dist(S3, (h, q, q) if form == "exact" else (0.5, q, 0.25))
    GarblingKernel(("x", "y"), ("a", "b"), ((1, h), (0, h)))


TINY = F(1, 10**12)  # far inside DIST_SUM_TOL


def test_mixed_structure_is_a_float_structure():
    # a float entry anywhere makes the whole structure a float one: its
    # exact rows are compared with DIST_SUM_TOL, as a mixed Dist's are
    S2 = SkillSpace((0, 1))
    off = (h, h + TINY)
    dist = Dist(S2, (h + TINY, 0.5))
    assert dist.int_form is None
    sig = SignalStructure(S2, ("a", "b"), (off, (0.5, 0.5)))
    assert sig.int_form is None
    assert sig.likelihood == (off, (0.5, 0.5))
    assert [type(v) for row in sig.likelihood for v in row] == [F, F, float, float]
    # and its float twin is the structure of the same doubles
    twin = sig.to_float()
    assert twin.likelihood == ((0.5, float(h + TINY)), (0.5, 0.5))
    # an exact structure keeps zero slack
    with pytest.raises(InputError, match="type index 0: entries sum to"):
        SignalStructure(S2, ("a", "b"), (off, (h, h)))


def test_mixed_structure_refuses_a_row_beyond_the_tolerance():
    S2 = SkillSpace((0, 1))
    far = h + 2 * F(DIST_SUM_TOL)
    with pytest.raises(InputError) as info:
        SignalStructure(S2, ("a", "b"), ((h, far), (0.5, 0.5)))
    assert str(info.value) == (
        "likelihood row for type index 0: "
        f"entries sum to {format_number(h + far)}, expected 1"
    )
    with pytest.raises(InputError) as info:
        SignalStructure(S2, ("a", "b"), ((0.5, 0.5), (far, h)))
    assert str(info.value) == (
        "likelihood row for type index 1: "
        f"entries sum to {format_number(far + h)}, expected 1"
    )
