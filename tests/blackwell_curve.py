"""Two-type Blackwell order read off likelihood-ratio curves: a test
oracle for ``find_garbling``.

Restricted to two types ``t`` and ``u``, a signal structure is a
dichotomy: signal ``j`` is the point ``(P(j | t), P(j | u))``.  Sorted
by falling ratio ``P(j | u) / P(j | t)`` and summed from ``(0, 0)``,
the points trace a concave curve to ``(1, 1)`` (the ROC or Lorenz
curve).  Coarse is a garbling of fine exactly when no vertex of
coarse's curve lies above fine's curve (Blackwell and Girshick 1954,
ch. 12; Torgersen 1991).  With more types, restricting both structures
to two of them keeps a garbling a garbling, so a type pair whose test
fails refutes the garbling; from three types on, passing every pair
does not prove one.

Every test is a cross-multiplied comparison of exact values, so the
oracle needs no LP and no tolerance.  Pytest does not collect this file
(its name does not start with ``test_``), as with ``joint_law.py``.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import combinations


def _curve(xs, ys):
    """Vertices of the curve of the dichotomy with columns ``(xs[j],
    ys[j])``, from ``(0, 0)``.  All-zero columns are dropped first: one
    would compare equal to every column, and the sort needs a total
    preorder."""
    cols = [(x, y) for x, y in zip(xs, ys) if x or y]
    # a before b when a's ratio y / x is the larger (x = 0 is infinite)
    cols.sort(key=cmp_to_key(lambda a, b: b[1] * a[0] - a[1] * b[0]))
    points = [(0, 0)]
    for x, y in cols:
        last_x, last_y = points[-1]
        points.append((last_x + x, last_y + y))
    return points


def curve_allows(fine, coarse, t: int = 0, u: int = 1) -> bool:
    """Does the curve test on types ``t`` and ``u`` let ``coarse`` be a
    garbling of ``fine``?  For two-type structures this is the garbling
    order itself.

    The curve is concave, so the region under it is the intersection of
    the half-planes below its edges: a coarse vertex ``(x, y)`` lies on
    or under it when it is on or right of every edge, taken from
    ``(0, 0)`` to ``(1, 1)``.
    """
    f, c = fine.likelihood, coarse.likelihood
    points, vertices = _curve(f[t], f[u]), _curve(c[t], c[u])
    return all(
        (x1 - x0) * (y - y0) <= (y1 - y0) * (x - x0)
        for (x0, y0), (x1, y1) in zip(points, points[1:])
        for x, y in vertices
    )


def refuting_pair(fine, coarse) -> tuple[int, int] | None:
    """The first type pair whose curve test refutes that ``coarse`` is a
    garbling of ``fine``, or None when every pair passes."""
    for t, u in combinations(range(fine.space.size), 2):
        if not curve_allows(fine, coarse, t, u):
            return t, u
    return None
