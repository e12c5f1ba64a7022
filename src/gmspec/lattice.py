"""Sign sequences from curves on the triangulated square lattice.

The lattice is the integer grid together with all slope -1 diagonals through
lattice points.  A directed curve crossing it picks up signs three ways:

* each crossed edge contributes k copies of a sign (k depends on the edge
  direction: horizontal, diagonal, or vertical, matched to the parameter
  positions sigma(1), sigma(2), sigma(3)), plus for the edge iff its midpoint
  lies strictly right of the curve, minus otherwise;
* each triangle cut between two consecutive edge crossings contributes minus
  iff the vertex shared by the entry and exit edges lies strictly right of
  the curve, plus otherwise;
* a triangle whose corner is a curve endpoint (opposite edge crossed)
  contributes one sign of either choice; the run-length count is unchanged,
  and by default it merges with the adjacent run.

Run-length encoding the sign string gives the admissible sequence of a
fraction label, and the length/distance of a lattice segment.

Both come from one crossing-event engine in two parts.  `_skeleton` traces
p(c) = a + c*d + eps*u for 0 < c < 1 (a a lattice point, d and u integer
vectors, eps infinitesimal) across the vertical, horizontal and antidiagonal
lines strictly between a and a + d, plus those through a under the start-line
rule.  It is free of kappa: the runs of the sign string, alternating in sign
from a plus run (empty when the string starts with minus), as four counts each
(triangles, h, d and v edges) in one flat array('I'), in an LRU cache per
segment (a, d, u, start, closing) for ad-hoc queries; the verify grid holds
its own label skeletons per depth.  `_weigh` weighs each run under kappa as
t + kh*h + kd*d + kv*v; a run of edges whose multiplicity is zero weighs 0 and
vanishes, and its neighbours, which share a sign, join.  Only
`segment_sign_sequence` still run-length encodes signs, to merge or pin its
two endpoint signs.

Crossings are keyed by c as an integer (zeroth order, first order in eps)
pair, and an integer coordinate of a crossing point is floored by the sign of
its first-order term.  Keys never tie, so the order is exact and free of
kappa: lines meet at one zeroth-order c only at a lattice point of a + c*d,
where their first-order terms -ux/dx, -uy/dy, -(ux + uy)/(dx + dy) coincide
only if d x u = 0, when the curve passes through the point (`_tie_down`
refuses that).  A point p lies right of the curve iff cross(d, p - a) -
eps*(d x u) < 0, so points on the line itself fall right iff d x u > 0.
"""

from __future__ import annotations

import functools
import math
from array import array
from typing import Literal, Sequence

from .farey import IrreducibleFraction
from .gmtree import GMParams
from .snake import continuant

__all__ = ["admissible_sequence", "segment_sign_sequence", "gm_length", "gm_distance"]

Point = tuple[int, int]
Edge = tuple[Point, Point]


def _shared_vertex(e1: Edge, e2: Edge) -> Point:
    p, q = e1
    if q in e2:
        p, q = q, p
    assert p in e2 and q not in e2, f"edges {e1}, {e2} do not bound one triangle"
    return p


def _rle(parts: Sequence[int]) -> tuple[int, ...]:
    """Run lengths of a sign string given as nonzero signed counts."""
    runs: list[int] = []
    for p in parts:
        if runs and runs[-1] * p > 0:
            runs[-1] += p
        else:
            runs.append(p)
    return tuple(map(abs, runs))


def _lines(p: int, q: int, start: bool) -> range:
    """Integer lines strictly between p and q, plus the line p when start."""
    if p <= q:
        return range(p + 1 - start, q)
    return range(q + 1, p + start)


def _tie_down(first_order: int) -> int:
    """Floor correction at an integer coordinate: 1 iff the curve passes just below."""
    assert first_order, "curve passes through a lattice point"
    return first_order < 0


_EMPTY_RUN = array("I", (0, 0, 0, 0))


@functools.lru_cache(maxsize=1 << 8)
def _skeleton(a: Point, d: Point, u: Point, start: bool, closing: Edge | None) -> array:
    """Kappa-free runs of the sign string of p(c) = a + c*d + eps*u, four counts
    per run (triangles, h, d and v edges), alternating +, -, +, ... from a first
    run that is empty iff the string starts with -.  A closing edge adds only
    the triangle before it.  The cached array is shared: read it, never write."""
    (ax, ay), (dx, dy), (ux, uy) = a, d, u
    s = dx + dy
    cross_du = dx * uy - dy * ux
    base = ay * dx - ax * dy  # cross(d, p - a) = dx*py - dy*px - base
    # a doubled point (px2, py2) is right of the curve iff dx*py2 - dy*px2 < lim
    lim = 2 * base + (cross_du > 0)
    scale = abs((dx or 1) * (dy or 1) * (s or 1))  # c * scale is an integer pair

    # the curve meets x = i at y = (base + i*dy)/dx + eps*cross_du/dx, and y = j
    # (x + y = m) at x = (n*dx - base)/q - eps*cross_du/q with n, q = j, dy (m, s);
    # c * scale steps by scale // dx (scale // q) per line, exactly; an event's
    # kind is its edge's slot in a run: 1, 2, 3 for h, d, v
    events: list[tuple[int, int, int, Edge]] = []
    step = scale // (dx or 1)
    c1 = -ux * step
    for i in _lines(ax, ax + dx, start):
        y, r = divmod(base + i * dy, dx)
        if not r:
            y -= _tie_down(cross_du * dx)
        events.append(((i - ax) * step, c1, 3, ((i, y), (i, y + 1))))
    for kind, q, lo, w in ((1, dy, ay, 0), (2, s, ax + ay, 1)):  # y = j, x + y = m
        step = scale // (q or 1)
        c1 = -(uy + w * ux) * step
        for n in _lines(lo, lo + q, start):
            x, r = divmod(n * dx - base, q)
            if not r:
                x -= _tie_down(-cross_du * q)
            y = n - w * x
            events.append(((n - lo) * step, c1, kind, ((x, y), (x + 1, y - w))))
    events.sort()
    if closing is not None:
        events.append((scale, 0, 0, closing))  # at c = 1; signs only the triangle before it
    runs = array("I", _EMPTY_RUN)
    plus = True  # the sign of the last run
    k0 = k1 = prev = None
    for c0, c1, kind, edge in events:
        if prev is not None:
            assert c0 != k0 or c1 != k1, "two crossings share a key"
            vx, vy = _shared_vertex(prev, edge)
            if (2 * (dx * vy - dy * vx) < lim) is plus:  # minus iff the vertex is right
                runs += _EMPTY_RUN
                plus = not plus
            runs[-4] += 1
        if kind:
            (px, py), (qx, qy) = edge
            if (dx * (py + qy) - dy * (px + qx) < lim) is not plus:  # plus iff right
                runs += _EMPTY_RUN
                plus = not plus
            runs[kind - 4] += 1
        k0, k1, prev = c0, c1, edge
    return runs


def _weigh(skeleton: array, kappa: tuple[int, int, int]) -> list[int]:
    """Run lengths of a skeleton's sign string under the (h, d, v) edge
    multiplicity kappa, signed as the skeleton's: +, -, +, ... from a first
    run that is 0 iff the string starts with - (or is empty).  A later run
    left empty by zero multiplicities is dropped and its neighbours join."""
    kh, kd, kv = kappa
    it = iter(skeleton)
    runs = [t + kh * h + kd * dg + kv * v for t, h, dg, v in zip(it, it, it, it)]
    if 0 not in runs[1:]:
        return runs
    joined = runs[:1]  # signed by index parity too
    for i, n in enumerate(runs[1:], 1):  # runs[i] has joined[-1]'s sign iff len - i is odd
        if n and (len(joined) - i) % 2:
            joined[-1] += n
        elif n:
            joined.append(n)
    return joined


def _label_skeleton(t: IrreducibleFraction) -> array:
    """The skeleton of an interior label num/den: the segment (0,0) -> (den,
    num) displaced by (-delta, 0), its start signed, its end edge closing."""
    a, b = t.num, t.den
    return _skeleton((0, 0), (b, a), (-1, 0), True, ((b - 1, a), (b, a)))


def _label_sequence(skeleton: array, kappa: tuple[int, int, int]) -> tuple[int, ...]:
    """The admissible sequence of a label from its skeleton under kappa."""
    runs = _weigh(skeleton, kappa)
    return tuple(runs if runs[0] else runs[1:])


def admissible_sequence(t: IrreducibleFraction, params: GMParams) -> tuple[int, ...]:
    """Sign sequence of the leftward-shifted segment (0,0) -> (den, num).

    The segment is displaced horizontally by an infinitesimal (-delta, 0), so
    its start has already passed through the bottom edge (that edge is
    signed) while its end stays inside the top edge (left unsigned).  For the
    boundary labels the defining pairs are returned directly:
    s(0/1) = (1 + k_sigma(2) + k_sigma(3), 1) and
    s(1/0) = (1 + k_sigma(1) + k_sigma(2), 1).
    """
    kap = params.kappa
    if t.is_zero:
        return (1 + kap[1] + kap[2], 1)
    if t.is_infinity:
        return (1 + kap[0] + kap[1], 1)
    return _label_sequence(_label_skeleton(t), kap)


_UNIT_STEPS = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}


def segment_sign_sequence(
    a: Point,
    b: Point,
    params: GMParams,
    side: Literal["left", "right"] = "left",
    endpoints: tuple[int | str, int | str] = ("merge", "merge"),
) -> tuple[int, ...]:
    """Sign sequence of the (possibly perturbed) segment from a to b.

    When the displacement components are coprime the straight segment is
    traced; edge midpoints lying exactly on it count as not strictly right.
    Otherwise the interior is displaced infinitesimally to the given side.
    Both endpoint-rule signs default to merging with their adjacent run;
    passing +1 or -1 pins them instead.  Unit grid steps (including the
    antidiagonal ones) cross nothing and give the empty sequence.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not all(e == "merge" or e in (1, -1) for e in endpoints):
        raise ValueError(f"endpoint signs must be 'merge', +1, or -1, got {endpoints!r}")
    if a == b:
        raise ValueError("endpoints must differ")
    dx, dy = b[0] - a[0], b[1] - a[1]
    if (dx, dy) in _UNIT_STEPS:
        return ()
    if math.gcd(dx, dy) == 1:
        u = (0, 0)
    elif side == "left":
        u = (-dy, dx)
    else:
        u = (dy, -dx)

    runs = _weigh(_skeleton(a, (dx, dy), u, False, None), params.kappa)
    parts = [-n if i % 2 else n for i, n in enumerate(runs) if n]
    first = 1 if parts and parts[0] > 0 else -1
    last = (1 if parts[-1] > 0 else -1) if parts else first
    start = first if endpoints[0] == "merge" else int(endpoints[0])
    end = last if endpoints[1] == "merge" else int(endpoints[1])
    return _rle([start, *parts, end])


def gm_length(seq: Sequence[int]) -> int:
    """Matching count of the snake graph of a sign sequence (its continuant)."""
    return continuant(seq)


def gm_distance(a: Point, b: Point, params: GMParams) -> int:
    """Minimal length over lattice arcs joining a and b: 0 if equal, else the
    length of the (left-)perturbed straight segment."""
    if a == b:
        return 0
    return gm_length(segment_sign_sequence(a, b, params, "left"))
