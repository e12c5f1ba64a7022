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

Both come from one walk through the triangles, in two parts.  `_skeleton`
traces p(c) = a + c*d + eps*u for 0 < c < 1 (a a lattice point, d and u
integer vectors, eps infinitesimal).  It is free of kappa: the runs of the
sign string, alternating in sign from a plus run (empty when the string
starts with minus), as four counts each (triangles, h, d and v edges) in one
flat array('I'), in an LRU cache per segment (a, d, u, start, closing) for
ad-hoc queries; the verify grid holds its own label skeletons per depth.
`_weigh` weighs each run under kappa as t + kh*h + kd*d + kv*v; a run of
edges whose multiplicity is zero weighs 0 and vanishes, and its neighbours,
which share a sign, join.  `segment_sign_sequence` adds its two endpoint
signs to the first and last runs, or as runs of their own.

A point p lies right of the curve iff cross(d, p - a) - eps*(d x u) < 0, so
points on the line itself fall right iff d x u > 0.  If d x u = 0, a lattice
point on the line lies on the curve and the walk refuses it (AssertionError):
a d with gcd(d) > 1, or the start rule, with u = 0 or u parallel to d.

The walk holds the crossed edge's right and left ends R and L and the third
vertex P of the triangle behind it.  The two triangles on an edge have third
vertices summing to its ends, so the one ahead has C = R + L - P; it is a
plus triangle left across CL if C is right, else a minus one left across RC.
Each triangle has one edge of each kind, and the exit edge is parallel to
the edge of the triangle behind that does not touch it, so it has that
edge's kind; it is plus iff its midpoint is right.  cross(d, p - a) is
linear in p, so the walk keeps it for R, L and P, and no coordinates.  The
curve crosses each line strictly between a and a + d once, which fixes the
number of steps.  It starts across the far edge of the triangle around a
whose neighbours of a lie right then left, counter-clockwise.  Under the
start rule it comes from the triangle whose neighbours lie left then right
and also crosses the lines through a; that triangle is not signed.  The
triangle at a + d is signed only for a closing edge on it, minus iff its
corner shared with the last crossed edge is right.
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


_EMPTY_RUN = (0, 0, 0, 0)
# the neighbours of a lattice point, counter-clockwise, and the kind of the
# edge to each one as its slot from the end of a run: -3, -2, -1 for h, d, v
_RING = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
_RING_KIND = (-3, -1, -2, -3, -1, -2)


@functools.lru_cache(maxsize=1 << 8)
def _skeleton(a: Point, d: Point, u: Point, start: bool, closing: Edge | None) -> array:
    """Kappa-free runs of the sign string of p(c) = a + c*d + eps*u, four counts
    per run (triangles, h, d and v edges), alternating +, -, +, ... from a first
    run that is empty iff the string starts with -.  A closing edge adds only
    the triangle before it.  The cached array is shared: read it, never write."""
    (ax, ay), (dx, dy), (ux, uy) = a, d, u
    cross_du = dx * uy - dy * ux
    tie = int(cross_du > 0)  # w(p) = cross(d, p - a): p is right iff w(p) < tie
    crossings = sum(abs(q) - 1 + start for q in (dx, dy, dx + dy) if q)
    if not crossings:
        return array("I", _EMPTY_RUN)
    runs = list(_EMPTY_RUN)
    ring = [dx * y - dy * x for x, y in _RING]  # w at the neighbours of a
    assert cross_du or all(ring), "curve passes through a lattice point"
    side = [w < tie for w in ring]
    # the walk leaves the triangle around a ahead of a, or under the start
    # rule comes from the one behind it: its neighbours of a lie right then
    # left, or left then right, counter-clockwise (ring index i - 5 is i + 1)
    i = next(i for i in range(6) if side[i] != side[i - 5] == start)
    r, l = (i - 5, i) if start else (i, i - 5)
    # across its far edge, with a behind: w at R, L and P, kinds of RL, RP, PL
    wr, wl, wp = ring[r], ring[l], 0
    k, kr, kl = -6 - _RING_KIND[r] - _RING_KIND[l], _RING_KIND[r], _RING_KIND[l]
    if start:  # or across its edge from a, with R or L behind
        assert cross_du, "curve passes through a lattice point"
        if tie:  # a is right: across (a, L)
            wr, wp = 0, wr
            k, kr, kl = kl, kr, k
        else:  # across (R, a)
            wl, wp = 0, wl
            k, kr, kl = kr, k, kl
    plus = True
    while True:
        if (wr + wl < tie) is not plus:  # an edge is plus iff its midpoint is right
            runs += _EMPTY_RUN
            plus = not plus
        runs[k] += 1
        crossings -= 1
        if not crossings:
            break
        wc = wr + wl - wp  # at C, the third vertex ahead
        right = wc < tie
        if right:
            wr, wp = wc, wr
            k, kr, kl = kr, kl, k
        else:
            assert wc or cross_du, "curve passes through a lattice point"
            wl, wp = wc, wl
            k, kr, kl = kl, k, kr
        if right is not plus:
            runs += _EMPTY_RUN
            plus = not plus
        runs[-4] += 1
    if closing is not None:  # the triangle at a + d, minus iff its corner on closing is right
        vx, vy = closing[closing[0] == (ax + dx, ay + dy)]
        if (dx * (vy - ay) - dy * (vx - ax) < tie) is plus:
            runs += _EMPTY_RUN
        runs[-4] += 1
    return array("I", runs)


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

    # the runs alternate +, -, ... and only the first may be 0; [0] has no signs
    runs = _weigh(_skeleton(a, (dx, dy), u, False, None), params.kappa)
    first = 1 if runs[0] else -1
    last = 1 if runs[-1] and len(runs) % 2 else -1
    start = first if endpoints[0] == "merge" else int(endpoints[0])
    end = last if endpoints[1] == "merge" else int(endpoints[1])
    if not runs[-1]:
        return (2,) if start == end else (1, 1)
    # an endpoint sign joins the run next to it if they share a sign, else is a run of 1
    runs = runs if runs[0] else runs[1:]
    runs[0] += start == first
    runs[-1] += end == last
    return (1,) * (start != first) + tuple(runs) + (1,) * (end != last)


def gm_length(seq: Sequence[int]) -> int:
    """Matching count of the snake graph of a sign sequence (its continuant)."""
    return continuant(seq)


def gm_distance(a: Point, b: Point, params: GMParams) -> int:
    """Minimal length over lattice arcs joining a and b: 0 if equal, else the
    length of the (left-)perturbed straight segment."""
    if a == b:
        return 0
    return gm_length(segment_sign_sequence(a, b, params, "left"))
