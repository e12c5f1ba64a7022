"""Reference sign-sequence walks that the fast paths in gmspec.lattice are
checked against.

Each walk keys its crossing events by exact `Fraction`s, sorts them and has
its own side test; neither uses the triangle walk of gmspec.lattice.

* `admissible_sequence_with_delta` shifts the segment (0,0) -> (den, num) by
  a concrete rational delta instead of an infinitesimal.
* `segment_signs` keys each crossing of a + c*d + eps*u by a (zeroth order,
  first order) pair of `Fraction`s and floors it with `_dual_floor`, with or
  without the start rule; `segment_sign_sequence` adds the endpoint signs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal, Sequence

from gmspec.farey import IrreducibleFraction
from gmspec.gmtree import GMParams
from gmspec.lattice import admissible_sequence

Point = tuple[int, int]
_KINDS = "hdv"  # horizontal, diagonal, vertical


def _rle(signs: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    prev = 0
    for s in signs:
        if s == prev:
            out[-1] += 1
        else:
            out.append(1)
            prev = s
    return tuple(out)


def _shared_vertex(e1: tuple[Point, Point], e2: tuple[Point, Point]) -> Point:
    common = set(e1) & set(e2)
    assert len(common) == 1, f"edges {e1}, {e2} do not bound one triangle"
    return common.pop()


def admissible_sequence_with_delta(
    t: IrreducibleFraction, params: GMParams, delta: Fraction | None = None
) -> tuple[int, ...]:
    """Reference construction with a concrete rational shift.

    Same geometry as admissible_sequence but with an explicit delta instead
    of a symbolic infinitesimal; any delta in (0, 1/(4*(num+den)**2)] yields
    the identical sign string.  Used to cross-validate the fast path.
    """
    kap = params.kappa
    if t.is_boundary:
        return admissible_sequence(t, params)
    a, b = t.num, t.den
    if delta is None:
        delta = Fraction(1, 4 * (a + b) ** 2)
    if not 0 < delta <= Fraction(1, 4 * (a + b) ** 2):
        raise ValueError("delta too large for a faithful shift")
    events: list[tuple[Fraction, str, tuple[Point, Point], Point]] = []
    for i in range(b):
        y = Fraction(a * (i + delta), b)
        y0 = y.numerator // y.denominator
        events.append((Fraction(i), "v", ((i, y0), (i, y0 + 1)), (2 * i, 2 * y0 + 1)))
    for j in range(a):
        x = Fraction(b * j, a) - delta
        xf = x.numerator // x.denominator
        events.append((x, "h", ((xf, j), (xf + 1, j)), (2 * xf + 1, 2 * j)))
    for m in range(a + b):
        x = Fraction(b * m - a * delta, a + b)
        c = x.numerator // x.denominator
        events.append(
            (x, "d", ((c, m - c), (c + 1, m - c - 1)), (2 * c + 1, 2 * (m - c) - 1))
        )
    events.sort(key=lambda e: e[0])

    def right_of(px2: int, py2: int) -> bool:
        return b * py2 - a * px2 - 2 * a * delta < 0

    mult = dict(zip(_KINDS, kap))
    terminal_edge: tuple[Point, Point] = ((b - 1, a), (b, a))
    signs: list[int] = []
    for idx, (_, kind, edge, mid2) in enumerate(events):
        signs.extend([1 if right_of(*mid2) else -1] * mult[kind])
        nxt = events[idx + 1][2] if idx + 1 < len(events) else terminal_edge
        vx, vy = _shared_vertex(edge, nxt)
        signs.append(-1 if right_of(2 * vx, 2 * vy) else 1)
    return _rle(signs)


_UNIT_STEPS = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}


def _dual_floor(c0: Fraction, c1: Fraction) -> int:
    if c0.denominator != 1:
        return c0.numerator // c0.denominator
    if c1 > 0:
        return int(c0)
    if c1 < 0:
        return int(c0) - 1
    raise AssertionError("curve passes through a lattice point")


def segment_signs(
    a: Point, d: Point, u: Point, params: GMParams, start: bool = False
) -> list[int]:
    """Signs, +1 or -1, of the curve a + c*d + eps*u, 0 < c < 1, across the
    lines strictly between a and a + d, and under the start rule also across
    the lines through a; the triangles at the two ends are not signed."""
    dx, dy = d
    ux, uy = u
    events: list[tuple[tuple[Fraction, Fraction], str, tuple[Point, Point], Point]] = []

    def crossed(p: int, q: int) -> list[int]:
        return [m for m in range(min(p, q), max(p, q) + 1) if m != q and (m != p or start)]

    for i in crossed(a[0], a[0] + dx):
        c0 = Fraction(i - a[0], dx)
        c1 = Fraction(-ux, dx)
        yf = _dual_floor(a[1] + c0 * dy, c1 * dy + uy)
        events.append(((c0, c1), "v", ((i, yf), (i, yf + 1)), (2 * i, 2 * yf + 1)))
    for j in crossed(a[1], a[1] + dy):
        c0 = Fraction(j - a[1], dy)
        c1 = Fraction(-uy, dy)
        xf = _dual_floor(a[0] + c0 * dx, c1 * dx + ux)
        events.append(((c0, c1), "h", ((xf, j), (xf + 1, j)), (2 * xf + 1, 2 * j)))
    for m in crossed(a[0] + a[1], a[0] + a[1] + dx + dy):
        s = dx + dy
        c0 = Fraction(m - a[0] - a[1], s)
        c1 = Fraction(-(ux + uy), s)
        xf = _dual_floor(a[0] + c0 * dx, c1 * dx + ux)
        events.append(
            (
                (c0, c1),
                "d",
                ((xf, m - xf), (xf + 1, m - xf - 1)),
                (2 * xf + 1, 2 * (m - xf) - 1),
            )
        )
    events.sort(key=lambda e: e[0])

    # side value is cross(d, p - a) - eps*bias; bias > 0 sends ties right
    bias = dx * uy - dy * ux

    def right_of(px2: int, py2: int) -> bool:
        cross0 = dx * (py2 - 2 * a[1]) - dy * (px2 - 2 * a[0])
        return cross0 < 0 or (cross0 == 0 and bias > 0)

    mult = dict(zip(_KINDS, params.kappa))
    parts: list[int] = []
    for idx, (_, kind, edge, mid2) in enumerate(events):
        parts.extend([1 if right_of(*mid2) else -1] * mult[kind])
        if idx + 1 < len(events):
            vx, vy = _shared_vertex(edge, events[idx + 1][2])
            parts.append(-1 if right_of(2 * vx, 2 * vy) else 1)
    return parts


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
    if a == b:
        raise ValueError("endpoints must differ")
    dx, dy = b[0] - a[0], b[1] - a[1]
    if (dx, dy) in _UNIT_STEPS:
        return ()
    if math.gcd(dx, dy) == 1:
        u = (0, 0)
    elif side == "left":
        u = (-dy, dx)
    elif side == "right":
        u = (dy, -dx)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    parts = segment_signs(a, (dx, dy), u, params)
    first = parts[0] if parts else -1
    last = parts[-1] if parts else first
    start = first if endpoints[0] == "merge" else int(endpoints[0])
    end = last if endpoints[1] == "merge" else int(endpoints[1])
    if abs(start) != 1 or abs(end) != 1:
        raise ValueError("endpoint signs must be 'merge', +1, or -1")
    return _rle([start, *parts, end])
