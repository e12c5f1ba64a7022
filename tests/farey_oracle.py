"""Reference routines that gmspec.farey and gmspec.lattice are checked
against.

* `farey_locate` reaches the vertex with middle entry t by applying
  `FareyTriple.child` along `farey_path(t)` from the root, so the path read
  off the continued-fraction digits is checked against the mediant descent.
* `farey_grid_fractions` lists the interior labels level by level with
  `FareyTriple.child`, the adjacency-checked mediant walk that the integer
  walk behind `gmspec.verify.grid_fractions` is checked against.
* `christoffel_word` spells the lattice path under the segment
  (0,0) -> (den, num) over {p, q, r} from its grid-line crossings.  Under
  the substitution q -> (2,2), r -> (1,1) it gives the admissible sequence
  at (0,0,0) for labels t >= 1, without the sign rules of gmspec.lattice.
"""

from __future__ import annotations

from gmspec.farey import FareyTriple, IrreducibleFraction, farey_path

# the root vertex (0/1, 1/1, 1/0) of the Farey tree
FAREY_ROOT = FareyTriple(
    IrreducibleFraction(0, 1), IrreducibleFraction(1, 1), IrreducibleFraction(1, 0)
)


def farey_locate(t: IrreducibleFraction) -> tuple[tuple[str, ...], FareyTriple]:
    """Path and tree vertex whose middle entry is t, for t in (0, oo)."""
    path = farey_path(t)
    node = FAREY_ROOT
    for step in path:
        node = node.child(step)
    assert node.mid == t
    return path, node


def farey_grid_fractions(depth: int) -> list[IrreducibleFraction]:
    """All interior tree labels with depth <= depth (2^(depth+1) - 1 of them)."""
    out: list[IrreducibleFraction] = []
    level: list[FareyTriple] = [FAREY_ROOT]
    for d in range(depth + 1):
        out.extend(tr.mid for tr in level)
        if d < depth:
            level = [tr.child(s) for tr in level for s in ("L", "R")]
    return out


def christoffel_word(t: IrreducibleFraction) -> str:
    """Lattice-path word over {p, q, r} for the segment (0,0) -> (den, num).

    At each grid-line crossing the lattice point immediately to the right of
    the crossing is recorded; joining consecutive recorded points gives unit
    steps of slope 0 (letter p), 1 (letter q) or infinity (letter r).
    """
    a, b = t.num, t.den
    if a == 0:
        return "p"
    if b == 0:
        return "r"
    points: list[tuple[int, int]] = [(0, 0)]
    crossings: list[tuple[int, int, tuple[int, int]]] = []
    for i in range(1, b):
        # vertical line x=i, point below the crossing; key = position * a*b
        crossings.append((i * a, 0, (i, a * i // b)))
    for j in range(1, a):
        # horizontal line y=j, point right of the crossing
        crossings.append((j * b, 1, (-(-b * j // a), j)))
    crossings.sort()
    for _, _, pt in crossings:
        if pt != points[-1]:
            points.append(pt)
    if points[-1] != (b, a):
        points.append((b, a))
    letters = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        dx, dy = x1 - x0, y1 - y0
        if dy == 0:
            letters.append("p" * dx)
        elif dx == 0:
            letters.append("r" * dy)
        else:
            assert dx == dy, f"non-unit step {(dx, dy)} in Christoffel path"
            letters.append("q" * dx)
    return "".join(letters)
