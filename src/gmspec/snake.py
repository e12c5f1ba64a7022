"""Snake graphs, matching counts, and the continuant recurrence.

A positive integer sequence (a_1, ..., a_n) determines a snake graph whose
perfect-matching count equals the continuant of the sequence; the brute-force
matcher is the independent oracle for that identity.  The graph is fixed by
the entry sum and the join runs (a_1 - 1, a_2, ..., a_{n-1}, a_n - 1), zeros
dropped: the builder walks the runs, then sweeps the tile path's columns once
and emits vertices and edges in sorted order; the matcher backtracks over
each least uncovered vertex's later neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "continuant",
    "SnakeGraph",
    "build_snake_graph",
    "count_matchings_bruteforce",
    "rotation_tails",
    "BRUTE_FORCE_TILE_BOUND",
]

BRUTE_FORCE_TILE_BOUND = 16


def _check_entries(entries: Sequence[int]) -> tuple[int, ...]:
    seq = tuple(entries)
    for x in seq:
        if x < 1:
            raise ValueError(f"sequence entries must be >= 1, got {x}")
    return seq


def continuant(entries: Sequence[int]) -> int:
    """m(G[a_1..a_n]) by the recurrence m_i = a_i*m_{i-1} + m_{i-2}, m_0 = 1."""
    seq = _check_entries(entries)
    prev, cur = 0, 1
    for a in seq:
        prev, cur = cur, a * cur + prev
    return cur


Point = tuple[int, int]


@dataclass(frozen=True)
class SnakeGraph:
    """Tiles in placement order plus the derived vertex and edge sets."""

    tiles: tuple[Point, ...]
    vertices: tuple[Point, ...]
    edges: tuple[tuple[Point, Point], ...]


def _join_runs(seq: Sequence[int]) -> tuple[int, ...]:
    """The sign word (a_1 minuses, a_2 pluses, ...) less its first and last
    signs, as run lengths: (a_1 - 1, a_2, ..., a_{n-1}, a_n - 1), or
    (a_1 - 2) for n = 1, with non-positive runs dropped.  With the entry sum,
    needed only to tell apart sums 0, 1 and 2, they fix the snake graph."""
    if len(seq) <= 1:
        runs = [a - 2 for a in seq]
    else:
        runs = [seq[0] - 1, *seq[1:-1], seq[-1] - 1]
    return tuple(r for r in runs if r > 0)


def build_snake_graph(entries: Sequence[int]) -> SnakeGraph:
    """The snake graph of a positive integer sequence.

    Each join between consecutive tiles belongs to one of the join runs
    (`_join_runs`).  The first join goes right, the first join of each later
    run goes straight on, and every other join turns.  The empty sequence
    gives the empty graph, (1) a single edge and (2) a single tile.

    The tiles form a right/up path, so tile column x covers a run of rows
    lo[x]..hi[x], with lo[x] = hi[x - 1].  Vertex column x then runs from
    lo[x - 1] to hi[x] + 1 (the first column from 0, the one right of the
    last tile column up to that column's top) with a vertical edge between
    consecutive vertices, and a horizontal edge leaves (x, y) exactly when
    x is a tile column and lo[x] <= y <= hi[x] + 1.  One sweep over the
    vertex columns emits the vertices and edges already sorted.
    """
    seq = _check_entries(entries)
    total = sum(seq)
    if total == 0:
        return SnakeGraph((), (), ())
    if total == 1:
        vs = ((0, 0), (1, 0))
        return SnakeGraph((), vs, ((vs[0], vs[1]),))
    tiles: list[Point] = [(0, 0)]
    lo, hi = [0], [0]
    x = y = 0
    right = True
    for run in _join_runs(seq):
        for step in range(run):
            if step:
                right = not right
            if right:
                x += 1
                lo.append(y)
                hi.append(y)
            else:
                y += 1
                hi[-1] = y
            tiles.append((x, y))
    vertices: list[Point] = []
    edges: list[tuple[Point, Point]] = []
    for vx in range(x + 2):
        bottom = lo[vx - 1] if vx else 0
        top = hi[min(vx, x)] + 1
        h_lo = lo[vx] if vx <= x else top + 1  # no horizontal edge leaves the last column
        for vy in range(bottom, top + 1):
            v = (vx, vy)
            vertices.append(v)
            if vy < top:
                edges.append((v, (vx, vy + 1)))
            if vy >= h_lo:
                edges.append((v, (vx + 1, vy)))
    return SnakeGraph(tuple(tiles), tuple(vertices), tuple(edges))


def count_matchings_bruteforce(graph: SnakeGraph) -> int:
    """Exhaustive perfect-matching count by backtracking over edges.

    Each step pairs the least uncovered vertex; every vertex before it is
    covered, so only its later neighbours can take it, and its adjacency
    list holds only those.  Each leaf of the search is one matching.
    """
    if len(graph.tiles) > BRUTE_FORCE_TILE_BOUND:
        raise ValueError(
            f"graph has {len(graph.tiles)} tiles, brute-force bound is {BRUTE_FORCE_TILE_BOUND}"
        )
    if not graph.vertices:
        return 1
    index = {v: i for i, v in enumerate(graph.vertices)}
    later: list[list[int]] = [[] for _ in graph.vertices]
    for u, v in graph.edges:
        i, j = sorted((index[u], index[v]))
        later[i].append(j)
    n = len(graph.vertices)
    covered = [False] * n

    def count_from(start: int) -> int:
        i = start
        while i < n and covered[i]:
            i += 1
        if i == n:
            return 1
        total = 0
        for j in later[i]:
            if not covered[j]:
                covered[j] = True
                total += count_from(i + 1)
                covered[j] = False
        return total

    return count_from(0)


def rotation_tails(entries: Sequence[int]) -> list[tuple[int, ...]]:
    """Drop the first element of each cyclic rotation, starting from the
    sequence itself: tails[i] = (a_{i+2}, ..., a_{i+n}) with indices mod n."""
    seq = _check_entries(entries)
    n = len(seq)
    if n == 0:
        raise ValueError("sequence must be nonempty")
    doubled = seq + seq
    return [doubled[i + 1 : i + n] for i in range(n)]
