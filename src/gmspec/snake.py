"""Snake graphs, matching counts, and the continuant recurrence.

A positive integer sequence (a_1, ..., a_n) determines a snake graph whose
perfect-matching count equals the continuant of the sequence; the brute-force
matcher is the independent oracle for that identity.
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


def _sign_word(seq: Sequence[int]) -> list[int]:
    word: list[int] = []
    sgn = -1
    for a in seq:
        word.extend([sgn] * a)
        sgn = -sgn
    return word


def build_snake_graph(entries: Sequence[int]) -> SnakeGraph:
    """The snake graph of a positive integer sequence.

    The full alternating sign word (a_1 minuses, a_2 pluses, ...) loses its
    first and last signs; the survivors label the joins between consecutive
    tiles.  Equal adjacent join signs force a turn, unequal signs continue
    straight; the first join goes right.  The empty sequence gives the empty
    graph and (1) gives a single edge.
    """
    seq = _check_entries(entries)
    total = sum(seq)
    if total == 0:
        return SnakeGraph((), (), ())
    if total == 1:
        vs = ((0, 0), (1, 0))
        return SnakeGraph((), vs, ((vs[0], vs[1]),))
    joins = _sign_word(seq)[1:-1]
    tiles: list[Point] = [(0, 0)]
    direction = "R"
    for i in range(len(joins)):
        if i > 0:
            if joins[i] == joins[i - 1]:
                direction = "U" if direction == "R" else "R"
        x, y = tiles[-1]
        tiles.append((x + 1, y) if direction == "R" else (x, y + 1))
    vset: set[Point] = set()
    eset: set[tuple[Point, Point]] = set()
    for x, y in tiles:
        sw, se, ne, nw = (x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)
        vset.update((sw, se, ne, nw))
        eset.update(((sw, se), (se, ne), (nw, ne), (sw, nw)))  # each pair already sorted
    return SnakeGraph(tuple(tiles), tuple(sorted(vset)), tuple(sorted(eset)))


def count_matchings_bruteforce(graph: SnakeGraph) -> int:
    """Exhaustive perfect-matching count by backtracking over edges."""
    if len(graph.tiles) > BRUTE_FORCE_TILE_BOUND:
        raise ValueError(
            f"graph has {len(graph.tiles)} tiles, brute-force bound is {BRUTE_FORCE_TILE_BOUND}"
        )
    if not graph.vertices:
        return 1
    index = {v: i for i, v in enumerate(graph.vertices)}
    adj: list[list[int]] = [[] for _ in graph.vertices]
    for u, v in graph.edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    n = len(graph.vertices)
    covered = [False] * n

    def count_from(start: int) -> int:
        i = start
        while i < n and covered[i]:
            i += 1
        if i == n:
            return 1
        covered[i] = True
        total = 0
        for j in adj[i]:
            if not covered[j]:
                covered[j] = True
                total += count_from(i + 1)
                covered[j] = False
        covered[i] = False
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
