"""Reference snake-graph builder and matcher that gmspec.snake's are checked
against.

The builder reads each join's turn from the full sign word, walks each
tile's four corners cyclically, orders every edge's two endpoints with
min/max and sorts the vertex and edge sets; the fast builder turns by join
runs and emits both in sorted order from one sweep over the tile columns.
The matcher pairs the least uncovered vertex with any uncovered neighbour,
earlier or later; the fast matcher keeps only the later ones.  Only the
SnakeGraph type and the tile bound come from gmspec.snake.
"""

from __future__ import annotations

from typing import Sequence

from gmspec.snake import BRUTE_FORCE_TILE_BOUND, SnakeGraph

Point = tuple[int, int]


def _check_entries(entries: Sequence[int]) -> tuple[int, ...]:
    seq = tuple(entries)
    for x in seq:
        if x < 1:
            raise ValueError(f"sequence entries must be >= 1, got {x}")
    return seq


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
        corners = ((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1))
        vset.update(corners)
        for u, v in zip(corners, corners[1:] + corners[:1]):
            eset.add((min(u, v), max(u, v)))
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
