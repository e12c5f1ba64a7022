"""The division form of the Vieta step that gmspec.gmtree is checked against.

* `child` is the former `gmtree._child`: the new value is the product of the
  two roots, a^2 + k*a*b + b^2 with k the coefficient of the other two slots,
  divided by the replaced value, and a remainder raises.  The paper states
  that every such division is exact.
* `walk_tree` is `gmtree._walk_tree` on that step.
* `node` is the raw vertex `gm_node` descends to, on that step.
"""

from __future__ import annotations

from gmspec.farey import IrreducibleFraction, farey_path
from gmspec.gmtree import GMParams, _RawVertex, _root


def child(node: _RawVertex, k: tuple[int, int, int], direction: str) -> _RawVertex:
    a, h, b, i, c, j = node
    if direction == "L":
        num, den = a * a + k[j - 1] * a * b + b * b, c
        val, rem = divmod(num, den)
        out = (a, h, val, j, b, i)
    else:
        num, den = b * b + k[h - 1] * b * c + c * c, a
        val, rem = divmod(num, den)
        out = (b, i, val, h, c, j)
    if rem:
        raise AssertionError(f"inexact division {num}/{den} in tree recursion")
    return out


def walk_tree(params: GMParams, depth: int) -> list[tuple[int, int, int, int, _RawVertex]]:
    k = (params.k1, params.k2, params.k3)
    level = [(0, 1, 1, 0, _root(params))]
    out = list(level)
    for _ in range(depth):
        level = [
            entry
            for ln, ld, rn, rd, vertex in level
            for entry in (
                (ln, ld, ln + rn, ld + rd, child(vertex, k, "L")),
                (ln + rn, ld + rd, rn, rd, child(vertex, k, "R")),
            )
        ]
        out += level
    return out


def node(t: IrreducibleFraction, params: GMParams) -> _RawVertex:
    k = (params.k1, params.k2, params.k3)
    vertex = _root(params)
    if not t.is_boundary:
        for step in farey_path(t):
            vertex = child(vertex, k, step)
    return vertex
