"""Generalized Markov equation, its solution trees, and characteristic numbers.

A parameter set is a triple (k1, k2, k3) of nonnegative integers together
with a permutation sigma of {1, 2, 3}.  Tree vertices carry number-position
pairs; the three values of a vertex, placed at their positions, solve the
generalized equation.  Each step takes the other root in one slot by Vieta's
sum, with no division, and `gmspec verify` certifies the equation on its grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .farey import IrreducibleFraction, _echo, _frozen_slots, farey_path

__all__ = [
    "Sigma",
    "IDENTITY",
    "ALL_SIGMAS",
    "ALTERNATING",
    "parse_sigma",
    "format_sigma",
    "GMParams",
    "GMPair",
    "GMNode",
    "gm_check",
    "gm_node",
    "gm_pair",
    "characteristic_number",
    "enumerate_tree",
]

# a permutation of {1,2,3} stored as (sigma(1), sigma(2), sigma(3))
Sigma = tuple[int, int, int]

IDENTITY: Sigma = (1, 2, 3)
ALL_SIGMAS: tuple[Sigma, ...] = (
    (1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (3, 2, 1), (1, 3, 2),
)
# the even permutations; spectra are unchanged when sigma ranges over these only
ALTERNATING: tuple[Sigma, ...] = ((1, 2, 3), (2, 3, 1), (3, 1, 2))

_CYCLE_NAMES: dict[str, Sigma] = {
    "id": (1, 2, 3),
    "(1 2)": (2, 1, 3),
    "(1 3)": (3, 2, 1),
    "(2 3)": (1, 3, 2),
    "(1 2 3)": (2, 3, 1),
    "(1 3 2)": (3, 1, 2),
}


def parse_sigma(text: str) -> Sigma:
    """Parse cycle notation: id, (1 2), (1 3), (2 3), (1 2 3), (1 3 2)."""
    key = " ".join(text.strip().split())
    if key in _CYCLE_NAMES:
        return _CYCLE_NAMES[key]
    raise ValueError(f"unknown permutation {_echo(text)}")


_SIGMA_NAMES: dict[Sigma, str] = {s: name for name, s in _CYCLE_NAMES.items()}


def format_sigma(sigma: Sigma) -> str:
    try:
        return _SIGMA_NAMES[sigma]
    except (KeyError, TypeError):  # TypeError: an unhashable sigma
        raise ValueError(f"not a permutation of (1,2,3): {sigma}") from None


@dataclass(frozen=True)
class GMParams:
    """Equation coefficients (k1, k2, k3) plus a permutation of {1, 2, 3}."""

    k1: int
    k2: int
    k3: int
    sigma: Sigma = IDENTITY

    def __post_init__(self) -> None:
        if min(self.k1, self.k2, self.k3) < 0:
            raise ValueError("coefficients must be nonnegative")
        if sorted(self.sigma) != [1, 2, 3]:
            raise ValueError(f"sigma must permute (1,2,3), got {self.sigma}")

    @property
    def coeff_sum(self) -> int:
        """3 + k1 + k2 + k3, the multiplier of xyz in the equation."""
        return 3 + self.k1 + self.k2 + self.k3

    def k_at(self, pos: int) -> int:
        return (self.k1, self.k2, self.k3)[pos - 1]

    @property
    def kappa(self) -> tuple[int, int, int]:
        """(k_sigma(1), k_sigma(2), k_sigma(3)): coefficients seen from the root."""
        return (self.k_at(self.sigma[0]), self.k_at(self.sigma[1]), self.k_at(self.sigma[2]))

    def __str__(self) -> str:
        return f"k=({self.k1},{self.k2},{self.k3}) sigma={format_sigma(self.sigma)}"


@_frozen_slots
class GMPair:
    value: int
    pos: int


@dataclass(frozen=True)
class GMNode:
    left: GMPair
    mid: GMPair
    right: GMPair

    def triple_at_positions(self) -> tuple[int, int, int]:
        """The three values arranged into equation slots 1, 2, 3."""
        slot = [0, 0, 0]
        for pair in (self.left, self.mid, self.right):
            slot[pair.pos - 1] = pair.value
        return tuple(slot)  # type: ignore[return-value]

    def __str__(self) -> str:
        return "({},{},{})".format(
            *(f"({p.value},{p.pos})" for p in (self.left, self.mid, self.right))
        )


def gm_check(x: int, y: int, z: int, k: tuple[int, int, int]) -> bool:
    """Exact test of x^2+y^2+z^2+k1*yz+k2*zx+k3*xy = (3+k1+k2+k3)xyz."""
    k1, k2, k3 = k
    lhs = x * x + y * y + z * z + k1 * y * z + k2 * z * x + k3 * x * y
    return lhs == (3 + k1 + k2 + k3) * x * y * z


# A raw vertex (a, h, b, i, c, j): the (value, pos) pairs left, mid, right.
_RawVertex = tuple[int, int, int, int, int, int]


def _root(params: GMParams) -> _RawVertex:
    s = params.sigma
    return 1, s[0], params.k_at(s[1]) + 2, s[1], 1, s[2]


def _child(node: _RawVertex, k: tuple[int, int, int], K: int, direction: str) -> _RawVertex:
    """One Vieta step: the new middle value replaces the right ("L") or the
    left ("R") entry, and the old middle moves to its place.  The two are the
    roots in that slot; with x at position p and y at q the other two, their
    sum is K*x*y - k_p*y - k_q*x, so the new value needs no division."""
    a, h, b, i, c, j = node
    if direction == "L":
        return a, h, K * a * b - k[h - 1] * b - k[i - 1] * a - c, j, b, i
    return b, i, K * b * c - k[j - 1] * b - k[i - 1] * c - a, h, c, j


def _as_node(node: _RawVertex) -> GMNode:
    a, h, b, i, c, j = node
    return GMNode(GMPair(a, h), GMPair(b, i), GMPair(c, j))


def _walk_tree(params: GMParams, depth: int) -> list[tuple[int, int, int, int, _RawVertex]]:
    """All vertices with tree depth <= depth, breadth-first, left before right,
    on plain integers.

    Each entry is (ln, ld, rn, rd, vertex): the vertex's Farey triple is
    (ln/ld, (ln+rn)/(ld+rd), rn/rd), so its middle label is the mediant of
    the two outer ones.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    k, K = (params.k1, params.k2, params.k3), params.coeff_sum
    level = [(0, 1, 1, 0, _root(params))]
    out = list(level)
    for _ in range(depth):
        level = [
            child
            for ln, ld, rn, rd, node in level
            for child in (
                (ln, ld, ln + rn, ld + rd, _child(node, k, K, "L")),
                (ln + rn, ld + rd, rn, rd, _child(node, k, K, "R")),
            )
        ]
        out += level
    return out


@lru_cache(maxsize=1 << 14)
def gm_node(t: IrreducibleFraction, params: GMParams) -> GMNode:
    """Tree vertex whose middle pair is labeled by t.

    For the boundary labels 0/1 and 1/0 the root vertex is returned; their
    pairs of interest are its left and right entries.
    """
    node = _root(params)
    if not t.is_boundary:
        k, K = (params.k1, params.k2, params.k3), params.coeff_sum
        for step in farey_path(t):
            node = _child(node, k, K, step)
    return _as_node(node)


def gm_pair(t: IrreducibleFraction, params: GMParams) -> GMPair:
    """Number-position pair (n_t, i_t) for any t in [0, oo]."""
    node = gm_node(t, params)
    if t.is_zero:
        return node.left
    if t.is_infinity:
        return node.right
    return node.mid


def characteristic_number(t: IrreducibleFraction, params: GMParams) -> int:
    """The residue u_t with n_left * u_t = n_right (mod n_t), 0 < u_t < n_t.

    Boundary values: u at 0/1 is -k_sigma(1), u at 1/0 is 1.
    """
    if t.is_zero:
        return -params.k_at(params.sigma[0])
    if t.is_infinity:
        return 1
    node = gm_node(t, params)
    n_r, n_t, n_s = node.left.value, node.mid.value, node.right.value
    u = n_s * pow(n_r, -1, n_t) % n_t
    assert 0 < u < n_t, "characteristic number out of range"
    return u


def enumerate_tree(
    params: GMParams, depth: int
) -> list[tuple[IrreducibleFraction, GMNode]]:
    """All vertices with tree depth <= depth, breadth-first, left before right.

    Each vertex is paired with the fraction labeling its middle entry.
    """
    return [
        (IrreducibleFraction(ln + rn, ld + rd), _as_node(node))
        for ln, ld, rn, rd, node in _walk_tree(params, depth)
    ]
