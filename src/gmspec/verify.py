"""Desk-scale verification suites bundling the library's cross-identities.

The grid suites (factorization, rotation, duality) read one cached grid per
coefficient arrangement kappa = (k_sigma(1), k_sigma(2), k_sigma(3)), made by
one integer walk of its tree zipped with `_labels(depth)`, a table cached per
depth of each label and its lattice skeleton, traced once and free of kappa,
so the grid never relies on the lattice's bounded skeleton cache.  Each entry
holds its label t, the tree data (n, u, k_t), whether its walked vertex
solves the equation, the convergent and closed-form matrices of t, and the
least lower-left entry over the cyclic rotations of its admissible
sequence, by conjugating the convergent matrix one entry at a time on three
integers.  Trees with the same kappa are identical up to a
relabeling of positions, so a suite checks each kappa once per call, at the
first (triple, permutation) pair on it, which a failure names, and counts its
cases at every pair; t -> 1/t reads the reversed arrangement's grid at the
mirror index.  The duality surd sample covers the first ten triples visited.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .cohn import closed_form_entries
from .exact import Mat2, cf_matrix
from .farey import IrreducibleFraction, _frozen_slots
from .gmtree import ALL_SIGMAS, GMParams, IDENTITY, Sigma, _walk_tree, gm_check
from .lattice import _label_sequence, _label_skeleton, admissible_sequence
from .snake import (
    BRUTE_FORCE_TILE_BOUND,
    _join_runs,
    build_snake_graph,
    continuant,
    count_matchings_bruteforce,
    rotation_tails,
)
from .spectrum import (
    FREIMAN_CONSTANT,
    ell_periodic,
    enumerate_spectrum,
    lagrange_value,
    markov_value,
    transition_scan,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "grid_triples", "grid_fractions"]

GRID_SEED = 20250809
GRID_DRAWS = 20
GRID_DEPTH = 7
SNAKE_RANDOM_SUM = 16  # brute-force matching stays within BRUTE_FORCE_TILE_BOUND


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def describe(self) -> str:
        return f"[{'pass' if self.ok else 'FAIL'}] {self.name}" + (
            f": {self.detail}" if self.detail else ""
        )


def grid_triples() -> list[tuple[int, int, int]]:
    """All coefficient triples with max <= 1 plus GRID_DRAWS draws from
    {0..3}^3 seeded with GRID_SEED."""
    low = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    rng = random.Random(GRID_SEED)
    rand = [
        (rng.randrange(4), rng.randrange(4), rng.randrange(4)) for _ in range(GRID_DRAWS)
    ]
    return low + rand


def grid_fractions(depth: int = GRID_DEPTH) -> list[IrreducibleFraction]:
    """All interior tree labels with depth <= depth (2^(depth+1) - 1 of them),
    in the order of the integer walk; labels do not depend on the coefficients."""
    return [t for t, _ in _labels(depth)]


@lru_cache(maxsize=None)
def _labels(depth: int) -> tuple[tuple[IrreducibleFraction, array], ...]:
    """(label, skeleton) for each interior label with depth <= depth, in the
    order of the integer walk: one kappa-free trace per label."""
    walk = _walk_tree(GMParams(0, 0, 0), depth)
    labels = (IrreducibleFraction(ln + rn, ld + rd) for ln, ld, rn, rd, _ in walk)
    return tuple((t, _label_skeleton(t)) for t in labels)


# ---------------------------------------------------------------------------
# cached grid entries
# ---------------------------------------------------------------------------

@_frozen_slots
class GridEntry:
    t: IrreducibleFraction
    n: int
    u: int
    k_t: int
    solves: bool  # the vertex's three values, each at its position, solve the equation
    cf: tuple[int, int, int, int]  # convergent matrix of s(t), row-major
    closed: tuple[int, int, int, int]
    rot_min_c: int  # least (2,1) entry over rotations of s(t), cf conjugated entry by entry


@lru_cache(maxsize=None)
def _mirror(depth: int) -> tuple[int, ...]:
    """For each interior grid label, the index of its reciprocal: t -> 1/t
    swaps the L and R children, so it reverses each level of the walk."""
    return tuple(j for d in range(depth + 1) for j in reversed(range(2**d - 1, 2 ** (d + 1) - 1)))


def _rotation_min_c(seq: tuple[int, ...], m: tuple[int, int, int, int]) -> int:
    """Least (2,1) entry of A_i^-1 ... A_1^-1 M A_1 ... A_i over the rotations,
    M the convergent matrix of seq and A_i = [[x_i, 1], [1, 0]].  Conjugating by
    A keeps a + d and maps (e, c, b) = (a - d, c, b) to (2cx - e, (e - cx)x + b, c)."""
    a, b, c, d = m
    e = a - d
    best = c
    for x in seq[:-1]:
        cx = c * x
        e, c, b = cx + cx - e, (e - cx) * x + b, c
        if c < best:
            best = c
    # best is the least entry, the first one included, so this checks them all
    assert best > 0, "rotation entry must be a positive matching count"
    return best


def _solves(vertex: tuple[int, ...], kappa: tuple[int, int, int]) -> bool:
    a, h, b, i, c, j = vertex
    x = {h: a, i: b, j: c}
    return gm_check(x[1], x[2], x[3], kappa)


@lru_cache(maxsize=None)
def _grid(kappa: tuple[int, int, int], depth: int) -> tuple[GridEntry, ...]:
    """The entries under kappa from one walk of its tree and the label table:
    every interior label with depth <= depth, breadth-first, then 1/0 from the
    root's right pair, where u = 1 by definition.  Off the equation, where
    neither need exist, u = 0 and the closed form is zero: factorization
    fails such an entry on `solves` before reading them."""
    params = GMParams(*kappa, IDENTITY)
    K = params.coeff_sum
    walk = _walk_tree(params, depth)
    rows = []
    for (t, skeleton), (*_, vertex) in zip(_labels(depth), walk, strict=True):
        a, _, n, pos, c, _ = vertex
        solves = _solves(vertex, kappa)
        u = c * pow(a, -1, n) % n if solves else 0
        rows.append((t, n, pos, u, solves, _label_sequence(skeleton, kappa)))
    infinity = IrreducibleFraction(1, 0)
    root = walk[0][4]
    rows.append((infinity, *root[4:], 1, _solves(root, kappa),
                 admissible_sequence(infinity, params)))
    out = []
    for t, n, pos, u, solves, s in rows:
        k_t = params.k_at(pos)
        m = cf_matrix(s)
        cf = (m.a, m.b, m.c, m.d)
        c = closed_form_entries(n, u, k_t, K) if solves else Mat2(0, 0, 0, 0)
        out.append(GridEntry(
            t, n, u, k_t, solves, cf, (c.a, c.b, c.c, c.d), _rotation_min_c(s, cf)
        ))
    return tuple(out)


def _arrangements(
    depth: int, triples: Iterable[tuple[int, int, int]] | None
) -> Iterator[tuple[tuple[int, int, int], Sigma, tuple[int, ...], tuple[GridEntry, ...], bool]]:
    """Every (triple, sigma, kappa, grid, first) over `triples` (default
    grid_triples()): kappa's entries, label by label with 1/0 last, and whether
    this is the call's first pair on kappa, the one whose suite checks it."""
    seen = set()
    for triple in grid_triples() if triples is None else triples:
        for sigma in ALL_SIGMAS:
            kappa = GMParams(*triple, sigma).kappa
            first = kappa not in seen
            seen.add(kappa)
            yield triple, sigma, kappa, _grid(kappa, depth), first


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def factorization_suite(
    depth: int = GRID_DEPTH,
    triples: Iterable[tuple[int, int, int]] | None = None,
) -> list[CheckResult]:
    """The equation at every walked vertex (the paper's exact Vieta
    divisions), and the convergent-matrix factorization of the closed form,
    with determinant and trace identities, over the full (t, triple, sigma) grid.

    The label 0/1 is excluded from the factorization identity (the closed
    form there is not a convergent product); 1/0 is included, but not in the
    equation's count, as its vertex is the root.
    """
    checked = vertices = 0
    for triple, sigma, kappa, grid, first in _arrangements(depth, triples):
        checked += len(grid)
        vertices += len(grid) - 1
        K = 3 + sum(kappa)
        for e in grid if first else ():
            if not e.solves:
                detail = f"t={e.t} k={triple} sigma={sigma}: off the equation"
                return [CheckResult("vieta-exactness", False, detail)]
            if e.cf != e.closed:
                detail = f"t={e.t} k={triple} sigma={sigma}: {e.cf} != {e.closed}"
                return [CheckResult("factorization", False, detail)]
            m11, m12, m21, m22 = e.closed
            if m11 * m22 - m12 * m21 != 1:
                return [CheckResult("determinant", False, f"t={e.t} k={triple}")]
            if m11 + m22 != K * e.n - e.k_t:
                return [CheckResult("trace", False, f"t={e.t} k={triple}")]
    return [CheckResult("vieta-exactness", True, f"{vertices} cases")] + [
        CheckResult(name, True, f"{checked} cases")
        for name in ("factorization", "determinant", "trace")
    ]


def snake_suite(exhaustive_sum: int = 12, random_count: int = 200) -> list[CheckResult]:
    """Continuant equals brute-force matching count: every composition with
    entry sum <= exhaustive_sum, plus `random_count` sequences seeded with
    GRID_SEED whose sums run from there up to SNAKE_RANDOM_SUM.

    A snake graph is fixed by its entry sum and join runs, so many sequences
    share one: each distinct graph is built and brute-forced once, keyed by
    (sum, runs), and every sequence's continuant is compared with its count."""
    if not 0 <= exhaustive_sum <= BRUTE_FORCE_TILE_BOUND + 1:
        raise ValueError(
            f"exhaustive_sum must be in [0, {BRUTE_FORCE_TILE_BOUND + 1}], got {exhaustive_sum}"
        )
    if random_count < 0:
        raise ValueError(f"random_count must be >= 0, got {random_count}")
    if random_count and exhaustive_sum >= SNAKE_RANDOM_SUM:
        raise ValueError(
            f"random sequences need exhaustive_sum < {SNAKE_RANDOM_SUM}, got {exhaustive_sum}"
        )

    def compositions(total: int):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first, *rest)

    def sequences():
        for total in range(exhaustive_sum + 1):
            yield from compositions(total)
        rng = random.Random(GRID_SEED)
        for _ in range(random_count):
            total = rng.randint(exhaustive_sum + 1, SNAKE_RANDOM_SUM)
            seq = []
            while total:
                x = rng.randint(1, min(total, 6))
                seq.append(x)
                total -= x
            yield tuple(seq)

    counts: dict[tuple, int] = {}
    checked = 0
    for seq in sequences():
        key = sum(seq), _join_runs(seq)
        count = counts.get(key)
        if count is None:
            count = counts[key] = count_matchings_bruteforce(build_snake_graph(seq))
        if continuant(seq) != count:
            return [CheckResult("snake-oracle", False, f"seq={seq}")]
        checked += 1
    return [CheckResult("snake-oracle", True, f"{checked} sequences")]


_PAPER_TAILS_EXPECTED = (8227, 32957, 12039, 12041, 32937, 8261, 9997, 31881, 12199, 11127)


def rotation_suite(
    depth: int = GRID_DEPTH,
    triples: Iterable[tuple[int, int, int]] | None = None,
) -> list[CheckResult]:
    """The tail of the sequence itself minimizes the rotation-tail matching
    counts, on the same grid as the factorization suite; plus the fixed
    ten-tail example at t = 2/5 under (1,2,0)."""
    checked = 0
    for triple, sigma, _, grid, first in _arrangements(depth, triples):
        checked += len(grid) - 1  # the interior labels, as in the duality suite
        for e in grid[:-1] if first else ():
            if e.rot_min_c != e.cf[2]:
                detail = f"t={e.t} k={triple} sigma={sigma}"
                return [CheckResult("rotation-minimality", False, detail)]
    out = [CheckResult("rotation-minimality", True, f"{checked} cases")]
    s = admissible_sequence(IrreducibleFraction(2, 5), GMParams(1, 2, 0))
    tails = tuple(continuant(w) for w in rotation_tails(s))
    ok = tails == _PAPER_TAILS_EXPECTED
    out.append(
        CheckResult(
            "rotation-tails-fixture", ok, f"{tails}" if not ok else "ten tail values match"
        )
    )
    return out


def duality_suite(
    depth: int = GRID_DEPTH,
    triples: Iterable[tuple[int, int, int]] | None = None,
    surd_sample_depth: int = 3,
) -> list[CheckResult]:
    """Main-theorem checks on the grid:

    * the spectrum value of t equals both periodization values of s(t)
      (equivalently the sequence tail continuant equals n_t and the identity
      rotation minimizes);
    * the value is invariant under t -> 1/t with the reversed arrangement;
    * characteristic numbers satisfy u(1/t) = n(t) - u*(t) - k(t).

    Each kappa is checked once per call and counted at every (triple, sigma)
    on it.  A sample recomputes the three values as surds through the public
    API: sigma = (2, 3, 1), the labels to depth surd_sample_depth and the
    first ten triples visited (grid_triples()[:10] by default).
    """
    triples = grid_triples() if triples is None else list(triples)
    mirror = _mirror(depth)
    checked = 0
    for triple, _, kappa, grid, first in _arrangements(depth, triples):
        checked += len(mirror)  # the interior labels: 1/0's mirror 0/1 is off the grid
        star = _grid(kappa[::-1], depth)
        for e, j in zip(grid, mirror) if first else ():
            e_star = star[j]
            if e.cf[2] != e.n or e.rot_min_c != e.n:
                return [CheckResult("main-theorem", False, f"t={e.t} k={triple}")]
            tr = e.cf[0] + e.cf[3]
            tr_s = e_star.cf[0] + e_star.cf[3]
            if (tr * tr - 4) * e_star.rot_min_c**2 != (tr_s * tr_s - 4) * e.rot_min_c**2:
                return [CheckResult("lagrange-duality", False, f"t={e.t} k={triple}")]
            # u_t = n_t - u*(1/t) - k_t
            if e.u != e.n - e_star.u - e.k_t:
                return [CheckResult("characteristic-duality", False, f"t={e.t} k={triple}")]
    out = [
        CheckResult(name, True, f"{checked} cases")
        for name in ("main-theorem", "lagrange-duality", "characteristic-duality")
    ]
    sampled = 0
    for triple in triples[:10]:
        params = GMParams(*triple, (2, 3, 1))
        for t in grid_fractions(surd_sample_depth):
            s = admissible_sequence(t, params)
            lv = lagrange_value(s)
            if not (lv == ell_periodic(s) == markov_value(t, params).value):
                return out + [CheckResult("surd-sample", False, f"t={t} k={triple}")]
            sampled += 1
    out.append(CheckResult("surd-sample", True, f"{sampled} exact surd triples"))
    return out


def squares_suite(depth: int = 8) -> list[CheckResult]:
    """Squares of the plain tree values sit at the same positions in the
    all-twos tree, and tripling is a bijection between the enumerated
    spectra."""
    plain = _walk_tree(GMParams(0, 0, 0), depth)
    twos = _walk_tree(GMParams(2, 2, 2), depth)
    for (ln, ld, rn, rd, (_, _, n1, i1, _, _)), (*_, (_, _, n2, i2, _, _)) in zip(plain, twos):
        if n1 * n1 != n2 or i1 != i2:
            return [CheckResult("squares", False, f"t={ln + rn}/{ld + rd}")]
    out = [CheckResult("squares", True, f"{len(plain)} vertices")]
    s0 = enumerate_spectrum((0, 0, 0), depth)
    s2 = enumerate_spectrum((2, 2, 2), depth)
    tripled = {9 * el.sort_key() for el in s0}
    keys2 = {el.sort_key() for el in s2}
    ok = tripled == keys2
    out.append(
        CheckResult(
            "triple-bijection",
            ok,
            f"{len(s0)} values map onto {len(s2)}" if ok else "value sets differ",
        )
    )
    return out


def transition_suite(kmax: int = 5, depth: int = 8) -> list[CheckResult]:
    """The window scan over all triples up to kmax reproduces the enumerated
    (0,0,1) spectrum minus sqrt(5), plus 2*sqrt(5) witnessed at n = 4."""
    scan = transition_scan(kmax, depth)
    scanned = {el.sort_key() for el in scan}
    # exact value keys: sqrt(5) squares to 5 and 2*sqrt(5) to 20
    expected = {el.sort_key() for el in enumerate_spectrum((0, 0, 1), depth)} - {5} | {20}
    out = [
        CheckResult(
            "transition-window",
            scanned == expected,
            f"{len(scanned)} window values"
            if scanned == expected
            else f"scan {len(scanned)} values, expected {len(expected)}",
        )
    ]
    ok = any(
        el.sort_key() == 20 and el.n == 4 and el.pos == el.params.sigma[1]
        for el in scan
        if (el.params.k1, el.params.k2, el.params.k3) == (0, 0, 2)
    )
    out.append(
        CheckResult(
            "transition-witness",
            ok,
            "2*sqrt(5) from (n, i) = (4, sigma(2)) under (0,0,2)" if ok else "witness missing",
        )
    )
    # surd comparisons against 3 and c_F, independent of the scan's integer window test
    lo_ok = all(el.value >= 3 and el.value < FREIMAN_CONSTANT for el in scan)
    out.append(CheckResult("transition-bounds", lo_ok, f"{len(scan)} scan hits"))
    return out


_SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "factorization": factorization_suite,
    "snake": snake_suite,
    "rotation": rotation_suite,
    "duality": duality_suite,
    "squares": squares_suite,
    "transition": transition_suite,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them."""
    if name == "all":
        return [r for suite in _SUITES.values() for r in suite()]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _SUITES[name]()
