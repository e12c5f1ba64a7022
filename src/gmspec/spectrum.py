"""Exact elements of the generalized discrete Markov spectra.

Values are quadratic surds sqrt(Delta)/n with
Delta(n, i) = ((3 + k1 + k2 + k3) * n - k_i)^2 - 4, so the two integers
(Delta, n) settle a value's identity and its order.  Enumeration walks the
solution trees for the even permutations only (the full union is unchanged),
and of two trees that are mirror images under t -> 1/t only the first.  It
carries every element as plain integers and never builds a surd or a
Fraction to deduplicate or sort: in each class c = k_i the value increases
with n, so a class is deduplicated by n and sorted by n, and the at most
three class runs are merged by the exact test Delta_1 * n_2^2 vs
Delta_2 * n_1^2, each run with its list of n^2 beside it: two products
while both n are narrow, and for a pair with an n of 384 bits or more the
expanded identity, linear in n but for one product (see `_merge`).  Only the
distinct values returned get their surd's fields, as integer rows
(n, pos, num, den, params, q, D, r) from `_spectrum_rows`: Delta =
m^2 - 4 with m = K*n - k_i >= 3 is never a perfect square, so
`exact._sqrt_over_ints` finds (q, D, r) with one square split of Delta and
one gcd with n.  The CLI writes `--k` rows from these integers, with no
surd, label or element per row; the decimal is rendered only when a row is
written, from (n, pos) alone once n reaches its class limit (see
`cli._row_decimals`); `_zigzag_rows` gives the few rows the CLI checks
against Python's int-to-str limit before the walk.  `enumerate_spectrum`,
for library callers, builds each row into a `SpectrumElement` with its
`QuadSurd` and label in `_element`, which writes the fields of the label
and the element through their slot setters, the one way the library builds
a trusted object (see `exact`): a walked label is reduced and the surd
canonical by construction, so the checks skipped could not fail, and the
objects built stay immutable.

The window scan over [3, c_F) uses the Markoff-tree growth argument (cf.
Bombieri, "Continued fractions and the Markoff tree", Expo. Math. 2007):
n grows strictly down every branch, and the value sqrt((K*n - k_i)^2 - 4)/n,
K = 3 + k1 + k2 + k3, increases with n.  Below the root n >= 5, where every
value of a triple with K >= 5 is already >= c_F, so only the K = 4 trees are
walked past the root.  The same lemma settles K >= 6 on integers alone: the
only value such a triple has in the window is 2*sqrt(3), at n = 1 in the
class c = K - 4, so the scan lists only the 9 + 6 (kmax - 1) triples the
lemma leaves, with no loop over all (kmax + 1)^3, and writes each K >= 6
hit from its integers (see `transition_scan`).  Elements are tested
against the window on their integers, and only the hits become surds, one
per distinct window value of the scan; `transition_scan(30, 4)` takes
about 1.4 ms (2-core Xeon VM, CPython 3.11).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import ClassVar, Sequence

from .exact import (
    QuadSurd,
    _floor_surd,
    _past_limit,
    _slot_setters,
    _spectrum_surd,
    _sqrt_over,
    _sqrt_over_ints,
    cf_eval_periodic,
    cf_matrix,
)
from .farey import IrreducibleFraction, _frozen_slots, farey_path
from .gmtree import ALTERNATING, GMParams, _child, _root, _walk_tree, format_sigma, gm_pair

__all__ = [
    "FREIMAN_CONSTANT",
    "TRANSITION_CAVEAT",
    "QForm",
    "SpectrumElement",
    "ell_periodic",
    "lagrange_value",
    "alpha_fixed_point",
    "markov_value",
    "qform_of",
    "markov_sup_exact",
    "enumerate_spectrum",
    "transition_scan",
]

# upper end of the transition window [3, c_F)
FREIMAN_CONSTANT = QuadSurd(2221564096, 283748, 462, 491993569)

TRANSITION_CAVEAT = (
    "every triple with K = 3 + k1 + k2 + k3 >= 5 is listed exhaustively, at any depth; "
    "(0,0,0) never reaches 3 (Delta = 9n^2 - 4); the permutations of (0,0,1) (K = 4) "
    "have infinitely many values in [3, 4) and are listed only to the given depth"
)


@dataclass(frozen=True)
class QForm:
    """Indefinite binary quadratic form a*x^2 + b*xy + c*y^2, exact rationals."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        if self.discriminant <= 0:
            raise ValueError("form must be indefinite (positive discriminant)")

    @property
    def discriminant(self) -> Fraction:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x: int, y: int) -> Fraction:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __str__(self) -> str:
        return f"x^2 + ({self.b})xy + ({self.c})y^2" if self.a == 1 else (
            f"({self.a})x^2 + ({self.b})xy + ({self.c})y^2"
        )


@_frozen_slots
class SpectrumElement:
    """A spectrum value together with one witness (tree, label, pair)."""

    # the keys of to_json, in order: a spectrum row's JSON keys and CSV header
    FIELDS: ClassVar[tuple[str, ...]] = (
        "k1", "k2", "k3", "sigma", "t", "n", "pos", "p", "q", "D", "r", "decimal"
    )

    value: QuadSurd
    n: int
    pos: int
    t: IrreducibleFraction
    params: GMParams

    def sort_key(self) -> Fraction:
        return self.value.squared_fraction()

    def to_json(self, decimal: str | None = None) -> dict:
        """The row; `decimal` is the value's decimal when the caller has it."""
        k, v = self.params, self.value
        return dict(zip(self.FIELDS, (
            k.k1, k.k2, k.k3, format_sigma(k.sigma), str(self.t), self.n, self.pos,
            v.p, v.q, v.D, v.r, v.decimal() if decimal is None else decimal,
        )))


def _nonempty(entries: Sequence[int]) -> tuple[int, ...]:
    """The block as a tuple; cf_matrix rejects entries below 1, so a nonempty
    block has a lower-left convergent entry c >= 1."""
    seq = tuple(entries)
    if not seq:
        raise ValueError("block must be nonempty")
    return seq


def ell_periodic(entries: Sequence[int]) -> QuadSurd:
    """Bi-infinite periodization value sqrt(tr^2 - (-1)^n * 4) / c for the
    convergent matrix [[a,b],[c,d]] of the block."""
    seq = _nonempty(entries)
    m = cf_matrix(seq)
    disc = m.trace() ** 2 - (4 if len(seq) % 2 == 0 else -4)
    return QuadSurd(0, 1, disc, m.c)


def lagrange_value(entries: Sequence[int]) -> QuadSurd:
    """Maximum periodization value over all splittings of the repeated block.

    All cyclic rotations share the trace, so the maximum is the trace surd
    over the minimal lower-left convergent entry among rotations.
    """
    seq = _nonempty(entries)
    n = len(seq)
    c_min = min(cf_matrix(seq[i:] + seq[:i]).c for i in range(n))
    disc = cf_matrix(seq).trace() ** 2 - (4 if n % 2 == 0 else -4)
    return QuadSurd(0, 1, disc, c_min)


def alpha_fixed_point(entries: Sequence[int]) -> QuadSurd:
    """Positive fixed point (a - d + sqrt((a+d)^2 - 4 det))/(2c) of the
    Moebius action of the block's convergent matrix: the value of the purely
    periodic continued fraction with this block."""
    return cf_eval_periodic((), tuple(entries))


def markov_value(t: IrreducibleFraction, params: GMParams) -> SpectrumElement:
    """Spectrum element sqrt(Delta(n_t, i_t)) / n_t at the label t."""
    pair = gm_pair(t, params)
    n = pair.value
    delta = (params.coeff_sum * n - params.k_at(pair.pos)) ** 2 - 4
    return SpectrumElement(_sqrt_over(delta, n), n, pair.pos, t, params)


def qform_of(entries: Sequence[int]) -> QForm:
    """Monic form x^2 - ((a-d)/c) xy - (b/c) y^2 whose root pair is the fixed
    point of the block and its conjugate."""
    m = cf_matrix(_nonempty(entries))
    return QForm(Fraction(1), -Fraction(m.a - m.d, m.c), -Fraction(m.b, m.c))


# ---------------------------------------------------------------------------
# bounded-box supremum for a form
# ---------------------------------------------------------------------------

def _int_form(q: QForm) -> tuple[int, int, int, int]:
    """(R, A, B, C) with q(x,y) = (A x^2 + B xy + C y^2)/R and R > 0."""
    r = math.lcm(q.a.denominator, q.b.denominator, q.c.denominator)
    return r, int(q.a * r), int(q.b * r), int(q.c * r)


def markov_sup_exact(q: QForm, bound: int) -> QuadSurd | None:
    """Exact value of the bounded-box supremum, or None if the form vanishes.

    With q = A (x - z1 y)(x - z2 y)/R, an x other than floor(z y) and
    floor(z y) + 1 for both roots z is at least 1 from each z y, so |q(x, y)|
    >= |A|/R = |q(1, 0)|.  Only those two integers per root are evaluated.
    Each floor(z y) is one exact integer floor of the surd
    (-B y +- y sqrt(disc))/(2A), so no root is approximated and the minimum
    |q| is exact.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    r, A, B, C = _int_form(q)
    if A == 0:
        raise ValueError("form must have a nonzero x^2 coefficient")
    disc = B * B - 4 * A * C
    b = B if A > 0 else -B  # z y = (-b y +- y sqrt(disc))/(2|A|)

    best = abs(A)  # |q(1, 0)|; y < 0 mirrors y > 0
    for y in range(1, bound + 1):
        for root_y in (y, -y):
            base = _floor_surd(-b * y, root_y, disc, 2 * abs(A))
            for x in (base, base + 1):
                if -bound <= x <= bound:
                    val = abs(A * x * x + B * x * y + C * y * y)
                    if val == 0:
                        return None
                    best = min(best, val)
    # value sqrt(disc_int)/best == sqrt(disc(q))/min|q| since disc_int = R^2 disc(q)
    return QuadSurd(0, 1, disc, best)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def _distinct_values(
    k: tuple[int, int, int], depth: int
) -> list[tuple[int, int, int, int, int, GMParams]]:
    """The sorted rows (Delta, n, pos, num, den, params) of
    `enumerate_spectrum(k, depth)`.

    A witness's class is c = k_pos.  Inside a class the value
    sqrt((K*n - c)^2 - 4)/n strictly increases with n (see `_window_cut`), so
    equal values have equal n: each class keeps the first witness of each n
    in a dict keyed by n, and Delta is computed once per kept n.  Sorted by
    n, each class is an ascending run; `_merge` joins the runs, each with
    the list of its rows' n^2 beside it, and compares by the expanded
    identity only when some n reaches _WIDE_N.  A tree whose kappa, or kappa
    reversed, is that of a tree already walked is skipped: t -> 1/t maps the
    walk of the reversed kappa onto the walk of kappa with L and R swapped,
    so it would only repeat earlier witnesses' (Delta, n).
    """
    big_k = 3 + sum(k)
    classes: dict[int, dict[int, tuple]] = {c: {} for c in k}
    by_pos = (None, *(classes[c] for c in k))
    walked: set[tuple[int, int, int]] = set()
    for sigma in ALTERNATING:
        params = GMParams(*k, sigma)
        if params.kappa in walked:
            continue
        walked |= {params.kappa, params.kappa[::-1]}
        walk = _walk_tree(params, depth)
        # the boundary labels 0/1 and 1/0 carry the root's outer pairs
        a, h, _, _, b, i = walk[0][4]
        for num, den, n, pos in ((0, 1, a, h), (1, 0, b, i)):
            first = by_pos[pos]
            if n not in first:
                first[n] = ((big_k * n - k[pos - 1]) ** 2 - 4, n, pos, num, den, params)
        for ln, ld, rn, rd, (_, _, n, pos, _, _) in walk:
            first = by_pos[pos]
            if n not in first:
                first[n] = ((big_k * n - k[pos - 1]) ** 2 - 4, n, pos, ln + rn, ld + rd, params)
    del walk, by_pos  # so that each class dict goes once its run is sorted
    runs = []
    for c in list(classes):
        rows = sorted(classes.pop(c).values(), key=itemgetter(1))
        runs.append((rows, [row[1] * row[1] for row in rows]))
    wide = any(rows[-1][1] >= _WIDE_N for rows, _ in runs)
    return functools.reduce(lambda a, b: _merge(a, b, k, wide), runs)[0]


# `_merge` compares two rows by the expanded identity when either n has at
# least 384 bits.  Per comparison the identity is cheaper from about 200 bits
# (2-core Xeon, CPython 3.11), but by little below 384, while a merge that
# holds a wide n pays the width test on every pair; 384 keeps that test off
# every depth-8 spectrum up to (10,10,10), whose largest n has 382 bits.
_WIDE_N = 1 << 384


def _merge(
    a: tuple[list[tuple], list[int]], b: tuple[list[tuple], list[int]],
    k: tuple[int, int, int], wide: bool,
) -> tuple[list[tuple], list[int]]:
    """Two runs of rows (Delta, n, pos, ...) of the triple k, each ascending
    in sqrt(Delta)/n and each with the list of its rows' n^2 beside it, as
    one such run.  Of two equal values only the one walked first is kept.

    The test is the sign of Delta_1 n_2^2 - Delta_2 n_1^2.  For two rows
    whose n are both below _WIDE_N, or for every pair unless `wide` (some n
    of the runs reaches _WIDE_N), it is taken as written: two products, as
    the squares are at hand.  Otherwise Delta = K^2 n^2 - 2Kcn + c^2 - 4
    expands it to E - 2K D n_1 n_2, with K = 3 + k1 + k2 + k3, the classes
    c = k_pos, D = c_1 n_2 - c_2 n_1 and
    E = (c_1^2 - 4) n_2^2 - (c_2^2 - 4) n_1^2, both linear in what is at
    hand.  The sign is E's when D = 0, and -D's when E has fewer bits than
    bits(2K) + bits(D) + bits(n_1) + bits(n_2) - 3, a lower bound on the bit
    length of 2K D n_1 n_2; otherwise the identity is computed, with one
    product n_1 n_2 and one by D."""
    (rows_a, sq_a), (rows_b, sq_b) = a, b
    out, out_sq = [], []
    i = j = 0
    len_a, len_b = len(rows_a), len(rows_b)
    c_at = (None, *k)
    two_k = 2 * (3 + sum(k))
    k_bits = two_k.bit_length() - 3
    wide_n = _WIDE_N
    while i < len_a and j < len_b:
        x, y = rows_a[i], rows_b[j]
        if wide and (x[1] >= wide_n or y[1] >= wide_n):
            n_a, n_b, c_a, c_b = x[1], y[1], c_at[x[2]], c_at[y[2]]
            d = c_a * n_b - c_b * n_a
            side = (c_a * c_a - 4) * sq_b[j] - (c_b * c_b - 4) * sq_a[i]  # E
            if d:
                bound = k_bits + d.bit_length() + n_a.bit_length() + n_b.bit_length()
                side = -d if side.bit_length() < bound else side - two_k * d * (n_a * n_b)
        else:
            side = x[0] * sq_b[j] - y[0] * sq_a[i]
        if side < 0:
            out.append(x)
            out_sq.append(sq_a[i])
            i += 1
        elif side > 0:
            out.append(y)
            out_sq.append(sq_b[j])
            j += 1
        else:
            z = min(x, y, key=_walk_order)
            out.append(z)
            out_sq.append(z[1] * z[1])
            i += 1
            j += 1
    out += rows_a[i:]
    out += rows_b[j:]
    out_sq += sq_a[i:]
    out_sq += sq_b[j:]
    return out, out_sq


def _walk_order(row: tuple) -> tuple:
    """Where `_distinct_values` walks a row's witness: by tree in `ALTERNATING`
    order, then 0/1 and 1/0, then the tree's vertices breadth-first, left
    (L, the lesser label) before right."""
    *_, num, den, params = row
    tree = ALTERNATING.index(params.sigma)
    if num == 0 or den == 0:
        return tree, 0, den == 0
    path = farey_path(IrreducibleFraction(num, den))
    return tree, 1 + len(path), path


_set_num, _set_den = _slot_setters(IrreducibleFraction, "num", "den")
_set_value, _set_n, _set_pos, _set_t, _set_params = _slot_setters(
    SpectrumElement, "value", "n", "pos", "t", "params"
)


def _element(
    value: QuadSurd, n: int, pos: int, num: int, den: int, params: GMParams
) -> SpectrumElement:
    """SpectrumElement(value, n, pos, IrreducibleFraction(num, den), params)
    of a row of `_distinct_values` whose Delta has been turned into its surd
    `value` (`_sqrt_over(Delta, n)`), its fields written by their slot
    setters.  A walked label is 0/1, 1/0 or a mediant of Farey neighbours, so
    it is reduced by construction and skips IrreducibleFraction's gcd check;
    the element's fields need no check of their own."""
    t = object.__new__(IrreducibleFraction)
    _set_num(t, num)
    _set_den(t, den)
    el = object.__new__(SpectrumElement)
    _set_value(el, value)
    _set_n(el, n)
    _set_pos(el, pos)
    _set_t(el, t)
    _set_params(el, params)
    return el


def enumerate_spectrum(
    k: tuple[int, int, int], depth: int
) -> list[SpectrumElement]:
    """Distinct spectrum values from all trees of k at tree depth <= depth.

    The permutation ranges over the even permutations (the union over all
    six is the same set), in `ALTERNATING` order; each tree contributes its
    two boundary labels 0/1 and 1/0 first, then its vertices breadth-first.
    Of each value the witness first in this order is kept.  A tree whose
    kappa reversed is that of an earlier tree is not walked: it is that
    tree's mirror image under t -> 1/t and has no value of its own.  Every
    element is walked as plain integers (label, n, pos) and grouped by its
    class k_pos, where equal values have equal n; each class is sorted by n
    and the classes are merged by exact integer comparisons of
    Delta_1 * n_2^2 and Delta_2 * n_1^2 (see `_distinct_values`).  Only the
    distinct values, ascending, are built into `SpectrumElement`s, from the
    integers of `_spectrum_rows`.
    """
    return [
        _element(_spectrum_surd(q, d, r), n, pos, num, den, params)
        for n, pos, num, den, params, q, d, r in _spectrum_rows(k, depth)
    ]


def _spectrum_rows(
    k: tuple[int, int, int], depth: int
) -> list[tuple[int, int, int, int, GMParams, int, int, int]]:
    """The rows (n, pos, num, den, params, q, D, r) of
    `enumerate_spectrum(k, depth)`, in its order, as integers: the witness
    num/den of the tree of params with its pair (n, pos), and the fields of
    the value's canonical surd (0, q, D, r), `_sqrt_over_ints(Delta, n)`.
    The CLI writes `--k` rows from these, with no surd, label or element."""
    rows = []
    for delta, n, pos, num, den, params in _distinct_values(k, depth):
        q, d, r = _sqrt_over_ints(delta, n)
        rows.append((n, pos, num, den, params, q, d, r))
    return rows


def _zigzag_rows(k: tuple[int, ...], depth: int, limit: int = 0) -> list[tuple]:
    """The rows (n, pos, num, den, params, q, D, r) at the zigzag labels
    F(d+1)/F(d+2) and F(d+2)/F(d+1) of depth d in each even tree, F the
    Fibonacci numbers with F(1) = F(2) = 1.  They carry the greatest n of
    their depth (tested for max k <= 2 to depth 8), so a request whose rows
    would pass the digit limit is refused on them before the walk.  Each is
    a row the walk visits, printed unless a cross-class tie gives its value
    to an earlier witness; `cli._check_printable` on the output stays the
    exact rule.  The paths, L, R, L, ... to F(j+1)/F(j+2) and R, L, R, ... to
    F(j+2)/F(j+1) at depth j, are walked a level at a time.  n grows
    strictly down a path, so once a vertex's n has more than `limit` digits
    (when nonzero) so has the row of depth d on its path: the walk returns
    that level's rows, which `cli._check_printable` refuses as it would those
    of depth d, and never builds the deeper vertices, whose n have about
    F(d+2)/F(j+2) times as many digits."""
    # per tree, the path to F(j+1)/F(j+2) then the one to F(j+2)/F(j+1)
    level = [(p, _root(p)) for p in (GMParams(*k, s) for s in ALTERNATING) for _ in "LR"]
    big_k = 3 + sum(k)
    f, g = 1, 1  # the label F(j+1)/F(j+2) = f/g of level j
    for j in range(depth):
        if limit and _past_limit(max(node[2] for _, node in level), limit):
            break
        steps = "LR" if j % 2 == 0 else "RL"
        level = [(p, _child(node, k, big_k, steps[i % 2])) for i, (p, node) in enumerate(level)]
        f, g = g, f + g
    rows = []
    for i, (p, node) in enumerate(level):
        n, pos = node[2], node[3]
        num, den = (f, g) if i % 2 == 0 else (g, f)
        delta = (big_k * n - k[pos - 1]) ** 2 - 4
        rows.append((n, pos, num, den, p, *_sqrt_over_ints(delta, n)))
    return rows


def _window_cut(big_k: int, c: int) -> int | None:
    """Least n with sqrt((K*n - c)^2 - 4)/n >= c_F for K = big_k, by exact
    comparisons; None when K <= 4, where no n reaches c_F.  With c = k_i it
    is the end of the class (K, c): the value's square (K - c/n)^2 - 4/n^2
    increases with n toward K, as K*n > c.  For c <= K - 3 and n >= 5 that
    square is at least ((4K + 3)/5)^2 - 4/25, which is 21 > c_F^2 at K = 5,
    so the end is at most 5 once K >= 5.  `transition_scan` asks it only for
    K = 5; at K >= 6 the lemma there gives the hits on integers.
    """
    if big_k <= 4:
        return None
    n = 1
    while _sqrt_over((big_k * n - c) ** 2 - 4, n) < FREIMAN_CONSTANT:
        n += 1
    return n


def transition_scan(kmax: int, depth: int) -> list[SpectrumElement]:
    """Every enumerated spectrum element with value in [3, c_F), over all
    coefficient triples with max component <= kmax.

    Elements are sorted by triple (k1, k2, k3) of `el.params`, then by value,
    the same as filtering `enumerate_spectrum(k, depth)`; rows are tested on
    their integers, and only hits become surds, one per distinct (Delta, n)
    of the scan, shared by the hits with that value.  The root is (1, b, 1)
    with b = k_sigma(2) + 2, so the n below it, b^2 + k*b + 1 and up, are
    >= 5, where K >= 5 leaves no value below c_F (see `_window_cut`): such a
    triple has hits only at depth 0 and is listed exhaustively at any depth.
    At K >= 6 the root's rows settle on integers, with 4.52 < c_F < 4.53:
    the middle row, n = c + 2 >= 2 with c <= K - 3, has the square
    (K - c/n)^2 - 4/n^2 >= (K - 1)^2 - 1 >= 24, and a row at n = 1 has the
    square (K - c)^2 - 4, which is 5, 12, 21, ... for K - c = 3, 4, 5, ...:
    in [9, c_F^2) exactly when K - c = 4, where the value is 2*sqrt(3).  So
    of the K >= 6 triples only those with an entry K - 4, the permutations of
    (m,1,0) with m >= 2, have a hit, and it is the n = 1 row of class m,
    written from its integers: its three entries differ, so all three trees
    are walked, and its witness is the first root row at position p
    (k_p = m), 0/1 of the first tree in `ALTERNATING` with sigma(1) = p or
    1/0 of the first with sigma(3) = p.  So the scan
    reads 9 + 6 (kmax - 1) triples, not (kmax + 1)^3, and at the CLI's
    limit kmax = 30 takes about 1.4 ms at depth 4.  A K = 5 triple's rows
    are kept when 9n^2 <= Delta and n is below the end of its class
    (K, k_i), found once by exact comparisons.  The permutations of (0,0,1),
    K = 4, are walked to the given depth and kept when 9n^2 <= Delta;
    (0,0,0), K = 3, is not read, as Delta = 9n^2 - 4 keeps it below 3.  See
    TRANSITION_CAVEAT.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    end = functools.cache(_window_cut)  # this scan's class ends, by (5, k_i)
    surds: dict[tuple[int, int], QuadSurd] = {}  # the hits' values, by (Delta, n)

    def value(delta: int, n: int) -> QuadSurd:
        x = surds.get((delta, n))
        if x is None:
            x = surds[delta, n] = _sqrt_over(delta, n)
        return x

    # the triples the lemma leaves, in the order of itertools.product: the
    # permutations of (1,0,0), K = 4, of (2,0,0) and (1,1,0), K = 5, and of
    # (m,1,0), K = m + 4, the K >= 6 triples with an entry K - 4
    bases = [(1, 0, 0), (2, 0, 0), (1, 1, 0), *((m, 1, 0) for m in range(2, kmax + 1))]
    triples = sorted({k for b in bases if b[0] <= kmax for k in itertools.permutations(b)})
    out: list[SpectrumElement] = []
    for k in triples:
        big_k = 3 + sum(k)
        if big_k >= 6:
            p = k.index(big_k - 4) + 1
            sigma = next(s for s in ALTERNATING if p in (s[0], s[2]))
            num, den = (0, 1) if sigma[0] == p else (1, 0)
            out.append(_element(value(12, 1), 1, p, num, den, GMParams(*k, sigma)))
            continue
        for delta, n, pos, num, den, params in _distinct_values(k, depth if big_k == 4 else 0):
            if delta >= 9 * n * n and (big_k == 4 or n < end(big_k, k[pos - 1])):
                out.append(_element(value(delta, n), n, pos, num, den, params))
    return out
