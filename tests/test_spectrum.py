import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectrum_oracle
import exact_oracle
from exact_oracle import _decimal_interval, nonsquare_split
from gmspec.exact import (
    _FULL_FACTOR_BOUND,
    QuadSurd,
    _floor_surd,
    _slot_setters,
    _sqrt_over,
    _sqrt_over_ints,
    cf_eval_periodic,
    decimal_str,
    periodic_cf_expansion,
)
from gmspec.farey import IrreducibleFraction
from gmspec.gmtree import (
    ALL_SIGMAS,
    ALTERNATING,
    GMParams,
    _walk_tree,
    enumerate_tree,
    gm_node,
    parse_sigma,
)
from gmspec.lattice import admissible_sequence
from gmspec.spectrum import (
    _WIDE_N,
    FREIMAN_CONSTANT,
    SpectrumElement,
    _distinct_values,
    _merge,
    _spectrum_rows,
    _walk_order,
    _window_cut,
    alpha_fixed_point,
    ell_periodic,
    enumerate_spectrum,
    lagrange_value,
    markov_sup_exact,
    markov_value,
    qform_of,
    transition_scan,
)
from gmspec.verify import _grid, grid_fractions, grid_triples

F = IrreducibleFraction.parse


def test_ell_periodic_fixtures():
    assert ell_periodic((2, 1, 1, 2)) == QuadSurd(0, 1, 221, 5)
    assert ell_periodic((1, 1)) == QuadSurd(0, 1, 5, 1)
    assert ell_periodic((1, 1, 1, 2, 2, 2)) == QuadSurd(0, 4, 210, 29)
    with pytest.raises(ValueError):
        ell_periodic(())


@pytest.mark.parametrize(
    "fn",
    [lagrange_value, alpha_fixed_point, qform_of, functools.partial(cf_eval_periodic, ())],
)
def test_empty_block_is_rejected(fn):
    # a nonempty block has c >= 1, so emptiness is the only degenerate case
    with pytest.raises(ValueError, match="must be nonempty"):
        fn(())


def test_lagrange_fixtures():
    assert lagrange_value((1, 1, 1, 2, 2, 2)) == QuadSurd(0, 4, 210, 19)
    assert lagrange_value((2, 2)) == QuadSurd(0, 2, 2, 1)
    s25 = admissible_sequence(F("2/5"), GMParams(1, 2, 0))
    assert lagrange_value(s25) == QuadSurd(0, 1, 2436508317, 8227)


def test_alpha_fixtures():
    assert alpha_fixed_point((1, 1, 1, 2, 2, 2)) == QuadSurd(17, 2, 210, 29)
    assert alpha_fixed_point((2, 1, 1, 2)) == QuadSurd(11, 1, 221, 10)
    s25 = admissible_sequence(F("2/5"), GMParams(1, 2, 0))
    assert alpha_fixed_point(s25) == QuadSurd(45501, 1, 2436508317, 16454)


def test_alpha_roundtrip_through_expansion():
    rng = random.Random(51)
    for _ in range(40):
        seq = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 7)))
        alpha = alpha_fixed_point(seq)
        pre, per = periodic_cf_expansion(alpha)
        assert pre == ()
        assert per * (len(seq) // len(per)) == seq


def test_markov_value_fixtures():
    el = markov_value(F("1/3"), GMParams(1, 2, 0))
    assert el.value == QuadSurd(0, 2, 723, 9) and el.n == 81
    el = markov_value(F("0/1"), GMParams(0, 0, 0))
    assert el.value == QuadSurd(0, 1, 5, 1) and el.n == 1
    el = markov_value(F("1/1"), GMParams(2, 2, 2, parse_sigma("(1 2 3)")))
    assert el.value == QuadSurd(0, 6, 2, 1) and el.n == 4


def test_qform_fixtures():
    s25 = admissible_sequence(F("2/5"), GMParams(1, 2, 0))
    q = qform_of(s25)
    assert (q.a, q.b, q.c) == (1, Fraction(-45501, 8227), Fraction(-11127, 8227))
    q = qform_of((1, 1))
    assert (q.a, q.b, q.c) == (1, -1, -1)
    q = qform_of((2, 2))
    assert (q.a, q.b, q.c) == (1, -2, -1)


def test_markov_sup_small_bounds():
    q = qform_of((1, 1))
    # any bound: |Q| >= ... at (1,0) value sqrt(5)/1
    assert markov_sup_exact(q, 1) == QuadSurd(0, 1, 5, 1)
    assert abs(float(markov_sup_exact(q, 100)) - 5**0.5) < 1e-2
    q = qform_of((2, 1, 1, 2))
    got = float(markov_sup_exact(q, 1000))
    want = float(QuadSurd(0, 1, 221, 5))
    assert want - 1e-3 < got <= want + 1e-12


def test_markov_sup_degenerate_form_reports_infinite():
    from gmspec.spectrum import QForm

    # (x - y)(x + 2y) vanishes at (1, 1)
    q = QForm(Fraction(1), Fraction(1), Fraction(-2))
    assert markov_sup_exact(q, 5) is None


def _box_sup(q, bound: int) -> QuadSurd | None:
    """sqrt(disc)/min |q| over 0 < max(|x|, |y|) <= bound, trying every point."""
    box = range(-bound, bound + 1)
    least = min(abs(q(x, y)) for x in box for y in box if x or y)
    if least == 0:
        return None
    n, m = q.discriminant.as_integer_ratio()
    a, b = least.as_integer_ratio()
    return QuadSurd(0, b, n * m, m * a)  # sqrt(n/m)/(a/b)


def test_markov_sup_exact_equals_the_box_minimum():
    from gmspec.spectrum import QForm

    rng = random.Random(61)

    def coeff() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    forms = []
    while len(forms) < 150:  # random forms, often with a negative or fractional a
        a, b, c = coeff(), coeff(), coeff()
        if a and b * b - 4 * a * c > 0:
            forms.append(QForm(a, b, c))
    for _ in range(50):  # f (u x - v y)(w x - z y): rational roots v/u, z/w
        f, u, w = coeff() or Fraction(1), rng.randint(1, 3), rng.randint(-3, 3) or 1
        v, z = rng.randint(-6, 6), rng.randint(-6, 6)
        if v * w != z * u:
            forms.append(QForm(f * u * w, -f * (u * z + v * w), f * v * z))
    vanished = 0
    for q in forms:
        for bound in range(1, 6):
            want = _box_sup(q, bound)
            assert markov_sup_exact(q, bound) == want, (q, bound)
            vanished += want is None
    assert 0 < vanished < len(forms) * 5


def test_qform_requires_indefinite():
    from gmspec.spectrum import QForm

    with pytest.raises(ValueError):
        QForm(Fraction(1), Fraction(0), Fraction(1))  # x^2 + y^2


def test_markov_sup_below_lagrange():
    rng = random.Random(52)
    for _ in range(10):
        seq = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 6)))
        sup = markov_sup_exact(qform_of(seq), 300)
        assert sup is not None
        assert not lagrange_value(seq) < sup


def test_enumerate_spectrum_fixture_000():
    elems = enumerate_spectrum((0, 0, 0), 2)
    values = [el.value for el in elems]
    assert values[:5] == [
        QuadSurd(0, 1, 5, 1),
        QuadSurd(0, 2, 2, 1),
        QuadSurd(0, 1, 221, 5),
        QuadSurd(0, 1, 1517, 13),
        QuadSurd(0, 1, 7565, 29),
    ]


def test_enumerate_spectrum_fixture_001():
    elems = enumerate_spectrum((0, 0, 1), 2)
    values = [el.value for el in elems]
    assert values[0] == QuadSurd(0, 1, 5, 1)
    assert values[1] == QuadSurd(0, 2, 3, 1)
    assert QuadSurd(0, 1, 13, 1) in values
    assert QuadSurd(0, 1, 15, 1) in values


def test_spectrum_window():
    # every element sits in [2 + ki + kj, 3 + k1 + k2 + k3] for the two
    # smallest coefficients
    rng = random.Random(53)
    for _ in range(6):
        k = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        lo = 2 + sum(sorted(k)[:2])
        hi = 3 + sum(k)
        for el in enumerate_spectrum(k, 3):
            assert not el.value < QuadSurd(lo, 0, 1, 1)
            assert not QuadSurd(hi, 0, 1, 1) < el.value


def test_alternating_group_reduction():
    # the union over all six permutations adds no values beyond the even ones
    from gmspec.gmtree import ALTERNATING
    from gmspec.spectrum import markov_value as mv

    for k in ((0, 0, 1), (1, 2, 0), (0, 1, 3)):
        even = {el.sort_key() for el in enumerate_spectrum(k, 3)}
        full = set()
        for sigma in ALL_SIGMAS:
            params = GMParams(*k, sigma)
            for t in grid_fractions(3) + [F("0/1"), F("1/0")]:
                full.add(mv(t, params).value.squared_fraction())
        assert full == even


def test_spectrum_sorted_and_distinct():
    elems = enumerate_spectrum((1, 2, 0), 4)
    keys = [el.sort_key() for el in elems]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_main_theorem_exact_on_sample():
    rng = random.Random(54)
    for _ in range(25):
        k = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        sigma = rng.choice(ALL_SIGMAS)
        params = GMParams(*k, sigma)
        t = rng.choice(grid_fractions(4))
        s = admissible_sequence(t, params)
        el = markov_value(t, params)
        assert lagrange_value(s) == ell_periodic(s) == el.value
        # duality through the reversed arrangement at the reciprocal label
        s_star = admissible_sequence(t.reciprocal(), GMParams(*k, sigma[::-1]))
        assert lagrange_value(s_star) == el.value


def test_field_membership():
    rng = random.Random(55)
    for _ in range(25):
        params = GMParams(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        t = rng.choice(grid_fractions(4))
        alpha = alpha_fixed_point(admissible_sequence(t, params))
        assert alpha.D == markov_value(t, params).value.D


def test_remark_strict_inclusion_witness():
    val = lagrange_value((1, 1, 1, 2, 2, 2))
    assert val == QuadSurd(0, 4, 210, 19)
    assert alpha_fixed_point((1, 1, 1, 2, 2, 2)) == QuadSurd(17, 2, 210, 29)
    assert val < QuadSurd(0, 2, 3, 1)
    assert QuadSurd(3, 0, 1, 1) < val
    assert val < FREIMAN_CONSTANT


def _triple(el):
    return (el.params.k1, el.params.k2, el.params.k3)


def test_transition_scan_tiny():
    hits = transition_scan(1, 3)
    vals = {el.sort_key() for el in hits}
    assert QuadSurd(0, 2, 3, 1).squared_fraction() in vals
    assert QuadSurd(0, 1, 5, 1).squared_fraction() not in vals
    # (0,0,0) must contribute nothing; (0,1,1) exactly 2*sqrt(3)
    assert all(_triple(el) != (0, 0, 0) for el in hits)
    from_011 = {el.sort_key() for el in hits if _triple(el) == (0, 1, 1)}
    assert from_011 == {QuadSurd(0, 2, 3, 1).squared_fraction()}


def _reference_spectrum(k, depth):
    """The surd-per-vertex enumeration: a SpectrumElement for every boundary
    label and tree vertex, deduplicated and sorted on Fraction keys."""
    seen = {}
    for sigma in ALTERNATING:
        params = GMParams(*k, sigma)
        elems = [markov_value(F("0/1"), params), markov_value(F("1/0"), params)]
        for t, node in enumerate_tree(params, depth):
            n, pos = node.mid.value, node.mid.pos
            delta = (params.coeff_sum * n - params.k_at(pos)) ** 2 - 4
            elems.append(SpectrumElement(QuadSurd(0, 1, delta, n), n, pos, t, params))
        for el in elems:
            seen.setdefault(el.value.squared_fraction(), el)
    return [seen[key] for key in sorted(seen)]


def _rows(elems):
    return [
        (el.value.p, el.value.q, el.value.D, el.value.r, el.n, el.pos, el.t, el.params.sigma)
        for el in elems
    ]


# the triples of the spectrum-deep benchmark workload, three with distinct
# entries and three with two equal ones
_DEEP_TRIPLES = ((0, 1, 5), (0, 2, 4), (1, 2, 3), (0, 0, 5), (1, 1, 3), (2, 2, 1))


@pytest.mark.parametrize(
    "k, depths",
    [(k, range(5)) for k in grid_triples()] + [(k, (6,)) for k in _DEEP_TRIPLES],
)
def test_enumerate_spectrum_matches_reference(k, depths):
    for depth in depths:
        assert _rows(enumerate_spectrum(k, depth)) == _rows(_reference_spectrum(k, depth))


@pytest.mark.parametrize(
    "cases",
    [
        [(k, depth) for k in grid_triples() for depth in range(8)],
        [(k, 8) for k in _DEEP_TRIPLES],
        # the roots that transition_scan reads of every triple with K >= 5
        [(k, 0) for k in itertools.product(range(4), repeat=3) if 3 + sum(k) >= 5],
        # runs with n on both sides of _WIDE_N, merged by both comparisons
        [((10**20, 0, 0), 6), ((1, 2, 0), 11)],
    ],
    ids=["grid-triples", "spectrum-deep", "window-cut", "wide"],
)
def test_distinct_values_match_the_gcd_key_oracle(cases):
    for k, depth in cases:
        assert _distinct_values(k, depth) == spectrum_oracle.distinct_values(k, depth), (k, depth)


def _tie_n(k, n_1):
    """The least n at which the class k2 reaches the class k1's value at n_1,
    by bisection on the exact test."""
    big_k = 3 + sum(k)
    delta_1 = (big_k * n_1 - k[0]) ** 2 - 4
    below = lambda n: ((big_k * n - k[1]) ** 2 - 4) * n_1 * n_1 < delta_1 * n * n
    lo, hi = 0, 1
    while below(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return hi


@st.composite
def _wide_pairs(draw):
    """(k, n_1, n_2) with n_1 >= _WIDE_N, for a row of class k1 at n_1 and one
    of class k2 at n_2: a pair with D = k1 n_2 - k2 n_1 = 0, or a pair near a
    tie of the two values, which puts E's bit length on either side of the
    shortcut's bound."""
    k = draw(st.tuples(*[st.integers(0, 6)] * 3))
    n_1 = draw(st.integers(_WIDE_N, _WIDE_N << 200))
    if k[0] and k[1] and draw(st.booleans()):
        return k, k[0] * n_1, k[1] * n_1
    n_2 = _tie_n(k, n_1) << draw(st.integers(0, 2)) >> draw(st.integers(0, 2))
    return k, n_1, max(1, n_2 + draw(st.integers(-2, 2)))


@settings(max_examples=300, deadline=None)
@given(_wide_pairs())
@example(((1, 2, 0), 2 * _WIDE_N, 4 * _WIDE_N))  # D = 0
@example(((1, 2, 0), _WIDE_N, 3 * _WIDE_N))  # E far below the bound
# at the tie n_2 = t of (0,1,0): E is one bit below the bound at t - 1, and
# at t and 2t at the bound and one bit above it, where -D's sign is wrong
@example(((0, 1, 0), _WIDE_N, _tie_n((0, 1, 0), _WIDE_N) - 1))
@example(((0, 1, 0), _WIDE_N, _tie_n((0, 1, 0), _WIDE_N)))
@example(((0, 1, 0), _WIDE_N, 2 * _tie_n((0, 1, 0), _WIDE_N)))
def test_identity_merge_orders_a_pair_as_the_two_products_do(pair):
    k, n_1, n_2 = pair
    params = GMParams(*k, (1, 2, 3))
    big_k = 3 + sum(k)
    # the 0/1 row is walked before the 1/0 row, so a tie keeps x
    x = ((big_k * n_1 - k[0]) ** 2 - 4, n_1, 1, 0, 1, params)
    y = ((big_k * n_2 - k[1]) ** 2 - 4, n_2, 2, 1, 0, params)
    side = x[0] * n_2 * n_2 - y[0] * n_1 * n_1
    want = [x, y] if side < 0 else [y, x] if side > 0 else [x]
    for a, b in ((x, y), (y, x)):
        for wide in (True, False):
            got = _merge(([a], [a[1] ** 2]), ([b], [b[1] ** 2]), k, wide)
            assert got == (want, [z[1] ** 2 for z in want]), (k, n_1, n_2, wide)


def test_no_depth_8_spectrum_deep_merge_compares_by_the_identity(monkeypatch):
    # every arrangement of the benchmark's triples stays below _WIDE_N at
    # depth 8; the requests of the "wide" oracle case above reach it
    seen = []

    def recorded(a, b, k, wide):
        seen.append(wide)
        return _merge(a, b, k, wide)

    monkeypatch.setattr("gmspec.spectrum._merge", recorded)
    for k in {k for triple in _DEEP_TRIPLES for k in itertools.permutations(triple)}:
        assert max(row[1] for row in _distinct_values(k, 8)) < _WIDE_N, k
    assert seen and not any(seen)
    seen.clear()
    for k, depth in (((10**20, 0, 0), 6), ((1, 2, 0), 11)):
        assert max(row[1] for row in _distinct_values(k, depth)) >= _WIDE_N
    assert seen and all(seen)


def _witnesses_in_walk_order(k, depth):
    """An element per witness: each even tree's 0/1 and 1/0, then its
    vertices breadth-first."""
    for sigma in ALTERNATING:
        params = GMParams(*k, sigma)
        labels = [F("0/1"), F("1/0")] + [t for t, _ in enumerate_tree(params, depth)]
        yield from (markov_value(t, params) for t in labels)


def test_walk_order_ranks_the_witnesses_as_walked():
    for k in ((0, 1, 5), (2, 2, 1), (3, 3, 3)):
        keys = [
            _walk_order((None, el.n, el.pos, el.t.num, el.t.den, el.params))
            for el in _witnesses_in_walk_order(k, 5)
        ]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), k


@pytest.mark.parametrize("k", sorted(set(itertools.permutations((0, 2, 4)))))
def test_a_cross_class_tie_keeps_the_witness_walked_first(k):
    # K = 9: sqrt(9^2 - 4)/1 in class 0 equals sqrt(79^2 - 4)/9 in class 2
    for depth in range(2, 6):
        ties = [el for el in _witnesses_in_walk_order(k, depth) if el.sort_key() == 77]
        assert {el.params.k_at(el.pos) for el in ties} == {0, 2}
        rows = [el for el in enumerate_spectrum(k, depth) if el.sort_key() == 77]
        assert _rows(rows) == _rows(ties[:1])


@pytest.mark.parametrize("k, walks", [((0, 1, 5), 3), ((1, 1, 3), 2), ((2, 2, 2), 1)])
def test_mirror_trees_are_walked_once(monkeypatch, k, walks):
    sigmas = []

    def counted(params, depth):
        sigmas.append(params.sigma)
        return _walk_tree(params, depth)

    monkeypatch.setattr("gmspec.spectrum._walk_tree", counted)
    enumerate_spectrum(k, 3)
    assert len(sigmas) == walks


def _tree_values(params, depth):
    """The (Delta, n) of a tree's 0/1, 1/0 and vertices to depth."""
    walk = _walk_tree(params, depth)
    root = walk[0][4]
    pairs = [root[:2], root[4:]] + [node[2:4] for *_, node in walk]
    return {((params.coeff_sum * n - params.k_at(pos)) ** 2 - 4, n) for n, pos in pairs}


def test_a_skipped_tree_has_the_values_of_the_tree_it_mirrors():
    skipped = 0
    for k in itertools.product(range(6), repeat=3):
        trees = [GMParams(*k, sigma) for sigma in ALTERNATING]
        for j, params in enumerate(trees):
            kappas = (params.kappa, params.kappa[::-1])
            mirrored = [earlier for earlier in trees[:j] if earlier.kappa in kappas]
            if not mirrored:
                continue
            skipped += 1
            for depth in range(7):
                want = _tree_values(mirrored[0], depth)
                assert _tree_values(params, depth) == want, (k, params.sigma, depth)
    # one tree for each of the 90 triples with exactly two equal entries, two
    # for each of the 6 with three
    assert skipped == 90 + 2 * 6


@functools.lru_cache(maxsize=None)
def _enumerated(k, depth):
    return enumerate_spectrum(k, depth)


def reference_transition_scan(kmax, depth):
    """The unpruned scan: every enumerated value of every triple, compared
    exactly against 3 and c_F."""
    three = QuadSurd.from_fraction(3)
    out = []
    for k in itertools.product(range(kmax + 1), repeat=3):
        for el in _enumerated(k, depth):
            if el.value < three:
                continue
            if el.value < FREIMAN_CONSTANT:
                out.append(el)
    return out


@pytest.mark.parametrize(
    "kmax, depths",
    [(0, range(7)), (1, range(7)), (2, range(7)), (3, range(5)), (4, range(4))],
)
def test_transition_scan_matches_unpruned_reference(kmax, depths):
    for depth in depths:
        got = transition_scan(kmax, depth)
        want = reference_transition_scan(kmax, depth)
        assert [el.params for el in got] == [el.params for el in want]
        assert _rows(got) == _rows(want)


@pytest.mark.parametrize("depth", range(4))
def test_transition_scan_matches_the_window_cut_scan(depth):
    # the scan that reads every K >= 5 triple against its class ends, and
    # at depth 0 the largest --kmax, whose 29,791 triples it reads in full
    for kmax in [*range(13), *([30] if depth == 0 else [])]:
        got = transition_scan(kmax, depth)
        want = spectrum_oracle.transition_scan(kmax, depth)
        assert [el.params for el in got] == [el.params for el in want], (kmax, depth)
        assert _rows(got) == _rows(want), (kmax, depth)


def test_root_lemma_holds_on_integers_for_every_k_from_6():
    # c_F lies in (4.52, 4.53), so a square of 4.53^2 or more is at or above
    # it and a square below 4.52^2 under it, in integers scaled by 100^2
    assert QuadSurd(452, 0, 1, 100) < FREIMAN_CONSTANT < QuadSurd(453, 0, 1, 100)
    # up to the K of the largest --kmax, 3 + 3 * 30, and every class c <= K - 3
    for big_k in range(6, 94):
        for c in range(big_k - 2):
            # the middle root row of class c, at n = c + 2, is at least c_F
            n = c + 2
            assert 100**2 * ((big_k * n - c) ** 2 - 4) >= 453**2 * n * n, (big_k, c)
            # a row at n = 1 is in [3, c_F) exactly when K - c = 4
            square = (big_k - c) ** 2 - 4
            assert not 452**2 <= 100**2 * square < 453**2, (big_k, c)
            in_window = 9 <= square and 100**2 * square < 452**2
            assert in_window == (big_k - c == 4), (big_k, c)
    # the middle root row of every tree is the class c = k_pos at n = c + 2
    for k in itertools.product(range(6), repeat=3):
        for sigma in ALL_SIGMAS:
            _, _, n, pos, _, _ = _walk_tree(GMParams(*k, sigma), 0)[0][4]
            assert n == k[pos - 1] + 2, (k, sigma)


def test_scan_reads_only_the_k4_and_k5_triples(monkeypatch):
    read = []

    def counted(k, depth):
        read.append(k)
        return _distinct_values(k, depth)

    monkeypatch.setattr("gmspec.spectrum._distinct_values", counted)
    hits = transition_scan(30, 0)
    # the permutations of (1,0,0), K = 4, and of (2,0,0) and (1,1,0), K = 5
    assert read == [k for k in itertools.product(range(31), repeat=3) if 4 <= 3 + sum(k) <= 5]
    assert len(read) == 9
    # a K >= 6 triple has a row exactly when an entry is K - 4: the
    # permutations of (m, 1, 0) for m from 2 to 30, one row each
    k6 = [_triple(el) for el in hits if sum(_triple(el)) >= 3]
    assert k6 == [
        k for k in itertools.product(range(31), repeat=3) if 3 + sum(k) - 4 in k and sum(k) >= 3
    ]
    assert len(k6) == 6 * 29


def test_direct_k6_rows_are_the_filtered_rows_they_replace():
    # each K >= 6 row of the scan against the n = 1 row of class K - 4 among
    # the triple's depth-0 rows, the row the scan read before
    hits = {_triple(el): el for el in transition_scan(30, 0) if sum(_triple(el)) >= 3}
    for m in range(2, 31):
        for k in set(itertools.permutations((m, 1, 0))):
            big_k = 3 + sum(k)
            (row,) = [
                row for row in _distinct_values(k, 0)
                if row[1] == 1 and big_k - k[row[2] - 1] == 4
            ]
            delta, n, pos, num, den, params = row
            el, x = hits[k], _sqrt_over(delta, n)
            assert (delta, n) == (12, 1), k
            assert (el.value.p, el.value.q, el.value.D, el.value.r) == (x.p, x.q, x.D, x.r), k
            assert (el.n, el.pos, el.t.num, el.t.den, el.params) == (n, pos, num, den, params), k


@pytest.mark.parametrize("kmax, depth", [(2, 4), (5, 3)])
def test_scan_hits_with_one_value_share_one_surd(kmax, depth):
    hits = transition_scan(kmax, depth)
    first = {}
    for el in hits:
        v = el.value
        assert el.value is first.setdefault((v.p, v.q, v.D, v.r, el.n), v), el
    # the permutations of (1,0,0) share their whole spectrum
    assert len(first) < len(hits)


def _class_value(big_k, c, n):
    return QuadSurd(0, 1, (big_k * n - c) ** 2 - 4, n)


def test_window_cut_is_the_least_n_whose_bound_reaches_c_f():
    # every class (K, k_i) of every triple: the cut is the least n whose
    # value reaches c_F, and K <= 4 has none
    for k in itertools.product(range(6), repeat=3):
        big_k = 3 + sum(k)
        for c in set(k):
            cut = _window_cut(big_k, c)
            if big_k <= 4:
                assert cut is None
                continue
            assert not _class_value(big_k, c, cut) < FREIMAN_CONSTANT
            assert cut == 1 or _class_value(big_k, c, cut - 1) < FREIMAN_CONSTANT


def test_sqrt_over_and_its_decimal_match_the_general_paths_on_the_grid_rows():
    # every distinct row of the verify grid, with Delta on both sides of the
    # bound where the square split turns best-effort
    rows = [row for k in grid_triples() for row in _distinct_values(k, 6)]
    assert min(r[0] for r in rows) < _FULL_FACTOR_BOUND <= max(r[0] for r in rows)
    for i, (delta, n, *_) in enumerate(rows):
        x, want = _sqrt_over(delta, n), QuadSurd(0, 1, delta, n)
        assert (x.p, x.q, x.D, x.r) == (want.p, want.q, want.D, want.r), (delta, n)
        for sig in range(1, 21) if i % 10 == 0 else (12,):
            assert decimal_str(x, sig) == _decimal_interval(x, sig), (x, sig)


def test_quotient_root_decimal_matches_the_former_decimal_on_the_grid_rows():
    # every distinct depth-7 grid row and depth-8 spectrum-deep row
    rows = [row for k in grid_triples() for row in _distinct_values(k, 7)]
    rows += [row for k in _DEEP_TRIPLES for row in _distinct_values(k, 8)]
    for i, (delta, n, *_) in enumerate(rows):
        x = _sqrt_over(delta, n)
        assert _floor_surd(0, x.q, x.D, x.r) == exact_oracle.floor_surd(0, x.q, x.D, x.r)
        assert x.interval(64) == exact_oracle.floor_surd(0, x.q << 64, x.D, x.r), x
        for sig in range(1, 41) if i % 50 == 0 else (12,):
            assert decimal_str(x, sig) == exact_oracle.decimal_sqrt(x, sig), (x, sig)


def test_walked_labels_are_reduced():
    # each row's label passes IrreducibleFraction's gcd check
    rows = [row for k in grid_triples() for row in _distinct_values(k, 8)]
    assert all(math.gcd(num, den) == 1 for *_, num, den, _ in rows)


def test_built_objects_stay_immutable():
    # an element from the public constructors, and a surd from the fast path
    delta, n, pos, num, den, params = next(
        row for row in _distinct_values((1, 2, 0), 3) if row[3] > 1 and row[4] > 1
    )
    el = SpectrumElement(
        QuadSurd(0, 1, delta, n), n, pos, IrreducibleFraction(num, den), params
    )
    for obj, fields in (
        (el, ("value", "n", "pos", "t", "params")),
        (el.value, ("p", "q", "D", "r")),
        (el.t, ("num", "den")),
    ):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):  # a new name is refused too
            obj.extra = 0
    assert not hasattr(el.t, "__dict__")
    with pytest.raises(AttributeError):
        _sqrt_over(delta, n).q = 1
    # gm_node's cache hits on an equal label built apart
    gm_node.cache_clear()
    node = gm_node(el.t, params)
    assert gm_node(IrreducibleFraction(num, den), params) is node
    assert gm_node.cache_info().hits == 1


def test_values_survive_pickle_and_copy():
    # QuadSurd refuses __setattr__, so pickle and copy rebuild it through
    # its constructor; an element holds one
    el = enumerate_spectrum((1, 2, 0), 3)[-1]
    entry = _grid((1, 2, 0), 3)[1]
    for obj in (QuadSurd(0, 1, 5, 2), el.value, el, entry):
        clones = [pickle.loads(pickle.dumps(obj, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in (*clones, copy.copy(obj), copy.deepcopy(obj)):
            assert type(clone) is type(obj) and clone == obj, (obj, clone)
            assert hash(clone) == hash(obj), obj


def test_frozen_slots_classes_refuse_every_set_and_delete():
    # under CPython 3.11 a slots=True frozen dataclass answered a name that
    # is not a field with TypeError from super(); each now raises
    # FrozenInstanceError, while slot setters, pickle and copy still write
    el = enumerate_spectrum((1, 2, 0), 3)[-1]
    entry = _grid((1, 2, 0), 3)[1]
    pair = gm_node(el.t, el.params).mid
    for obj in (el, el.t, pair, entry):
        fields = [f.name for f in dataclasses.fields(obj)]
        before = [getattr(obj, f) for f in fields]
        for name in (*fields, "extra", "__class__"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
                setattr(obj, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
                delattr(obj, name)
        assert [getattr(obj, f) for f in fields] == before and not hasattr(obj, "extra")
        assert copy.copy(obj) == obj == pickle.loads(pickle.dumps(obj))
    (set_n,) = _slot_setters(SpectrumElement, "n")
    clone = copy.copy(el)
    set_n(clone, el.n + 1)
    assert clone.n == el.n + 1 and el.n == clone.n - 1


def test_sqrt_over_matches_the_former_square_split_on_the_grid_rows():
    # the m - 2, m + 2 split below the bound and the residue pre-test above it
    # give the former split's (s, d) on every distinct depth-7 grid row
    rows = [row for k in grid_triples() for row in _distinct_values(k, 7)]
    assert min(r[0] for r in rows) < _FULL_FACTOR_BOUND <= max(r[0] for r in rows)
    for delta, n, *_ in rows:
        s, d = nonsquare_split(delta)
        g = math.gcd(s, n)
        x = _sqrt_over(delta, n)
        assert (x.p, x.q, x.D, x.r) == (0, s // g, d, n // g), (delta, n)


@st.composite
def _class_radicands(draw):
    """(Delta, n) of a value of the class c = k_i under K = 3 + k1 + k2 + k3:
    Delta = m^2 - 4 with m = K n - c, K >= c + 3 and n >= 1.  Delta falls
    below _FULL_FACTOR_BOUND, in [10^14, 13^2 10^14), where taking out the
    squares of 2..13 can drop the cofactor below the bound, or far above it;
    m is drawn as it comes or with m = +-2 mod p^2 for p in 3, 5, 7, 11, 13,
    so that p^2 divides Delta = (m - 2)(m + 2)."""
    m = draw(st.one_of(
        st.integers(3, 10**7 - 1), st.integers(10**7, 13 * 10**7), st.integers(13 * 10**7, 10**40),
    ))
    p = draw(st.sampled_from((None, 3, 5, 7, 11, 13)))
    if p is not None:
        m += (draw(st.sampled_from((2, -2))) - m) % (p * p)
    n = draw(st.integers(1, 40))
    c = (-m) % n + n * draw(st.integers(0, 3))  # n divides m + c
    if m < (n - 1) * c + 3 * n:  # K = (m + c)/n would be below c + 3
        n, c = 1, draw(st.integers(0, 5))
    return (m * m - 4, n)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_class_radicands())
@example((10**14 - 4, 1))  # m = 10^7: Delta just below the bound
@example(((10**7 + 2) ** 2 - 4, 4))  # m = 10^7 + 2: Delta = 10^7 (10^7 + 4), just above it
@example(((9 * 10**7 + 2) ** 2 - 4, 9 * 10**7 + 2))  # m = 2 mod 9: 9 divides m - 2; n = m
def test_row_columns_are_the_fields_of_sqrt_over(case):
    # the (q, D, r) a --k row carries are the fields of the surd `_sqrt_over`
    # builds, of the general constructor's surd and of the former split
    delta, n = case
    q, d, r = _sqrt_over_ints(delta, n)
    x = _sqrt_over(delta, n)
    want = QuadSurd(0, 1, delta, n)
    assert (x.p, x.q, x.D, x.r) == (0, q, d, r) == (want.p, want.q, want.D, want.r), case
    s, sq_free = nonsquare_split(delta)
    g = math.gcd(s, n)
    assert (q, d, r) == (s // g, sq_free, n // g), case


def test_spectrum_rows_are_the_oracle_rows_with_their_surd_fields():
    # the row source, against the gcd-key oracle's rows each turned into its
    # surd by `_sqrt_over`: same rows, same order, same fields
    cases = [(k, 5) for k in sorted(set(grid_triples()))]
    cases += [(k, 6) for k in _DEEP_TRIPLES] + [((10**20, 0, 0), 4)]
    for k, depth in cases:
        want = []
        for delta, n, pos, num, den, params in spectrum_oracle.distinct_values(k, depth):
            x = _sqrt_over(delta, n)
            want.append((n, pos, num, den, params, x.q, x.D, x.r))
        assert _spectrum_rows(k, depth) == want, (k, depth)
        elems = enumerate_spectrum(k, depth)
        assert [(el.n, el.pos, el.t.num, el.t.den, el.params, el.value.p, el.value.q,
                 el.value.D, el.value.r) for el in elems] == [(*w[:5], 0, *w[5:]) for w in want]


def test_cmp_matches_the_interval_oracle_on_spectrum_values():
    # adjacent distinct values, both ways, and every depth-6 grid row against
    # the ends of the transition window
    xs = [_sqrt_over(delta, n) for delta, n, *_ in _distinct_values((1, 2, 0), 8)]
    for x, y in itertools.pairwise(xs):
        assert x._cmp(y) == exact_oracle.cmp(x, y) == -1, (x, y)
        assert y._cmp(x) == exact_oracle.cmp(y, x) == 1, (x, y)
    three = QuadSurd(3, 0, 1, 1)
    for k in grid_triples():
        for delta, n, *_ in _distinct_values(k, 6):
            x = _sqrt_over(delta, n)
            for end in (three, FREIMAN_CONSTANT):
                assert x._cmp(end) == exact_oracle.cmp(x, end), (k, x, end)
                assert end._cmp(x) == exact_oracle.cmp(end, x), (k, x, end)


def test_window_cut_is_at_most_5_for_every_k_from_5():
    # the lemma's value half, up to the K of the largest --kmax, 3 + 3 * 30:
    # a class (K, c) with c <= K - 3 reaches c_F by n = 5
    for big_k in range(5, 94):
        for c in range(big_k - 2):
            assert _window_cut(big_k, c) <= 5, (big_k, c)


def test_vertices_below_the_root_have_n_at_least_5():
    # the lemma's tree half, on every tree that transition_scan reads at depth 0
    for k in itertools.product(range(6), repeat=3):
        if 3 + sum(k) < 5:
            continue
        for sigma in ALL_SIGMAS:
            walk = _walk_tree(GMParams(*k, sigma), 5)
            assert min(node[2] for *_, node in walk[1:]) >= 5, (k, sigma)


@pytest.mark.parametrize("k", [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
def test_scan_lists_a_k4_triple_as_its_spectrum_without_sqrt5(k):
    sqrt5 = QuadSurd(0, 1, 5, 1)
    for depth in range(8):
        got = [
            el for el in transition_scan(1, depth)
            if (el.params.k1, el.params.k2, el.params.k3) == k
        ]
        spectrum = enumerate_spectrum(k, depth)
        want = [el for el in spectrum if el.value != sqrt5]
        assert len(want) == len(spectrum) - 1
        assert _rows(got) == _rows(want), (k, depth)
