import itertools
import math
import random
from fractions import Fraction

import pytest
from lattice_oracle import admissible_sequence_with_delta
from lattice_oracle import segment_sign_sequence as reference_segment_sign_sequence
from lattice_oracle import segment_signs

from gmspec.exact import cf_matrix
from gmspec.farey import IrreducibleFraction
from gmspec.gmtree import ALL_SIGMAS, GMParams, gm_pair, parse_sigma
from gmspec.lattice import (
    _skeleton,
    _weigh,
    admissible_sequence,
    gm_distance,
    gm_length,
    segment_sign_sequence,
)
from gmspec.verify import grid_fractions

F = IrreducibleFraction.parse
P120 = GMParams(1, 2, 0)


def test_admissible_fixtures():
    assert admissible_sequence(F("2/5"), GMParams(0, 0, 0)) == (2, 1, 1, 1, 1, 2, 2, 1, 1, 2)
    assert admissible_sequence(F("3/2"), GMParams(0, 0, 0)) == (2, 2, 2, 2, 1, 1)
    assert admissible_sequence(F("2/5"), P120) == (5, 1, 3, 3, 1, 5, 4, 1, 3, 4)
    assert admissible_sequence(F("0/1"), P120) == (3, 1)
    assert admissible_sequence(F("1/0"), P120) == (4, 1)
    assert admissible_sequence(F("0/1"), GMParams(0, 0, 0)) == (1, 1)
    assert admissible_sequence(F("2/3"), GMParams(1, 2, 0, parse_sigma("(1 2 3)"))) == (
        5, 1, 1, 5, 3, 2,
    )


def test_admissible_structure():
    rng = random.Random(41)
    for _ in range(40):
        params = GMParams(
            rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3), rng.choice(ALL_SIGMAS)
        )
        t = rng.choice(grid_fractions(5))
        s = admissible_sequence(t, params)
        assert len(s) % 2 == 0
        assert s[0] == 2 + params.k1 + params.k2 + params.k3
        if t.num < t.den:
            assert s[1] == 1 and s[-1] != 1
        elif t.num > t.den:
            assert s[1] != 1 and s[-1] == 1


def test_admissible_semi_palindrome_structure():
    # interior entries mirror around the middle with a coefficient correction
    rng = random.Random(42)
    half, one, two = F("1/2"), F("1/1"), F("2/1")
    for _ in range(120):
        params = GMParams(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        t = rng.choice(grid_fractions(6))
        s = admissible_sequence(t, params)
        n = len(s)
        k_t = params.k_at(gm_pair(t, params).pos)
        if t == one:
            assert s == (2 + params.k1 + params.k2 + params.k3, 2 + params.kappa[1])
        elif t == half:
            assert n == 4 and s[3] == s[2] + 1 + k_t
        elif t == two:
            assert n == 4 and s[1] == s[2] + 1 + k_t
        elif t < one:
            assert s[2] + 1 == s[-1]
            for i in range(1, n // 2 - 2):
                assert s[2 + i] == s[n - 1 - i]
            assert s[n // 2] == s[n // 2 + 1] + (-1) ** (n // 2 + 1) * k_t
        else:
            assert s[1] == s[-2] + 1
            for i in range(1, n // 2 - 2):
                assert s[1 + i] == s[n - 2 - i]
            assert s[n // 2 - 1] == s[n // 2] + (-1) ** (n // 2) * k_t


def test_admissible_duality():
    # the reversed-arrangement sequence of 1/t is (a1, an, a_{n-1}, ..., a2)
    rng = random.Random(43)
    for _ in range(60):
        k = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        sigma = rng.choice(ALL_SIGMAS)
        t = rng.choice(grid_fractions(5))
        s = admissible_sequence(t, GMParams(*k, sigma))
        s_star = admissible_sequence(t.reciprocal(), GMParams(*k, sigma[::-1]))
        assert s_star == (s[0],) + s[1:][::-1]


def test_concrete_delta_matches_symbolic():
    for t in grid_fractions(5):
        for kappa in itertools.product(range(3), repeat=3):
            params = GMParams(*kappa)
            want = admissible_sequence(t, params)
            delta = Fraction(1, 4 * (t.num + t.den) ** 2)
            assert admissible_sequence_with_delta(t, params, delta) == want
            assert admissible_sequence_with_delta(t, params, delta / 2) == want


def test_segment_matches_reference():
    for a, (dx, dy), side, triple in itertools.product(
        ((0, 0), (2, -3), (-4, 1)),
        itertools.product(range(-7, 8), repeat=2),
        ("left", "right"),
        ((0, 0, 0), (1, 2, 0), (3, 1, 2)),
    ):
        if (dx, dy) == (0, 0):
            continue
        b, params = (a[0] + dx, a[1] + dy), GMParams(*triple)
        assert segment_sign_sequence(a, b, params, side) == reference_segment_sign_sequence(
            a, b, params, side
        ), (a, b, side, triple)


def test_segment_fixtures():
    assert segment_sign_sequence((0, 0), (3, 2), P120) == (4, 4, 5, 4)
    assert segment_sign_sequence((0, 0), (6, 4), P120) == (4, 5, 4, 4, 5, 1, 3, 5, 4, 4)
    assert segment_sign_sequence((0, 0), (3, 2), P120, endpoints=(1, -1)) == (
        1, 3, 4, 5, 3, 1,
    )
    assert gm_length((1, 3, 4, 5, 3, 1)) == 373


def test_segment_unit_steps():
    for d in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)):
        assert segment_sign_sequence((2, 3), (2 + d[0], 3 + d[1]), P120) == ()
    with pytest.raises(ValueError):
        segment_sign_sequence((1, 1), (1, 1), P120)


_BAD_SIDE = "^side must be 'left' or 'right', got 'up'$"
_BAD_ENDS = "^endpoint signs must be 'merge', \\+1, or -1, got "


def test_segment_side_is_checked_for_a_coprime_displacement():
    with pytest.raises(ValueError, match=_BAD_SIDE):
        segment_sign_sequence((0, 0), (3, 2), P120, side="up")


def test_segment_endpoint_signs_are_checked_with_their_own_message():
    for b in ((3, 2), (6, 4)):
        for ends in (("x", "merge"), ("merge", 0), (2, 1)):
            with pytest.raises(ValueError, match=_BAD_ENDS):
                segment_sign_sequence((0, 0), b, P120, endpoints=ends)


def test_segment_unit_step_checks_its_arguments():
    with pytest.raises(ValueError, match=_BAD_SIDE):
        segment_sign_sequence((2, 3), (3, 2), P120, side="up")
    with pytest.raises(ValueError, match=_BAD_ENDS):
        segment_sign_sequence((2, 3), (3, 2), P120, endpoints=(5, 5))


def test_gm_length_fixtures():
    assert gm_length((1, 7, 1, 8, 1, 1, 2, 2, 6, 5)) == 33848
    assert gm_length((4, 4, 5, 4)) == 373
    assert gm_length(()) == 1


def test_gm_distance_fixtures():
    assert gm_distance((0, 0), (3, 2), P120) == 373
    assert gm_distance((1, 1), (1, 1), P120) == 0
    assert gm_distance((5, -2), (6, -2), P120) == 1


def test_distance_equals_tree_value_for_coprime_segments():
    rng = random.Random(45)
    for _ in range(40):
        params = GMParams(
            rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3), rng.choice(ALL_SIGMAS)
        )
        t = rng.choice(grid_fractions(5))
        d = gm_distance((0, 0), (t.den, t.num), params)
        assert d == gm_pair(t, params).value


def test_segment_side_independence():
    rng = random.Random(46)
    cases = 0
    while cases < 30:
        params = GMParams(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        ax, ay = rng.randint(-4, 4), rng.randint(-4, 4)
        dx, dy = rng.randint(-8, 8), rng.randint(-8, 8)
        import math

        if (dx, dy) == (0, 0) or math.gcd(dx, dy) == 1:
            continue
        cases += 1
        b = (ax + dx, ay + dy)
        left = gm_length(segment_sign_sequence((ax, ay), b, params, "left"))
        right = gm_length(segment_sign_sequence((ax, ay), b, params, "right"))
        assert left == right


def test_segment_endpoint_sign_independence():
    rng = random.Random(47)
    for _ in range(30):
        params = GMParams(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        dx, dy = rng.randint(1, 7), rng.randint(1, 7)
        lengths = {
            gm_length(segment_sign_sequence((0, 0), (dx, dy), params, endpoints=(e0, e1)))
            for e0 in (1, -1, "merge")
            for e1 in (1, -1, "merge")
        }
        assert len(lengths) == 1


def test_segment_translation_invariance():
    rng = random.Random(48)
    for _ in range(30):
        params = GMParams(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        ax, ay = rng.randint(-5, 5), rng.randint(-5, 5)
        dx, dy = rng.randint(-6, 6), rng.randint(-6, 6)
        if (dx, dy) == (0, 0):
            continue
        d0 = gm_distance((0, 0), (dx, dy), params)
        assert gm_distance((ax, ay), (ax + dx, ay + dy), params) == d0


def test_distance_symmetry():
    rng = random.Random(50)
    for _ in range(30):
        params = GMParams(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        a = (rng.randint(-4, 4), rng.randint(-4, 4))
        b = (rng.randint(-4, 4), rng.randint(-4, 4))
        assert gm_distance(a, b, params) == gm_distance(b, a, params)


def test_segment_length_against_bruteforce_matchings():
    from gmspec.snake import build_snake_graph, count_matchings_bruteforce

    rng = random.Random(51)
    checked = 0
    while checked < 20:
        params = GMParams(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
        b = (rng.randint(-3, 3), rng.randint(-3, 3))
        if b == (0, 0):
            continue
        seq = segment_sign_sequence((0, 0), b, params)
        if sum(seq) > 16:
            continue
        checked += 1
        assert gm_length(seq) == count_matchings_bruteforce(build_snake_graph(seq))


def test_tail_of_sequence_is_segment_sequence_length():
    # the straight segment's matching count equals the tail continuant of s(t)
    rng = random.Random(49)
    for _ in range(30):
        params = GMParams(
            rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3), rng.choice(ALL_SIGMAS)
        )
        t = rng.choice(grid_fractions(5))
        s = admissible_sequence(t, params)
        assert gm_distance((0, 0), (t.den, t.num), params) == cf_matrix(s).c


def test_skeleton_is_shared_across_kappa_and_matches_the_oracle():
    # the kappa-free skeleton gives the same sequence cold, or warmed by another
    # kappa on the same label, and both equal the concrete-delta walk
    kappas = list(itertools.product(range(3), repeat=3))
    for t in [*grid_fractions(5), F("0/1"), F("1/0")]:
        for i, kappa in enumerate(kappas):
            params = GMParams(*kappa)
            _skeleton.cache_clear()
            cold = admissible_sequence(t, params)
            _skeleton.cache_clear()
            admissible_sequence(t, GMParams(*kappas[i - 1]))
            warm = admissible_sequence(t, params)
            assert cold == warm == admissible_sequence_with_delta(t, params), (t, kappa)


# arrangements with one or two zero multiplicities, under which a run made
# only of edges of those kinds is empty and joins its neighbours
ZERO_KAPPAS = [k for k in itertools.product(range(3), repeat=3) if k.count(0) in (1, 2)]


def _drops_a_run(a, d, u, kappa, start, closing):
    skeleton = _skeleton(a, d, u, start, closing)
    return len(_weigh(skeleton, kappa)) < len(skeleton) // 4


def test_zero_multiplicities_match_the_concrete_delta_walk():
    # every run of a label's string holds a triangle, so none is dropped here
    for t in grid_fractions(7):
        for kappa in ZERO_KAPPAS:
            params = GMParams(*kappa)
            want = admissible_sequence_with_delta(t, params)
            assert admissible_sequence(t, params) == want, (t, kappa)


def test_pinned_segments_with_empty_runs_match_the_reference():
    dropped = 0
    for (dx, dy), side, kappa, ends in itertools.product(
        itertools.product(range(-5, 6), repeat=2),
        ("left", "right"),
        ZERO_KAPPAS,
        ((1, -1), (-1, 1), (1, 1), (-1, "merge")),
    ):
        if (dx, dy) == (0, 0):
            continue
        a, params = (2, -3), GMParams(*kappa)
        b = (a[0] + dx, a[1] + dy)
        want = reference_segment_sign_sequence(a, b, params, side, ends)
        assert segment_sign_sequence(a, b, params, side, ends) == want, (b, side, kappa, ends)
        if math.gcd(dx, dy) == 1:
            dropped += _drops_a_run(a, (dx, dy), (0, 0), kappa, False, None)
    assert dropped


def test_second_kappa_on_a_label_is_a_cache_hit():
    _skeleton.cache_clear()
    admissible_sequence(F("5/8"), GMParams(1, 2, 0))
    hits = _skeleton.cache_info().hits
    admissible_sequence(F("5/8"), GMParams(0, 0, 3))
    assert _skeleton.cache_info().hits == hits + 1


def test_skeleton_cache_is_keyed_by_the_whole_segment():
    # each side offset u and start rule traces its own skeleton, warm or cold
    for a, (dx, dy) in itertools.product(
        ((0, 0), (1, -2)), ((2, 4), (3, 3), (4, -2), (-3, 6), (3, 2))
    ):
        variants = [(u, start) for u in ((-dy, dx), (dy, -dx)) for start in (True, False)]
        cold = []
        for u, start in variants:
            _skeleton.cache_clear()
            cold.append(_weigh(_skeleton(a, (dx, dy), u, start, None), (1, 2, 0)))
        assert len({tuple(c) for c in cold}) == len(variants)
        _skeleton.cache_clear()
        warm = [_weigh(_skeleton(a, (dx, dy), u, start, None), (1, 2, 0)) for u, start in variants]
        assert warm == cold, (a, (dx, dy))


def test_skeleton_cache_is_bounded_and_clears():
    assert _skeleton.cache_info().maxsize is not None
    admissible_sequence(F("3/7"), P120)
    _skeleton.cache_clear()
    assert _skeleton.cache_info().currsize == 0


def test_skeleton_refuses_a_curve_through_a_lattice_point():
    # d with gcd(d) > 1 passes a lattice point unless u pushes it off the line
    for a, d in itertools.product(((0, 0), (3, -4)), ((2, 0), (0, -3), (4, 6), (-6, 3), (2, -2))):
        for u in ((0, 0), d, (-d[0], -d[1])):
            for start in (False, True):
                with pytest.raises(AssertionError, match="lattice point"):
                    _skeleton(a, d, u, start, None)
    # under the start rule the curve also passes a itself
    with pytest.raises(AssertionError, match="lattice point"):
        _skeleton((1, 1), (3, 2), (0, 0), True, None)


# the six open sectors between the lattice directions around a point, counter-clockwise
SECTORS = (
    lambda x, y: x > 0 and y > 0,
    lambda x, y: x < 0 < x + y,
    lambda x, y: y > 0 > x + y,
    lambda x, y: x < 0 and y < 0,
    lambda x, y: x > 0 > x + y,
    lambda x, y: y < 0 < x + y,
)


def test_skeleton_matches_the_fraction_keyed_oracle_under_both_start_rules():
    rng = random.Random(52)
    kappas = ((1, 2, 0), (0, 0, 0), (3, 1, 2), (0, 2, 0))
    seen = [0] * 7  # per sector, then along a lattice direction
    refused = 0
    for _ in range(400):
        a = (rng.randint(-20, 20), rng.randint(-20, 20))
        d = (rng.randint(-9, 9), rng.randint(-9, 9))
        if d == (0, 0):
            continue
        # u to either side of d, on or off its perpendicular, or anywhere
        side, t = rng.choice((1, -1)), rng.randint(-3, 3)
        u = rng.choice((
            (t * d[0] - side * d[1], t * d[1] + side * d[0]),
            (rng.randint(-3, 3), rng.randint(-3, 3)),
        ))
        start = rng.random() < 0.5
        seen[next((i for i, f in enumerate(SECTORS) if f(*d)), 6)] += 1
        cross_du = d[0] * u[1] - d[1] * u[0]
        if not cross_du and (start or math.gcd(*d) > 1):
            refused += 1
            with pytest.raises(AssertionError):
                _skeleton(a, d, u, start, None)
            with pytest.raises(AssertionError):
                segment_signs(a, d, u, GMParams(1, 2, 0), start)
            continue
        skeleton = _skeleton(a, d, u, start, None)
        for kappa in kappas:
            runs = _weigh(skeleton, kappa)
            got = [(-1) ** i for i, n in enumerate(runs) for _ in range(n)]
            assert got == segment_signs(a, d, u, GMParams(*kappa), start), (a, d, u, start, kappa)
    assert min(seen) > 0 and refused > 0, (seen, refused)
