"""Property-based checks over the exact-arithmetic kernel."""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import exact_oracle
from exact_oracle import _decimal_interval, cf_eval_nested, nonsquare_split
from gmspec.exact import (
    _FULL_FACTOR_BOUND,
    QuadSurd,
    _nonsquare_split,
    _sqrt_over,
    cf_eval_periodic,
    cf_matrix,
    decimal_str,
    periodic_cf_expansion,
)
from gmspec.snake import build_snake_graph, continuant, count_matchings_bruteforce
from gmspec.verify import _rotation_min_c

seqs = st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=7).map(tuple)
surds = st.builds(
    QuadSurd,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=12),
)


@given(seqs, seqs)
def test_cf_matrix_is_a_homomorphism(s, t):
    assert cf_matrix(s) * cf_matrix(t) == cf_matrix(s + t)


@given(seqs)
def test_cf_matrix_determinant(s):
    assert cf_matrix(s).det() == (-1) ** len(s)


def _fields(x: QuadSurd) -> tuple[int, int, int, int]:
    return x.p, x.q, x.D, x.r


@given(surds, surds)
def test_cmp_antisymmetry(x, y):
    assert x._cmp(y) == -y._cmp(x)


@given(surds, surds)
@example(QuadSurd(1, 1, 2, 1), QuadSurd(1, -1, 2, 1))  # conjugates share _minpoly
def test_cmp_matches_the_interval_oracle(x, y):
    assert x._cmp(y) == exact_oracle.cmp(x, y)
    conjugate = QuadSurd(x.p, -x.q, x.D, x.r)
    assert x._cmp(conjugate) == exact_oracle.cmp(x, conjugate) == (x.q > 0) - (x.q < 0)


@given(surds, surds)
def test_eq_consistency(x, y):
    assert (x == y) == (x._cmp(y) == 0)
    if x == y:
        assert hash(x) == hash(y)


@given(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-6, max_value=6).filter(lambda q: q != 0),
    st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=60)
def test_expansion_roundtrip(p, q, d, r):
    x = QuadSurd(p, q, d, r)
    pre, per = periodic_cf_expansion(x)
    y = cf_eval_periodic(pre, per)
    assert y == x
    assert _fields(y) == _fields(cf_eval_nested(pre, per))


@given(
    st.one_of(
        st.just(()),
        st.tuples(st.integers(min_value=-50, max_value=50), seqs).map(lambda t: (t[0], *t[1])),
    ),
    st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=20).map(tuple),
)
@example((-7, 3), (9,) * 16)  # N > 10^30
# N = 2^4 3^4 5^2 41^2 613^2 * 2618: the squares of 2, 3 and 5 bring it below
# 10^14 with (41 * 613)^2 still in it
@example((0,), (9, 1, 1, 14, 1, 1, 9, 1, 2, 1, 1, 8, 10, 8, 1, 1, 2, 1))
@settings(max_examples=300)
def test_moebius_evaluation_matches_nested_oracle(pre, per):
    assert _fields(cf_eval_periodic(pre, per)) == _fields(cf_eval_nested(pre, per))


def _class_value(big_k, c, n):
    return QuadSurd(0, 1, (big_k * n - c) ** 2 - 4, n)


@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=10**4),
    st.integers(min_value=1, max_value=10**12),
)
@example(0, 0, 1)
@example(5, 0, 1)  # K = 3 + c, the least K a class with k_i = c has
def test_class_value_increases_with_n(c, extra, n):
    # the lemma behind the window scan: in the class (K, k_i = c) the value
    # sqrt((K n - c)^2 - 4)/n grows with n, so the window is an n-interval
    big_k = 3 + c + extra
    assert _class_value(big_k, c, n) < _class_value(big_k, c, n + 1)


@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=10**4),
    # Delta ~ (K n)^2 falls on both sides of the bound where the split turns best-effort
    st.one_of(st.integers(min_value=1, max_value=10**5), st.integers(min_value=1, max_value=10**12)),
    st.integers(min_value=1, max_value=20),
)
@example(0, 0, 1, 12)  # Delta = 5
@example(0, 1, 2_500_000, 12)  # K n - c = 10^7: Delta = 10^14 - 4, just below the bound
@example(0, 1, 2_500_001, 12)  # and Delta = (10^7 + 4)^2 - 4, above it
def test_sqrt_over_is_the_canonical_spectrum_surd(c, extra, n, sig):
    # a value of the class (K, k_i = c): Delta = (K n - c)^2 - 4 is never a square
    big_k = 3 + c + extra
    delta = (big_k * n - c) ** 2 - 4
    x = _sqrt_over(delta, n)
    assert type(x) is QuadSurd and _fields(x) == _fields(QuadSurd(0, 1, delta, n))
    s, d = nonsquare_split(delta)
    g = math.gcd(s, n)
    assert _fields(x) == (0, s // g, d, n // g)
    assert decimal_str(x, sig) == _decimal_interval(x, sig)


@given(
    # s0^2 d0 with s0 made of 2..13: at or above the bound the squares are
    # taken out until the cofactor falls below it (d0 below the bound) or not
    st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=40).map(math.prod),
    st.one_of(
        st.integers(min_value=2, max_value=_FULL_FACTOR_BOUND - 1),
        st.integers(min_value=_FULL_FACTOR_BOUND, max_value=10**40),
    ),
)
@example(1, _FULL_FACTOR_BOUND - 1)
@example(1, _FULL_FACTOR_BOUND + 1)
@example(2, _FULL_FACTOR_BOUND // 4 + 1)  # 4 d0 just above the bound, d0 below it
@example(2 * 3 * 5 * 7 * 11 * 13, 10**14 - 3)
def test_square_split_matches_the_former_split(s0, d0):
    n = s0 * s0 * d0
    assume(math.isqrt(n) ** 2 != n)
    assert _nonsquare_split(n) == nonsquare_split(n)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=4).map(tuple))
@settings(max_examples=60, deadline=None)
def test_matching_oracle(s):
    assert continuant(s) == count_matchings_bruteforce(build_snake_graph(s))


@given(seqs)
def test_continuant_reversal(s):
    assert continuant(s) == continuant(s[::-1])


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=80).map(tuple))
@settings(deadline=None)
def test_rotation_minimum_over_any_block(s):
    m = cf_matrix(s)
    want = min(cf_matrix(s[i:] + s[:i]).c for i in range(len(s)))
    assert _rotation_min_c(s, (m.a, m.b, m.c, m.d)) == want
