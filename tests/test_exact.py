import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmspec.exact import (
    Mat2,
    QuadSurd,
    cf_eval_periodic,
    cf_matrix,
    _FULL_FACTOR_BOUND,
    _PRIMORIAL,
    _PRIMORIAL_BOUND,
    _floor_surd,
    _past_limit,
    _primorial_split,
    _square_split,
    decimal_str,
    periodic_cf_expansion,
)
import exact_oracle
from exact_oracle import _decimal_interval, floor_interval

FREIMAN = QuadSurd(2221564096, 283748, 462, 491993569)


@pytest.mark.parametrize("limit", [1, 2, 3, 10, 640, 4300])
def test_past_limit_is_more_than_limit_digits(limit):
    # the bit-length test skips 10^limit only where x < 8^limit
    for x in (0, 1, 8**limit - 1, 8**limit, 2 ** (3 * limit + 1), 10**limit - 1, 10**limit,
              10**limit + 1, 10 ** (limit + 1)):
        assert _past_limit(x, limit) == (x >= 10**limit), (x, limit)


def test_cf_matrix_fixtures():
    assert cf_matrix((2, 1, 1, 2)) == Mat2(13, 5, 5, 2)
    assert cf_matrix((5, 4)) == Mat2(21, 5, 4, 1)
    assert cf_matrix(()) == Mat2.identity()


def test_cf_matrix_rejects_nonpositive():
    with pytest.raises(ValueError):
        cf_matrix((2, 0, 1))
    with pytest.raises(ValueError):
        cf_matrix((-1,))


def test_cf_matrix_concatenation_homomorphism():
    rng = random.Random(7)
    for _ in range(50):
        s = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 6)))
        t = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 6)))
        assert cf_matrix(s) * cf_matrix(t) == cf_matrix(s + t)


def test_cf_matrix_determinant_parity():
    rng = random.Random(8)
    for _ in range(50):
        s = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 8)))
        assert cf_matrix(s).det() == (-1) ** len(s)


def test_canonicalize_fixtures():
    x = QuadSurd(0, 18, 723, 81)
    assert (x.p, x.q, x.D, x.r) == (0, 2, 723, 9)
    y = QuadSurd(0, 1, 234252, 81)
    assert (y.p, y.q, y.D, y.r) == (0, 2, 723, 9)
    z = QuadSurd(3, 0, 5, 3)
    assert (z.p, z.q, z.D, z.r) == (1, 0, 1, 1)
    # 3^2 * 1093^2 * 10751837: the square of 3 brings it below 10^14, and the
    # rest of the split finds 1093^2
    w = QuadSurd(0, 1, 115602041881917, 1)
    assert (w.p, w.q, w.D, w.r) == (0, 3279, 10751837, 1)


def test_canonicalize_negative_denominator_and_gcd():
    x = QuadSurd(-4, 2, 8, -6)
    # (-4 + 2*sqrt(8))/(-6) = (4 - 4*sqrt(2))/6 = (2 - 2*sqrt(2))/3
    assert (x.p, x.q, x.D, x.r) == (2, -2, 2, 3)


def test_cmp_fixtures():
    assert QuadSurd(0, 1, 5, 1)._cmp(QuadSurd(3, 0, 1, 1)) == -1
    assert QuadSurd(0, 2, 5, 1)._cmp(FREIMAN) == -1
    assert QuadSurd(11, 1, 221, 10)._cmp(QuadSurd(11, 1, 221, 10)) == 0
    # equality across representations with unextracted square parts
    assert QuadSurd(0, 1, 12, 2) == QuadSurd(0, 1, 3, 1)


def test_ordering_against_a_foreign_type_is_refused():
    # ints and Fractions are compared exactly; a float is never compared
    x = QuadSurd(0, 1, 2, 1)
    assert x < 2 and x >= 1 and x < Fraction(3, 2)
    with pytest.raises(TypeError):
        x < 1.5
    with pytest.raises(TypeError):
        x >= 1.0
    with pytest.raises(TypeError):
        x < "a"


def test_cmp_total_order_properties():
    rng = random.Random(11)
    vals = [
        QuadSurd(rng.randint(-9, 9), rng.randint(-5, 5), rng.randint(1, 40), rng.choice([1, 2, 3, 5]))
        for _ in range(40)
    ]
    for x in vals:
        for y in vals:
            assert x._cmp(y) == -y._cmp(x)
    for x in vals:
        for y in vals:
            for z in vals:
                if x._cmp(y) <= 0 and y._cmp(z) <= 0:
                    assert x._cmp(z) <= 0


def test_surd_arithmetic_and_ordering_agree_with_floats():
    rng = random.Random(13)
    for _ in range(100):
        x = QuadSurd(rng.randint(-20, 20), rng.randint(-9, 9), rng.randint(2, 50), rng.randint(1, 9))
        y = QuadSurd(rng.randint(-20, 20), rng.randint(-9, 9), rng.randint(2, 50), rng.randint(1, 9))
        if x._cmp(y) != 0:
            assert (float(x) < float(y)) == (x._cmp(y) < 0)


def test_periodic_cf_fixtures():
    assert periodic_cf_expansion(QuadSurd(11, 1, 221, 10)) == ((), (2, 1, 1, 2))
    assert periodic_cf_expansion(QuadSurd(1, 1, 2, 1)) == ((), (2,))
    assert periodic_cf_expansion(QuadSurd(17, 2, 210, 29)) == ((), (1, 1, 1, 2, 2, 2))
    with pytest.raises(ValueError):
        periodic_cf_expansion(QuadSurd(3, 0, 1, 2))


def test_periodic_cf_nontrivial_preperiod():
    pre, per = periodic_cf_expansion(QuadSurd(0, 1, 7, 1))
    assert pre == (2,)
    assert per == (1, 1, 1, 4)


def test_cf_roundtrip_random():
    rng = random.Random(17)
    for _ in range(80):
        q = rng.choice([i for i in range(-6, 7) if i])
        x = QuadSurd(rng.randint(-8, 8), q, rng.choice([2, 3, 5, 7, 13, 19]), rng.randint(1, 9))
        pre, per = periodic_cf_expansion(x)
        assert cf_eval_periodic(pre, per) == x
        assert all(a >= 1 for a in per)


def test_cf_eval_periodic_preperiod_entries():
    # the first entry may be any integer, the later ones must be >= 1
    assert cf_eval_periodic((0,), (2,)) == QuadSurd(-1, 1, 2, 1)
    assert cf_eval_periodic((-3, 1), (2,)) == QuadSurd(-6, 1, 2, 2)
    with pytest.raises(ValueError):
        cf_eval_periodic((1, 0), (2,))


def test_decimal_rendering():
    assert decimal_str(QuadSurd(0, 1, 2, 1), 12) == "1.41421356237"
    assert decimal_str(FREIMAN, 12) == "4.52782956616"
    assert decimal_str(QuadSurd(-3, 0, 1, 2), 3) == "-1.50"
    assert decimal_str(QuadSurd(0, 1, 5, 1), 4) == "2.236"
    for x in (QuadSurd(0, 1, 2, 1), QuadSurd(0, 0, 1, 1)):
        for sig in (0, -1):
            with pytest.raises(ValueError, match="sig must be >= 1"):
                decimal_str(x, sig)
            with pytest.raises(ValueError, match="sig must be >= 1"):
                x.decimal(sig)


def _rounding_cases() -> list[QuadSurd]:
    """Sqrt ratios, mixed, negative, rational and near-cancelling surds."""
    rng = random.Random(19)
    surds = [
        QuadSurd(0, 1, 99999999, 1000),  # 9.99999995: carries to 10.0 below 8 digits
        QuadSurd(0, 1, 999999, 1),  # 999.99949..: carries to 1000 at 4 digits
        QuadSurd(0, 1, 2, 10**7),  # 1.41e-07: scientific, e < -4
        QuadSurd(0, 3, 7, 10**5),  # 7.9e-05: scientific, e < -4
        QuadSurd(0, 10**9, 3, 1),  # 1.73e+09: scientific once e >= sig
        QuadSurd(0, 1, 10**30 - 1, 1),  # 9.99...e+14: carry into a scientific exponent
        QuadSurd(-3, 0, 1, 2),  # -1.5: a rational tie, rounded away from zero
        QuadSurd(1, 0, 1, 8),  # 0.125: a tie at 2 digits
        QuadSurd(-99995, 0, 1, 10**5),  # -0.99995: a tie that carries
        QuadSurd(0, -1, 2, 1),
        QuadSurd(0, 0, 1, 1),
    ]
    for _ in range(300):
        D = rng.randint(2, 10 ** rng.randint(1, 40))
        r = rng.randint(1, 10 ** rng.randint(0, 30))
        surds.append(QuadSurd(0, rng.randint(1, 10**6), D, r))
    for _ in range(150):  # mixed, either sign
        D = rng.randint(2, 10 ** rng.randint(1, 30))
        p = rng.randint(-(10 ** rng.randint(0, 20)), 10 ** rng.randint(0, 20))
        q = rng.choice((-1, 1)) * rng.randint(1, 10**6)
        surds.append(QuadSurd(p, q, D, rng.randint(1, 10 ** rng.randint(0, 20))))
    for _ in range(50):  # rational
        p = rng.randint(-(10 ** rng.randint(0, 20)), 10 ** rng.randint(0, 20))
        surds.append(QuadSurd(p, 0, 1, rng.randint(1, 10 ** rng.randint(0, 20))))
    for _ in range(100):  # a - sqrt(a^2 +- j) and its negative, near 10^30 radicands
        a = rng.randint(3, 10 ** rng.randint(1, 15))
        j = rng.choice((-1, 1)) * rng.randint(1, 9)
        s = rng.choice((-1, 1))
        surds.append(QuadSurd(s * a, -s, a * a + j, rng.randint(1, 10 ** rng.randint(0, 6))))
    return surds


def test_integer_decimal_path_matches_interval_path():
    tried = 0
    for x in _rounding_cases():
        for sig in range(1, 21):
            assert decimal_str(x, sig) == _decimal_interval(x, sig), (x, sig)
            tried += 1
    assert tried > 12000
    assert decimal_str(QuadSurd(0, 1, 99999999, 1000), 7) == "10.00000"
    assert decimal_str(QuadSurd(0, 1, 2, 10**7), 3) == "1.41e-07"
    assert decimal_str(QuadSurd(0, 10**9, 3, 1), 3) == "1.73e+09"
    assert decimal_str(QuadSurd(-99995, 0, 1, 10**5), 4) == "-1.000"


def test_floor_matches_interval_floor():
    for x in _rounding_cases():
        assert x.floor() == floor_interval(x), x
    rng = random.Random(23)
    for _ in range(500):  # perfect-square radicands, which no canonical surd has
        p, q, m = (rng.randint(-(10**12), 10**12) for _ in range(3))
        r = rng.randint(1, 4)
        assert _floor_surd(p, q, m * m, r) == (p + q * abs(m)) // r


def _near_integer(args):
    """(q, N, r) with q*sqrt(N)/r within a step of the integer m: the floors
    that an error in the quotient or the root would move."""
    q, m, r, step = args
    return q, max(0, (m * r) ** 2 + step), r * q if q else r


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**400), st.integers(1, 10**200)),
        st.tuples(
            st.integers(0, 10**3), st.integers(0, 10**100), st.integers(1, 10**100),
            st.integers(-3, 3),
        ).map(_near_integer),
    ),
    st.integers(1, 40),
    st.integers(0, 200),
)
@example((1, 10**400 + 1, 1), 5, 0)  # 10^200: k < 0
@example((1, 2, 10**200), 40, 0)  # 1.4e-200: k > 0
@example((3, (7 * 10**150) ** 2 - 1, 3 * 10**150), 1, 64)  # just below 7
def test_quotient_root_floor_matches_the_former_floor(qnr, sig, bits):
    q, N, r = qnr
    assert _floor_surd(0, q, N, r) == exact_oracle.floor_surd(0, q, N, r)
    x = QuadSurd(0, q, N, r)
    assert x.interval(bits) == exact_oracle.floor_surd(x.p << bits, x.q << bits, x.D, x.r)
    if x.p == 0 and x.q > 0:
        assert decimal_str(x, sig) == exact_oracle.decimal_sqrt(x, sig), (x, sig)


def test_decimal_mantissa_matches_sympy_rounding():
    sympy = pytest.importorskip("sympy")
    from decimal import Decimal

    for x in _rounding_cases()[::5]:
        if x.p == 0 and x.q == 0:
            continue
        value = abs((x.p + x.q * sympy.sqrt(x.D)) / sympy.Integer(x.r))
        for sig in (1, 5, 12):
            digits = Decimal(decimal_str(x, sig)).as_tuple()
            assert len(digits.digits) == sig, (x, sig)
            m = int("".join(map(str, digits.digits)))
            scaled = value * sympy.Integer(10) ** -digits.exponent + sympy.Rational(1, 2)
            if x.q:  # sympy.floor alone misjudges near-cancelling sums; N tracks precision
                scaled = sympy.N(scaled, 90)
            assert m == sympy.floor(scaled), (x, sig)


def test_square_split_matches_factorint():
    sympy = pytest.importorskip("sympy")

    def split(n):
        want_s = want_d = 1
        for p, e in sympy.factorint(n).items():
            want_s *= p ** (e // 2)
            want_d *= p ** (e % 2)
        return want_s, want_d

    rng = random.Random(14)
    cases = [rng.randrange(1, _FULL_FACTOR_BOUND) for _ in range(2000)]
    primes = (46399, 46411, 46441, 99991, 1000003, 9999991)
    for p in primes:
        cases += [p * p, p**3] + [p * p * q for q in primes if q != p]
    cases.append(_FULL_FACTOR_BOUND - 1)
    for n in cases:
        s, d = _square_split(n)
        assert s * s * d == n, n
        if n < _FULL_FACTOR_BOUND:
            assert (s, d) == split(n), n
    # above the bound, s0^2 d0 with d0 below it and s0 made of 2..13: taking
    # out those squares brings the cofactor below the bound, where the split
    # is exhaustive, also for a large square factor of d0
    for _ in range(600):
        p = rng.choice((1, 1093, 46441, 1000003))
        d0 = p * p * rng.randrange(1, _FULL_FACTOR_BOUND // (p * p))
        s0 = 1
        while s0 * s0 * d0 < _FULL_FACTOR_BOUND:
            s0 *= rng.choice((2, 3, 5, 7, 11, 13))
        want_s, want_d = split(d0)
        assert _square_split(s0 * s0 * d0) == (s0 * want_s, want_d), (s0, d0)


def test_primorial_split_matches_trial_division():
    # every x below 2 * 10**5, then the edges of the primorial's primes and
    # of the bound, where what is left after the gcds is q, q * q' or q^2
    assert _PRIMORIAL == math.prod(p for p in range(2, 212) if all(p % q for q in range(2, p)))
    assert _PRIMORIAL_BOUND == 223**3 == 11_089_567
    for x in range(1, 200_000):
        assert _primorial_split(x) == exact_oracle.square_split(x), x
    above = (223, 227, 229, 233, 239)
    cases = [211**2, 211**3, 223, 223**2, 223**3 - 1, 2**23, 2**23 - 1, 2 * 223**2,
             211 * 223, 2**20 * 3**2]
    cases += [p * q for p in above for q in above]
    cases += [_PRIMORIAL_BOUND - i for i in range(1, 2000)]
    for x in cases:  # the general split takes the kernel below the bound too
        assert x < _PRIMORIAL_BOUND
        want = exact_oracle.square_split(x)
        assert _primorial_split(x) == want and _square_split(x) == want, x
    # at and above the bound a cofactor left by the gcds is trial-divided:
    # q^2 r with primes q, r >= 223, one of them large, reaches near 10**14
    cases = [223**3, 223**3 + 1, 2**20 * 223**3, 211**2 * 223 * 227, 223 * 227 * 229,
             669637**2 * 223, 46399**2 * 46447, 223**2 * 669637, _FULL_FACTOR_BOUND - 1]
    for x in cases:
        assert _PRIMORIAL_BOUND <= x < _FULL_FACTOR_BOUND
        want = exact_oracle.square_split(x)
        assert _primorial_split(x) == want and _square_split(x) == want, x


def test_str_format():
    assert str(QuadSurd(0, 4, 210, 19)) == "(0 + 4√210)/19"
    assert str(QuadSurd(1, 0, 1, 1)) == "(1 + 0√1)/1"
    assert str(QuadSurd(2, -2, 2, 3)) == "(2 - 2√2)/3"


def test_floor():
    assert QuadSurd(0, 1, 2, 1).floor() == 1
    assert QuadSurd(0, -1, 2, 1).floor() == -2
    assert QuadSurd(7, 0, 1, 2).floor() == 3


def test_huge_radicand_comparisons_stay_exact():
    # squares differing by one unit at ~10^40 scale
    n = 10**20 + 7
    a = QuadSurd(0, 1, n * n - 1, n)
    b = QuadSurd(0, 1, n * n, n)
    assert a._cmp(b) == -1
    assert b == QuadSurd(1, 0, 1, 1)


def test_cmp_matches_the_interval_oracle_on_close_and_rational_pairs():
    # the convergents h/k of sqrt(2) alternate around it with gaps below
    # 1/k^2, under 2^-200 from the 80th on
    root2 = QuadSurd(0, 1, 2, 1)
    h, h1, k, k1 = 1, 1, 1, 0
    for i in range(120):
        c = QuadSurd(h, 0, 1, k)
        want = -1 if i % 2 == 0 else 1
        assert c._cmp(root2) == exact_oracle.cmp(c, root2) == want, i
        assert root2._cmp(c) == exact_oracle.cmp(root2, c) == -want, i
        h, h1, k, k1 = 2 * h + h1, h, 2 * k + k1, k
    assert k.bit_length() > 150
    rationals = [QuadSurd(p, 0, 1, r) for p in range(-6, 7) for r in (1, 2, 3, 4, 6)]
    for x in rationals:
        for y in rationals:
            assert x._cmp(y) == exact_oracle.cmp(x, y), (x, y)
    assert QuadSurd(2, 0, 1, 4) == QuadSurd(-3, 0, 1, -6) == Fraction(1, 2)


@pytest.mark.parametrize("fields, want", [
    ((0, 1, 2, 10**30), 1.414213562373095e-30),
    ((99, -7, 200, 1), 0.005050633883346584),  # 99 - 70 sqrt(2): the terms cancel
    ((1, 0, 1, 3 * 10**40), 3.333333333333333e-41),
    ((0, 1, 5, 1), 2.23606797749979),
    ((-3, 1, 10, 10**25), 1.6227766016837932e-26),
])
def test_float_keeps_its_relative_accuracy_on_tiny_and_cancelling_surds(fields, want):
    x = QuadSurd(*fields)
    # want rounds a point of the oracle's enclosure: within half an ulp of it
    lo, hi = exact_oracle.interval(x, 80)
    assert abs(Fraction(want) - (lo + hi) / 2) <= (Fraction(math.ulp(want)) + hi - lo) / 2
    assert float(x) == exact_oracle.float_interval(x) == want
