"""Reference routines that the integer paths in gmspec.exact are checked
against.

`interval` is the former `QuadSurd.interval`, kept verbatim: an enclosing
`Fraction` interval of a surd with about `bits` fractional bits, from one
isqrt of D.  The routines below refine it; none uses the integer floor of
gmspec.exact.

* `cmp` is the former `QuadSurd._cmp`: rationals by cross-multiplication,
  equal irrationals by their minimal polynomial, and otherwise intervals
  refined until they are disjoint.
* `float_interval` is the former `QuadSurd.__float__`: the midpoint of the
  80-bit interval.
* `_decimal_interval` renders a surd to `sig` significant digits by doubling
  the interval's precision until both ends round alike.
* `floor_interval` floors a surd the same way, until both ends floor alike.

The last two work on the fields (p, q, D, r) of (p + q*sqrt(D))/r.

* `cf_eval_nested` evaluates a periodic continued fraction as
  a + 1/(a' + 1/(...)), one canonical surd per preperiod entry, without
  `cf_matrix` or its Moebius form.
* `shift` adds a rational to a surd.

`floor_surd` is the former `_floor_surd`, kept verbatim: the root of q^2 N,
then the division by r, for every p and q.  `decimal_sqrt` is the former
`decimal_str` of a surd sqrt(N)/r (p = 0, q > 0, N = q^2 D): the root of
4 * 100^k * N, then the division by r, both done inline.

`nonsquare_split` is the former square split of gmspec.exact, kept verbatim:
the squares of 2..13 taken out one by one at or above _FULL_FACTOR_BOUND,
trial division to the cube root below it, with no residue pre-test, no gcd
with a primorial and no split of a spectrum radicand m^2 - 4 into m - 2 and
m + 2.  `square_split` extends it to every n >= 1, squares included.
"""

from __future__ import annotations

import math
from fractions import Fraction

from gmspec.exact import (
    _FULL_FACTOR_BOUND,
    _SMALL_SQUARES,
    QuadSurd,
    _cube_root_primes,
    _format_sig,
    _sign,
)


def interval(x: QuadSurd, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosing rational interval with ~bits fractional bits."""
    if x.q == 0:
        v = Fraction(x.p, x.r)
        return v, v
    t = math.isqrt(x.D << (2 * bits))
    lo = Fraction(t, 1 << bits)
    hi = Fraction(t + 1, 1 << bits)
    if x.q > 0:
        slo, shi = x.q * lo, x.q * hi
    else:
        slo, shi = x.q * hi, x.q * lo
    return (x.p + slo) / x.r, (x.p + shi) / x.r


def float_interval(x: QuadSurd) -> float:
    lo, hi = interval(x, 80)
    return float((lo + hi) / 2)


def cmp(x: QuadSurd, other: QuadSurd) -> int:
    if x.is_rational and other.is_rational:
        return _sign(x.p * other.r - other.p * x.r)
    if (
        not x.is_rational
        and not other.is_rational
        and _sign(x.q) == _sign(other.q)
        and x._minpoly() == other._minpoly()
    ):
        return 0
    bits = 64
    while True:
        alo, ahi = interval(x, bits)
        blo, bhi = interval(other, bits)
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        bits *= 2


def _decimal_interval(x: QuadSurd, sig: int) -> str:
    """decimal_str for any nonzero surd, by refining an enclosing interval
    until both ends round alike."""
    bits = 8 * sig
    while True:
        lo, hi = interval(x, bits)
        rlo, rhi = _round_sig(lo, sig), _round_sig(hi, sig)
        if rlo == rhi:
            return rlo
        bits *= 2


def _round_sig(v: Fraction, sig: int) -> str:
    neg = v < 0
    if neg:
        v = -v
    if v == 0:
        return "0." + "0" * (sig - 1)
    # exponent e with 10^e <= v < 10^(e+1)
    e = 0
    while v >= 10:
        v /= 10
        e += 1
    while v < 1:
        v *= 10
        e -= 1
    scaled = v * 10 ** (sig - 1)
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled - n) >= 1:
        n += 1
    return _format_sig(n, e, sig, neg)


def floor_interval(x: QuadSurd) -> int:
    """floor(x), by refining an enclosing interval until both ends floor
    alike."""
    bits = 16
    while True:
        lo, hi = interval(x, bits)
        flo, fhi = lo.__floor__(), hi.__floor__()
        if flo == fhi:
            return flo
        bits *= 2


def floor_surd(p: int, q: int, N: int, r: int) -> int:
    """floor((p + q*sqrt(N))/r) for N >= 0 and r > 0: floor(q*sqrt(N)) is
    isqrt(q^2 N), less one when q < 0 unless q^2 N is a perfect square."""
    s = math.isqrt(q * q * N)
    if q < 0:
        s = -s if s * s == q * q * N else -s - 1
    return (p + s) // r


def decimal_sqrt(x: QuadSurd, sig: int) -> str:
    """decimal_str of a surd with p = 0 and q > 0."""
    assert x.p == 0 and x.q > 0, x
    N, r = x.q * x.q * x.D, x.r
    e = ((N.bit_length() - 1) // 2 - r.bit_length()) * 30103 // 100000 - 1
    k = sig - 1 - e
    m2 = math.isqrt(4 * 100**k * N) // r if k >= 0 else math.isqrt(4 * N) // (r * 10**-k)
    spare = len(str(m2 >> 1)) - sig
    return _format_sig((m2 // 10**spare + 1) >> 1, e + spare, sig, False)


def _plus_inverse(a: int, x: QuadSurd) -> QuadSurd:
    """a + 1/x = a + r (p - q sqrt(D)) / (p^2 - q^2 D)."""
    norm = x.p * x.p - x.q * x.q * x.D
    return QuadSurd(a * norm + x.r * x.p, -x.r * x.q, x.D, norm)


def cf_eval_nested(preperiod, period) -> QuadSurd:
    """[preperiod; period, period, ...] with the preperiod folded in from the
    right, as x = a + 1/x on surds.

    The purely periodic tail alpha = [period; alpha] has the convergents
    h/k of the period as its Moebius action, so
    k alpha^2 + (k' - h) alpha - h' = 0 with h', k' the previous convergent.
    """
    h, h1, k, k1 = 1, 0, 0, 1  # convergents h/k and h1/k1 before any entry
    for a in period:
        h, h1, k, k1 = a * h + h1, h, a * k + k1, k
    x = QuadSurd(h - k1, 1, (h - k1) ** 2 + 4 * h1 * k, 2 * k)
    for a in reversed(preperiod):
        x = _plus_inverse(a, x)
    return x


def shift(x: QuadSurd, f: Fraction) -> QuadSurd:
    """x + f for a rational f."""
    return QuadSurd(x.p * f.denominator + f.numerator * x.r, x.q * f.denominator, x.D,
                    x.r * f.denominator)


def nonsquare_split(n: int) -> tuple[int, int]:
    """`_square_split` of an n > 1 that is not a perfect square; d > 1.

    While the cofactor is at or above _FULL_FACTOR_BOUND only the squares of
    2..13 are taken out.  Once it is below, trial division takes out every
    prime p with p**3 <= n, n being the shrinking cofactor.  Each prime
    factor of what is left then exceeds its cube root, so there are at most
    two of them (three would multiply to more than it): the cofactor is 1, a
    prime, a product of two distinct primes or a prime squared, and one
    perfect-square test tells these apart.  Every such p is below 46416,
    since 46416**3 > 10**14.
    """
    s = 1
    for p, pp in _SMALL_SQUARES:
        while n >= _FULL_FACTOR_BOUND and n % pp == 0:
            n //= pp
            s *= p
    if n >= _FULL_FACTOR_BOUND:  # not a perfect square, as n was none
        return s, n
    d = 1
    for p in _cube_root_primes():
        if p * p * p > n:
            break
        while n % p == 0:  # pair each factor p with another, or leave it in d
            n //= p
            if n % p:
                d *= p
            else:
                n //= p
                s *= p
    r = math.isqrt(n)
    if r * r == n:
        return s * r, d
    return s, d * n


def square_split(n: int) -> tuple[int, int]:
    """(s, d) with n = s*s*d for any n >= 1: (isqrt(n), 1) for a perfect
    square, `nonsquare_split` otherwise."""
    r = math.isqrt(n)
    return (r, 1) if r * r == n else nonsquare_split(n)
