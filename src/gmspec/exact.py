"""Exact arithmetic primitives.

Arbitrary-precision 2x2 integer matrices, canonical quadratic irrationals
(p + q*sqrt(D))/r with a total exact order, and regular continued-fraction
machinery (convergent matrices, periodic expansion of quadratic surds).

One integer floor, `_floor_surd`, decides floor, decimal, order and float:
`QuadSurd.floor`, `decimal_str`'s rounding, the first pair of floors of
x * 2**bits that differ, and such a floor over 2**bits.  For p = 0 and
q >= 0 it takes the root of the quotient q^2 N // r^2, a number the size of
the answer squared, not of q^2 N.

`QuadSurd(p, q, D, r)` is the general constructor.  A spectrum row's value
sqrt(Delta)/n has the canonical fields (0, q, D, r) given by
`_sqrt_over_ints`, which skips the perfect-square test and the general
branches because Delta = (K*n - k_i)^2 - 4 is never a square.  The `--k`
spectrum rows carry these integers and no surd; `_sqrt_over` builds the
surd of a radicand, and `_spectrum_surd` that of fields it gave, for a
library caller or a row's decimal.  `decimal_str` renders it by its path
for p = 0, q > 0: one quotient and one isqrt of about 80 bits for 12
digits.

Trusted objects are built one way: their slots are written by the slots'
member-descriptor setters, fetched once at import by `_slot_setters`.
`QuadSurd.__init__` writes the canonical form it has worked out;
`_spectrum_surd`, and `spectrum._element` for each row's label and element,
write fields that are canonical by construction, so they skip only checks
that could not fail, never the immutability: assigning a field of what
they build still raises.

All values are immutable; every operation is pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import compress
from typing import Iterable, Sequence

__all__ = [
    "Mat2",
    "QuadSurd",
    "cf_matrix",
    "periodic_cf_expansion",
    "cf_eval_periodic",
    "decimal_str",
]


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

def _sign(n) -> int:
    return (n > 0) - (n < 0)


def _past_limit(x: int, limit: int) -> bool:
    """x >= 10^limit: x has more than `limit` digits.  An x of at most
    3 * limit bits is below 8^limit, so 10^limit, which takes about 35 us at
    the default limit, is computed only for an x near it."""
    return x.bit_length() > 3 * limit and x >= 10**limit


def _floor_surd(p: int, q: int, N: int, r: int) -> int:
    """floor((p + q*sqrt(N))/r) for N >= 0 and r > 0, in integers.

    For p = 0 and q >= 0 it is isqrt(q^2 N // r^2), as
    floor(sqrt(floor(y))) = floor(sqrt(y)) for every real y >= 0: the root
    is taken of a number the size of the answer squared, not of q^2 N.
    Otherwise floor((p + y)/r) = floor((p + floor(y))/r) for integers p and
    r > 0, and floor(q*sqrt(N)) is isqrt(q^2 N), less one when q < 0 unless
    q^2 N is a perfect square.
    """
    if p == 0 and q >= 0:
        return math.isqrt(q * q * N // (r * r))
    s = math.isqrt(q * q * N)
    if q < 0:
        s = -s if s * s == q * q * N else -s - 1
    return (p + s) // r


# Full square-part extraction is attempted only below this bound; a larger
# cofactor keeps any square factor other than those of 2..13.  Comparisons
# never rely on square-freeness, so this is purely cosmetic.
_FULL_FACTOR_BOUND = 10**14
_SMALL_SQUARES = tuple((p, p * p) for p in (2, 3, 5, 7, 11, 13))
_SMALL_SQUARES_PRODUCT = math.prod(pp for _, pp in _SMALL_SQUARES)  # 901800900
_CUBE_ROOT_PRIMES: list[int] = []  # the primes below 46416, sieved on first use


def _primes_below(size: int) -> list[int]:
    """The primes below size, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * size
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(size) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, size, i)))
    return list(compress(range(size), sieve))


def _cube_root_primes() -> list[int]:
    if not _CUBE_ROOT_PRIMES:
        _CUBE_ROOT_PRIMES.extend(_primes_below(46416))
    return _CUBE_ROOT_PRIMES


# The product of the 47 primes up to 211, and the bound below which
# `_primorial_split` splits a number fully: the prime factors of an x < 223**3
# that are not below 223 exceed x's cube root.
_PRIMORIAL = math.prod(_primes_below(212))
_PRIMORIAL_BOUND = 223**3  # 11,089,567


def _square_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d, extracting the square part of n >= 1.

    d is square-free whenever d < _FULL_FACTOR_BOUND (see `_nonsquare_split`).
    """
    r = math.isqrt(n)
    if r * r == n:
        return r, 1
    return _nonsquare_split(n)


def _nonsquare_split(n: int) -> tuple[int, int]:
    """`_square_split` of an n > 1 that is not a perfect square; d > 1.

    While the cofactor is at or above _FULL_FACTOR_BOUND only the squares of
    2..13 are taken out, each tried only if it divides n's residue modulo
    their product (taking out p**2 does not change whether q**2 divides the
    cofactor for q != p).  Once it is below, a cofactor below
    _PRIMORIAL_BOUND goes to `_primorial_split`; a larger one has every
    prime p with p**3 <= n taken out by trial division, n being the
    shrinking cofactor.  Each prime factor of what is left then exceeds its
    cube root, so there are at most two of them (three would multiply to
    more than it): the cofactor is 1, a prime, a product of two distinct
    primes or a prime squared, and one perfect-square test tells these
    apart.  Every such p is below 46416, since 46416**3 > 10**14.
    """
    s = 1
    rho = n % _SMALL_SQUARES_PRODUCT
    for p, pp in _SMALL_SQUARES:
        while rho % pp == 0 and n >= _FULL_FACTOR_BOUND and n % pp == 0:
            n //= pp
            s *= p
    if n >= _FULL_FACTOR_BOUND:  # not a perfect square, as n was none
        return s, n
    if n < _PRIMORIAL_BOUND:
        s2, d = _primorial_split(n)
        return s * s2, d
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


def _primorial_split(x: int) -> tuple[int, int]:
    """`_square_split` of 1 <= x < _PRIMORIAL_BOUND, by gcds with _PRIMORIAL.

    Level j's g is the product of the primes up to 211 that divide x at
    least j times: g = gcd(x, _PRIMORIAL) at level 1, and with x divided by
    every earlier level, gcd(x, g) at the next.  A prime that divides x e
    times is in levels 1..e; d takes the odd levels and s the even ones, so
    after d //= s, s holds it e // 2 times and d e % 2 times.  What is left
    of x has no prime factor below 223 and is below 223**3, so, as in
    `_nonsquare_split`, one perfect-square test finishes the split.
    """
    s = d = 1
    g = math.gcd(x, _PRIMORIAL)
    while g > 1:  # an odd level, then an even one
        x //= g
        d *= g
        g = math.gcd(x, g)
        x //= g
        s *= g
        g = math.gcd(x, g)
    d //= s
    r = math.isqrt(x)
    if r * r == x:
        return s * r, d
    return s, d * x


def _slot_setters(cls: type, *fields: str) -> tuple:
    """The `__set__` of the member descriptor of each slot in `fields` of cls,
    which writes the slot past cls's frozen or immutable `__setattr__`.  A
    field that is not a slot of cls raises KeyError."""
    return tuple(cls.__dict__[f].__set__ for f in fields)


# ---------------------------------------------------------------------------
# 2x2 integer matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix [[a, b], [c, d]], entries of unbounded size."""

    a: int
    b: int
    c: int
    d: int

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def to_list(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)


def cf_matrix(entries: Sequence[int] | Iterable[int]) -> Mat2:
    """Product of continued-fraction matrices [[a,1],[1,0]] over the entries.

    The empty product is the identity.  The columns of the result are the
    last two convergents of the continued fraction with these partial
    quotients.
    """
    a = d = 1
    b = c = 0
    for x in entries:
        if x <= 0:
            raise ValueError(f"continued-fraction entry must be >= 1, got {x}")
        # multiply on the right by [[x,1],[1,0]]
        a, b = a * x + b, a
        c, d = c * x + d, c
    return Mat2(a, b, c, d)


# ---------------------------------------------------------------------------
# quadratic surds
# ---------------------------------------------------------------------------

@total_ordering
class QuadSurd:
    """The real number (p + q*sqrt(D))/r in canonical form.

    Canonical means: r > 0, gcd(p, q, r) = 1, square factors of D moved into
    q (all of them whenever D ends below 10^14, best-effort above), and D = 1
    whenever q = 0.  Equality and ordering are exact and total, and do not
    depend on how much of D's square part was extracted.  There is no surd
    arithmetic: values are worked out on integers (matrix entries, traces)
    and built as a surd once, at the output.
    """

    __slots__ = ("p", "q", "D", "r")

    def __init__(self, p: int, q: int, D: int, r: int) -> None:
        if D < 0:
            raise ValueError("radicand must be nonnegative")
        if r == 0:
            raise ValueError("denominator must be nonzero")
        if D == 0:
            q, D = 0, 1
        if q != 0 and D > 1:
            s, d = _square_split(D)
            q *= s
            D = d
        if D == 1:
            p, q = p + q, 0
        if q == 0:
            D = 1
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        _set_p(self, p // g)
        _set_q(self, q // g)
        _set_D(self, D)
        _set_r(self, r // g)

    def __setattr__(self, *_):  # immutable
        raise AttributeError("QuadSurd is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__, not __setattr__
        return QuadSurd, (self.p, self.q, self.D, self.r)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_fraction(x: Fraction | int) -> "QuadSurd":
        f = Fraction(x)
        return QuadSurd(f.numerator, 0, 1, f.denominator)

    # -- basic structure -----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def squared_fraction(self) -> Fraction:
        """Exact value of x**2, defined only when p = 0 or q = 0."""
        if self.p == 0:
            return Fraction(self.q * self.q * self.D, self.r * self.r)
        if self.q == 0:
            return Fraction(self.p * self.p, self.r * self.r)
        raise ValueError("square is irrational for mixed surds")

    def _minpoly(self) -> tuple[int, int, int]:
        # r^2 x^2 - 2 p r x + (p^2 - q^2 D) = 0, normalized; a representation
        # invariant, so equality tests survive partially extracted radicands.
        A = self.r * self.r
        B = -2 * self.p * self.r
        C = self.p * self.p - self.q * self.q * self.D
        g = math.gcd(math.gcd(A, abs(B)), abs(C))
        return A // g, B // g, C // g

    # -- order and float, from one integer floor ----------------------------

    def interval(self, bits: int) -> int:
        """floor(x * 2**bits), in integers: the start of the dyadic interval of
        width 2**-bits that holds x."""
        return _floor_surd(self.p << bits, self.q << bits, self.D, self.r)

    def __float__(self) -> float:
        # a nonzero x has |x| >= 1/(r (|p| + |q| sqrt(D))), as |p^2 - q^2 D| >= 1
        # and the conjugate is at most that sum: 64 bits past the bound's bit
        # length leave the floor 64 significant bits; int division rounds
        bound = self.r * (abs(self.p) + abs(self.q) * (math.isqrt(self.D) + 1))
        bits = 64 + bound.bit_length()
        return self.interval(bits) / (1 << bits)

    def floor(self) -> int:
        return _floor_surd(self.p, self.q, self.D, self.r)

    def _cmp(self, other: "QuadSurd") -> int:
        """Exact three-way comparison: -1, 0 or 1.  Equal values share the
        minimal polynomial and its root (the sign of q; (r x - p)^2 fixes a
        rational p/r).  Otherwise floor(x * 2**bits), monotone in x, differs
        for x and y once bits, doubling from 64, is large enough."""
        if _sign(self.q) == _sign(other.q) and self._minpoly() == other._minpoly():
            return 0
        bits = 64
        while (a := self.interval(bits)) == (b := other.interval(bits)):
            bits *= 2
        return _sign(a - b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadSurd.from_fraction(other)
        if not isinstance(other, QuadSurd):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other: "QuadSurd | int | Fraction") -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadSurd.from_fraction(other)
        elif not isinstance(other, QuadSurd):
            return NotImplemented  # a float is refused, never compared
        return self._cmp(other) < 0

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(Fraction(self.p, self.r))
        return hash((self._minpoly(), _sign(self.q)))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        sgn = "-" if self.q < 0 else "+"
        return f"({self.p} {sgn} {abs(self.q)}√{self.D})/{self.r}"

    def __repr__(self) -> str:
        return f"QuadSurd({self.p}, {self.q}, {self.D}, {self.r})"

    def decimal(self, sig: int = 12) -> str:
        return decimal_str(self, sig)

    def to_json(self) -> dict[str, int]:
        return {"p": self.p, "q": self.q, "D": self.D, "r": self.r}


_set_p, _set_q, _set_D, _set_r = _slot_setters(QuadSurd, "p", "q", "D", "r")


def _sqrt_over(delta: int, n: int) -> QuadSurd:
    """QuadSurd(0, 1, delta, n) for a spectrum radicand delta = m^2 - 4 with
    m >= 3 and an n >= 1: `_spectrum_surd` of `_sqrt_over_ints(delta, n)`."""
    return _spectrum_surd(*_sqrt_over_ints(delta, n))


def _sqrt_over_ints(delta: int, n: int) -> tuple[int, int, int]:
    """(q, D, r) of the canonical form (0, q, D, r) of QuadSurd(0, 1, delta, n)
    for a spectrum radicand delta = m^2 - 4 with m >= 3 and an n >= 1, found
    without `QuadSurd.__init__`'s general branches.

    With delta = s*s*d, d > 1, the canonical form is (0, s/g, d, n/g) with
    g = gcd(s, n).  A spectrum value has m = K*n - k_i >= K - k_i >= 3
    (K = 3 + k1 + k2 + k3, n >= 1), and m^2 - 4 = j^2 would need
    (m - j)(m + j) = 4 with two factors of one parity, so m - j = m + j = 2
    and m = 2: delta is never a square.  Below _FULL_FACTOR_BOUND, m - 2 and
    m + 2, at most 10**7 + 2 < _PRIMORIAL_BOUND, are split on their own by
    `_primorial_split`.  Their gcd divides 4, so their square-free parts d1,
    d2 share at most the prime 2: with h = gcd(d1, d2),
    delta = (s1*s2*h)^2 * (d1/h)*(d2/h), square-free.
    """
    if delta < _FULL_FACTOR_BOUND:
        m = math.isqrt(delta + 4)
        assert m * m == delta + 4, "not a spectrum radicand"
        (s1, d1), (s2, d2) = _primorial_split(m - 2), _primorial_split(m + 2)
        h = math.gcd(d1, d2)
        s, d = s1 * s2 * h, (d1 // h) * (d2 // h)
    else:
        s, d = _nonsquare_split(delta)
    g = math.gcd(s, n)
    return s // g, d, n // g


def _spectrum_surd(q: int, D: int, r: int) -> QuadSurd:
    """QuadSurd(0, q, D, r) for the fields (q, D, r) that `_sqrt_over_ints`
    gives, canonical by construction, written by the slot setters."""
    x = object.__new__(QuadSurd)
    _set_p(x, 0)
    _set_q(x, q)
    _set_D(x, D)
    _set_r(x, r)
    return x


def decimal_str(x: QuadSurd, sig: int = 12) -> str:
    """Correctly rounded decimal string with `sig` significant digits.

    With |x| = (p + q*sqrt(D))/r, one exact floor m2 = floor(2*|x|*10^k),
    taken at a k that leaves at least sig digits, settles the rest in
    integers: the digit count of m2 >> 1 = floor(|x|*10^k) fixes the
    exponent, and dropping the spare digits of m2 then (m2 + 1) >> 1 rounds
    half up.  A surd sqrt(N)/r (p = 0, q > 0, N = q^2 D), such as every
    spectrum value, takes its exponent bound from bit lengths and m2 from the
    floor's quotient root; only a mixed surd needs its sign and the
    cancellation of its terms.
    """
    if sig < 1:
        raise ValueError("sig must be >= 1")
    p, q, D, r = x.p, x.q, x.D, x.r
    if p == 0 and q > 0:  # log2 x > (bits(N) - 1)/2 - bits(r)
        N = q * q * D
        e = ((N.bit_length() - 1) // 2 - r.bit_length()) * 30103 // 100000 - 1
        k = sig - 1 - e
        m2 = _floor_surd(0, 2 * 10**k, N, r) if k >= 0 else _floor_surd(0, 2, N, r * 10**-k)
        neg = False
    elif p == 0 and q == 0:
        return "0." + "0" * (sig - 1)
    else:
        neg = (p < 0 or q < 0) and _floor_surd(p, q, D, 1) < 0  # sign of p + q sqrt(D)
        if neg:
            p, q = -p, -q
        # an integer L < log2|x|; when p and q differ in sign the terms cancel,
        # so bound |x| = |p^2 - q^2 D| / (r (|p| + |q| sqrt(D))) instead
        n2 = (q * q * D).bit_length()
        if q >= 0 and p >= 0:
            L = max(p.bit_length() - 1, (n2 - 1) // 2) - r.bit_length()
        else:
            top = max(abs(p).bit_length(), (n2 + 1) // 2)
            L = (p * p - q * q * D).bit_length() - 2 - top - r.bit_length()
        e = L * 30103 // 100000 - 1  # at most the exponent of |x|, as log10(2) ~ 0.30103
        k = sig - 1 - e
        if k >= 0:
            scale = 2 * 10**k
            m2 = _floor_surd(p * scale, q * scale, D, r)
        else:
            m2 = _floor_surd(2 * p, 2 * q, D, r * 10**-k)
    spare = len(str(m2 >> 1)) - sig
    return _format_sig((m2 // 10**spare + 1) >> 1, e + spare, sig, neg)


def _format_sig(n: int, e: int, sig: int, neg: bool) -> str:
    """Render the sig-digit mantissa n (10^(sig-1) <= n <= 10^sig, the top
    end being a rounding carry) times 10^(e-sig+1)."""
    digits = str(n)
    if len(digits) > sig:  # rounding bumped 999.. to 1000..
        digits = digits[:sig]
        e += 1
    if e < -4 or e >= sig:
        out = f"{digits[0]}.{digits[1:]}e{e:+03d}"
    elif e == sig - 1:
        out = digits
    elif e >= 0:
        out = f"{digits[:e + 1]}.{digits[e + 1:]}"
    else:
        out = "0." + "0" * (-e - 1) + digits
    return "-" + out if neg else out


# ---------------------------------------------------------------------------
# periodic continued fractions
# ---------------------------------------------------------------------------

def periodic_cf_expansion(x: QuadSurd) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Regular continued fraction of a quadratic irrational.

    Returns (preperiod, period) with the minimal period, detected by the
    first recurrence of the complete-quotient state (P, Q) of the standard
    surd expansion; purely periodic inputs give an empty preperiod.
    """
    if x.is_rational:
        raise ValueError("continued-fraction expansion requires an irrational input")
    # normalize to (P + sqrt(N))/Q with Q | N - P^2
    if x.q > 0:
        P, Q, N = x.p, x.r, x.q * x.q * x.D
    else:
        P, Q, N = -x.p, -x.r, x.q * x.q * x.D
    if (N - P * P) % Q != 0:
        P *= abs(Q)
        N *= Q * Q
        Q *= abs(Q)
    sq = math.isqrt(N)
    digits: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    while True:
        state = (P, Q)
        if state in seen:
            i = seen[state]
            return tuple(digits[:i]), tuple(digits[i:])
        seen[state] = len(digits)
        a = (P + sq) // Q
        if Q < 0 and (P + sq) % Q == 0:
            a -= 1
        digits.append(a)
        P = a * Q - P
        Q = (N - P * P) // Q


def cf_eval_periodic(preperiod: Sequence[int], period: Sequence[int]) -> QuadSurd:
    """Exact value of the continued fraction [preperiod; period, period, ...].

    The period's convergent matrix fixes alpha = (P + sqrt(N))/Q.  The
    preperiod's convergent matrix [[A, B], [C, D]] maps it to
    (A alpha + B)/(C alpha + D), which with u = A P + B Q and v = C P + D Q is
    (u v - A C N + (A D - B C) Q sqrt(N)) / (v^2 - C^2 N): one surd, whose
    denominator is nonzero because alpha is irrational.  The first preperiod
    entry may be any integer; the others must be >= 1, as in cf_matrix.
    """
    if not period:
        raise ValueError("period must be nonempty")
    m = cf_matrix(period)  # c >= 1, as every entry is >= 1
    P, Q, N = m.a - m.d, 2 * m.c, m.trace() ** 2 - 4 * m.det()
    pre = tuple(preperiod)
    M = Mat2(pre[0], 1, 1, 0) * cf_matrix(pre[1:]) if pre else Mat2.identity()
    u, v = M.a * P + M.b * Q, M.c * P + M.d * Q
    return QuadSurd(u * v - M.a * M.c * N, M.det() * Q, N, v * v - M.c * M.c * N)
