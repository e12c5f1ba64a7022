"""Reference surd rounding that the integer paths in gmspec.exact are checked
against.

Both routines refine the enclosing `Fraction` intervals of
`QuadSurd.interval`; neither uses the integer floor of gmspec.exact.

* `_decimal_interval` renders a surd to `sig` significant digits by doubling
  the interval's precision until both ends round alike.
* `floor_interval` floors a surd the same way, until both ends floor alike.
"""

from __future__ import annotations

from fractions import Fraction

from gmspec.exact import QuadSurd, _format_sig


def _decimal_interval(x: QuadSurd, sig: int) -> str:
    """decimal_str for any nonzero surd, by refining an enclosing interval
    until both ends round alike."""
    bits = 8 * sig
    while True:
        lo, hi = x.interval(bits)
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
        lo, hi = x.interval(bits)
        flo, fhi = lo.__floor__(), hi.__floor__()
        if flo == fhi:
            return flo
        bits *= 2
