"""Exact output checks, in plain integer and Fraction arithmetic.

The checks re-derive what they can without the code under test: a spectrum
row (p, q, D, r) with witness (n, pos) must be sqrt(Delta)/n with
Delta = (K*n - k_pos)^2 - 4, rows must ascend strictly, and every decimal
string must be the correctly rounded 12-digit value.  Where an identity needs
a second library path (a Cohn matrix by recursion, a value through the tree),
the workload calls it outside the timed region.
"""

from __future__ import annotations

from fractions import Fraction

SIG_DIGITS = 12


def value_square(row: dict) -> Fraction:
    """Exact square of a spectrum value (p + q*sqrt(D))/r with p = 0."""
    return Fraction(row["q"] * row["q"] * row["D"], row["r"] * row["r"])


def decimal_error(text: str, square: Fraction) -> str | None:
    """None if `text` is sqrt(square) correctly rounded to 12 significant
    digits, else a description of the defect."""
    mant, _, exp = text.lower().partition("e")
    digits = mant.replace(".", "").lstrip("0")
    if len(digits) != SIG_DIGITS:
        return f"{text!r} has {len(digits)} significant digits"
    frac = mant.partition(".")[2]
    half_ulp = Fraction(10) ** (int(exp or 0) - len(frac)) / 2
    x = Fraction(text)
    lo, hi = x - half_ulp, x + half_ulp
    if (lo > 0 and lo * lo > square) or hi * hi < square:
        return f"{text!r} is not sqrt({square}) rounded"
    return None


def spectrum_row_error(row: dict) -> str | None:
    """None if the row's surd is sqrt(Delta(n, pos))/n for its own triple and
    its decimal is correctly rounded."""
    k = (row["k1"], row["k2"], row["k3"])
    n, pos = row["n"], row["pos"]
    if row["p"] != 0 or row["q"] <= 0 or row["r"] <= 0 or not 1 <= pos <= 3 or n < 1:
        return f"malformed row {row}"
    delta = ((3 + sum(k)) * n - k[pos - 1]) ** 2 - 4
    if row["q"] ** 2 * row["D"] * n * n != delta * row["r"] ** 2:
        return f"t={row['t']}: surd is not sqrt(Delta)/n for n={n}, pos={pos}"
    return decimal_error(row["decimal"], value_square(row))


def spectrum_rows_errors(rows: list[dict], ascending: bool) -> list[str]:
    """Row-level errors, plus strict ascent of the values when asked."""
    errors = [e for e in map(spectrum_row_error, rows) if e]
    if ascending:
        squares = [value_square(r) for r in rows]
        errors += [
            f"rows {i} and {i + 1} do not ascend strictly"
            for i in range(len(squares) - 1)
            if not squares[i] < squares[i + 1]
        ]
    return errors


def cf_product(entries) -> tuple[int, int, int, int]:
    a, b, c, d = 1, 0, 0, 1
    for x in entries:
        a, b = a * x + b, a
        c, d = c * x + d, c
    return a, b, c, d


def is_fixed_point(alpha, entries) -> bool:
    """alpha = (P + Q*sqrt(D))/R is the root > 1 of c x^2 + (d - a) x - b for
    the convergent matrix [[a, b], [c, d]] of the block."""
    a, b, c, d = cf_product(entries)
    P, Q, D, R = alpha.p, alpha.q, alpha.D, alpha.r
    rational = c * (P * P + Q * Q * D) + (d - a) * P * R - b * R * R
    irrational = Q * (2 * c * P + (d - a) * R)
    above_one = Q > 0 and (R - P < 0 or Q * Q * D > (R - P) ** 2)
    return rational == 0 and irrational == 0 and above_one


def chebyshev_u(m: int, trace: int) -> int:
    """U_{m-1}(trace): lower-left entry of M^m over that of M when det M = 1."""
    u0, u1 = 0, 1
    for _ in range(m - 1):
        u0, u1 = u1, trace * u1 - u0
    return u1
