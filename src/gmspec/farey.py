"""Irreducible fractions and the Farey tree.

Fractions live in [0, oo]; 1/0 stands for the point at infinity and compares
greater than every finite fraction.  Tree navigation runs along the
continued-fraction digits of the target, so a lookup costs O(log) arithmetic
steps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import total_ordering

__all__ = [
    "IrreducibleFraction",
    "FareyTriple",
    "farey_path",
]


@total_ordering
@dataclass(frozen=True, slots=True)
class IrreducibleFraction:
    """Reduced fraction num/den with num, den >= 0; 1/0 is infinity."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.num < 0 or self.den < 0:
            raise ValueError("numerator and denominator must be nonnegative")
        if self.num == 0 and self.den == 0:
            raise ValueError("0/0 is not a fraction")
        if math.gcd(self.num, self.den) != 1:
            raise ValueError(f"fraction not reduced: {_echo(f'{self.num}/{self.den}')}")

    @staticmethod
    def parse(text: str) -> "IrreducibleFraction":
        t = text.strip()
        if t in ("inf", "infinity", "1/0"):
            return IrreducibleFraction(1, 0)
        parts = t.split("/") if "/" in t else (t, "1")
        for part in parts:
            _check_int_length(part)
        try:
            num, den = map(int, parts)
        except ValueError:
            raise ValueError(
                f"expected a fraction 'num/den', an integer or 'inf', got {_echo(text)}"
            ) from None
        return IrreducibleFraction(num, den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __lt__(self, other: "IrreducibleFraction") -> bool:
        if not isinstance(other, IrreducibleFraction):
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def reciprocal(self) -> "IrreducibleFraction":
        return IrreducibleFraction(self.den, self.num)

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    @property
    def is_infinity(self) -> bool:
        return self.den == 0

    @property
    def is_boundary(self) -> bool:
        return self.num == 0 or self.den == 0


def _echo(text: str) -> str:
    """repr(text) for an error message, clipped to its first 40 characters and
    its length when it is longer, so that the message stays one short line."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _check_int_length(text: str) -> None:
    """Refuse the text of an integer longer than Python's int-from-str digit
    limit (none when it is 0) with a one-line ValueError that says so and
    echoes only its start; int() would refuse it as malformed, echoing all
    of it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = text.strip().lstrip("+-")
    if limit and len(digits) > limit:
        raise ValueError(
            f"integer too long: {len(digits)} characters, at most {limit} digits "
            f"({digits[:12]}...)"
        )


def _det(x: IrreducibleFraction, y: IrreducibleFraction) -> int:
    return x.num * y.den - x.den * y.num


@dataclass(frozen=True)
class FareyTriple:
    """Triple (left, mid, right) of pairwise adjacent fractions, left < mid < right."""

    left: IrreducibleFraction
    mid: IrreducibleFraction
    right: IrreducibleFraction

    def __post_init__(self) -> None:
        for x, y in ((self.left, self.mid), (self.mid, self.right), (self.right, self.left)):
            if abs(_det(x, y)) != 1:
                raise ValueError(f"{x}, {y} are not adjacent")

    def child(self, direction: str) -> "FareyTriple":
        """The L or R child: the mediant of two neighbouring entries goes between them."""
        if direction == "L":
            x, y = self.left, self.mid
        elif direction == "R":
            x, y = self.mid, self.right
        else:
            raise ValueError(f"direction must be 'L' or 'R', got {direction!r}")
        return FareyTriple(x, IrreducibleFraction(x.num + y.num, x.den + y.den), y)

    def __str__(self) -> str:
        return f"({self.left}, {self.mid}, {self.right})"


def _cf_digits(num: int, den: int) -> list[int]:
    out = []
    while den:
        out.append(num // den)
        num, den = den, num % den
    return out


def farey_path(t: IrreducibleFraction) -> tuple[str, ...]:
    """Binary descent path from the root triple to the vertex with middle t."""
    if t.is_boundary:
        raise ValueError(f"{t} is not the middle entry of any tree vertex")
    digits = _cf_digits(t.num, t.den)
    digits[-1] -= 1
    path: list[str] = []
    for i, d in enumerate(digits):
        path.extend(("R" if i % 2 == 0 else "L") * d)
    return tuple(path)
