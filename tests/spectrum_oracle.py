"""The spectrum row builder and the window scan that gmspec.spectrum is
checked against.

* `distinct_values` is the former `spectrum._distinct_values`: it walks all
  three `ALTERNATING` trees, keys every witness by its gcd-reduced pair
  (Delta/g, n^2/g), keeps the first witness of each key, and sorts the keys by
  the exact integer key (Delta << bits) // n^2 with 2^bits >= max(n^2)^2.
* `transition_scan` is the former `spectrum.transition_scan`: every triple
  with K >= 5 is read at depth 0 and each row is tested against its class
  end `_window_cut`, with no use of the lemma that settles K >= 6 on
  integers.
"""

from __future__ import annotations

import functools
import itertools
import math

from gmspec.exact import _sqrt_over
from gmspec.gmtree import ALTERNATING, GMParams, _walk_tree
from gmspec.farey import IrreducibleFraction
from gmspec.spectrum import SpectrumElement, _distinct_values, _window_cut


def distinct_values(
    k: tuple[int, int, int], depth: int
) -> list[tuple[int, int, int, int, int, GMParams]]:
    """The sorted rows (Delta, n, pos, num, den, params) of
    `enumerate_spectrum(k, depth)`."""
    seen: dict[tuple[int, int], tuple] = {}
    for sigma in ALTERNATING:
        params = GMParams(*k, sigma)
        big_k = params.coeff_sum
        walk = _walk_tree(params, depth)
        # the boundary labels 0/1 and 1/0 carry the root's outer pairs
        root = walk[0][4]
        witnesses = [(0, 1, root[0], root[1]), (1, 0, root[4], root[5])]
        witnesses += [(ln + rn, ld + rd, node[2], node[3]) for ln, ld, rn, rd, node in walk]
        for num, den, n, pos in witnesses:
            delta = (big_k * n - k[pos - 1]) ** 2 - 4
            n2 = n * n
            g = math.gcd(delta, n2)
            key = (delta // g, n2 // g)
            if key not in seen:
                seen[key] = (delta, n, pos, num, den, params)
    # Distinct reduced pairs d1/m1 != d2/m2 differ by at least 1/(m1*m2), so
    # floor(2^bits * d/m) with 2^bits >= max(m)^2 is strictly increasing in
    # the value: an exact integer sort key, with no tie to break.
    bits = 2 * max(m for _, m in seen).bit_length()
    return [seen[key] for key in sorted(seen, key=lambda dm: (dm[0] << bits) // dm[1])]


def transition_scan(kmax: int, depth: int) -> list[SpectrumElement]:
    """`spectrum.transition_scan(kmax, depth)`: the rows of each triple with
    9n^2 <= Delta, and, at K >= 5, n below the end of the row's class."""
    end = functools.cache(_window_cut)
    out: list[SpectrumElement] = []
    for k in itertools.product(range(kmax + 1), repeat=3):
        big_k = 3 + sum(k)
        if big_k == 3:
            continue
        for delta, n, pos, num, den, params in _distinct_values(k, depth if big_k == 4 else 0):
            if delta >= 9 * n * n and (big_k == 4 or n < end(big_k, k[pos - 1])):
                t = IrreducibleFraction(num, den)
                out.append(SpectrumElement(_sqrt_over(delta, n), n, pos, t, params))
    return out
