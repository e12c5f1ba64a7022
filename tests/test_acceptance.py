"""Acceptance suite: one test per numbered criterion, exact tolerances.

Criterion 8 is split: the self-consistent distance checks pass, while the
printed distance value for (0,0)-(6,4) is asserted verbatim in its own test
and fails, because it contradicts the printed sign sequence it comes with
(the matching count of (4,5,4,4,5,1,3,5,4,4) is 834401 = 373*2237, the
doubled-loop value, whereas the printed 834774 equals 6*373^2, the same
product with the trace correction dropped).  Everything else is green.
"""

import time
from fractions import Fraction

import pytest

from exact_oracle import shift
from gmspec.exact import QuadSurd, periodic_cf_expansion
from gmspec.farey import IrreducibleFraction
from gmspec.gmtree import GMParams, gm_check, parse_sigma
from gmspec.lattice import admissible_sequence, gm_distance, gm_length, segment_sign_sequence
from gmspec.spectrum import (
    FREIMAN_CONSTANT,
    alpha_fixed_point,
    lagrange_value,
    markov_sup_exact,
    markov_value,
    qform_of,
)
from gmspec.tables import reproduce_tables
from gmspec.verify import (
    duality_suite,
    factorization_suite,
    rotation_suite,
    snake_suite,
    squares_suite,
    transition_suite,
)

F = IrreducibleFraction.parse


def _report(name: str, results) -> None:
    ok = all(r.ok for r in results)
    print(f"{name}: {'PASS' if ok else 'FAIL'} "
          + "; ".join(f"{r.name}={'ok' if r.ok else 'FAIL ' + r.detail}" for r in results))
    assert ok, [r.describe() for r in results if not r.ok]


@pytest.fixture(scope="session")
def grid():
    """Shared heavy grid: factorization, rotation, and duality suites reuse
    one cache of per-(label, arrangement) entries."""
    t0 = time.monotonic()
    fact = factorization_suite()
    fact_elapsed = time.monotonic() - t0
    rot = rotation_suite()
    dual = duality_suite()
    return {"fact": fact, "fact_elapsed": fact_elapsed, "rot": rot, "dual": dual}


def test_criterion_01_table_reproduction():
    t0 = time.monotonic()
    results = reproduce_tables()
    elapsed = time.monotonic() - t0
    bad = [r.describe() for r in results if not r.ok]
    print(f"criterion 1: {len(results) - len(bad)}/{len(results)} golden rows, {elapsed:.1f}s")
    assert not bad, bad
    assert len(results) == 80
    assert elapsed < 10


def test_criterion_02_factorization_identity(grid):
    assert grid["fact_elapsed"] < 60
    _report("criterion 2", [r for r in grid["fact"] if r.name == "factorization"])


def test_criterion_03_trace_determinant(grid):
    _report("criterion 3", [r for r in grid["fact"] if r.name in ("determinant", "trace")])


def test_criterion_04_snake_oracle():
    t0 = time.monotonic()
    results = snake_suite()
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _report("criterion 4", results)


def test_criterion_05_rotation_minimality(grid):
    _report("criterion 5", grid["rot"])


def test_criterion_06_main_theorem(grid):
    _report(
        "criterion 6",
        [r for r in grid["dual"] if r.name in ("main-theorem", "lagrange-duality", "surd-sample")],
    )


def test_criterion_07_characteristic_duality(grid):
    _report("criterion 7", [r for r in grid["dual"] if r.name == "characteristic-duality"])


def test_criterion_08_gm_distance():
    p = GMParams(1, 2, 0)
    assert gm_distance((0, 0), (3, 2), p) == 373
    assert gm_length((1, 7, 1, 8, 1, 1, 2, 2, 6, 5)) == 33848
    seq = segment_sign_sequence((0, 0), (6, 4), p)
    assert seq == (4, 5, 4, 4, 5, 1, 3, 5, 4, 4)
    # the distance equals the matching count of that sequence, and is
    # independent of the perturbation side
    assert gm_distance((0, 0), (6, 4), p) == gm_length(seq) == 373 * 2237
    assert gm_length(segment_sign_sequence((0, 0), (6, 4), p, side="right")) == 373 * 2237
    print("criterion 8: PASS (373, 33848, stated sequence, side independence)")


def test_criterion_08b_printed_distance_value():
    # stated value for d((0,0),(6,4)); inconsistent with the stated sign
    # sequence above, kept verbatim -- see the ledger analysis
    d = gm_distance((0, 0), (6, 4), GMParams(1, 2, 0))
    print(f"criterion 8b: stated 834774 vs computed {d}")
    assert d == 834774


def test_criterion_09_triple_relation():
    results = squares_suite(depth=8)
    _report("criterion 9", results)


def test_criterion_10_transition_interval():
    t0 = time.monotonic()
    results = transition_suite(kmax=5, depth=8)
    elapsed = time.monotonic() - t0
    print(f"criterion 10 elapsed: {elapsed:.1f}s")
    assert elapsed < 120
    _report("criterion 10", results)


def test_criterion_11_strict_inclusion_witness():
    val = lagrange_value((1, 1, 1, 2, 2, 2))
    assert val == QuadSurd(0, 4, 210, 19)
    assert alpha_fixed_point((1, 1, 1, 2, 2, 2)) == QuadSurd(17, 2, 210, 29)
    assert val < QuadSurd(0, 2, 3, 1)
    print("criterion 11: PASS (4*sqrt(210)/19 and (2*sqrt(210)+17)/29, below 2*sqrt(3))")


def test_criterion_12_uniqueness_counterexample():
    k = (1, 2, 0)
    assert gm_check(1, 81, 17, k)
    assert gm_check(7, 81, 2, k)
    target = QuadSurd(0, 2, 723, 9)
    el_a = markov_value(F("1/3"), GMParams(*k))
    el_b = markov_value(F("2/3"), GMParams(*k, parse_sigma("(1 2 3)")))
    assert el_a.value == target and el_a.n == 81
    assert el_b.value == target and el_b.n == 81
    alpha = alpha_fixed_point(admissible_sequence(F("1/3"), GMParams(*k)))
    beta = alpha_fixed_point(
        admissible_sequence(F("2/3"), GMParams(*k, parse_sigma("(1 2 3)")))
    )
    assert alpha == QuadSurd(25, 1, 723, 9)
    assert beta == QuadSurd(23, 1, 723, 9)
    pa = periodic_cf_expansion(alpha)
    pb = periodic_cf_expansion(beta)
    assert pa == ((), (5, 1, 3, 3, 1, 4))
    assert pb == ((), (5, 1, 1, 5, 3, 2))
    assert pa[1] != pb[1] and pa[1] != pb[1][::-1]
    print("criterion 12: PASS (two distinct non-reversed periods for 2*sqrt(723)/9)")


def test_criterion_13_numeric_smoke():
    t0 = time.monotonic()
    labels = ["0/1", "1/1", "1/2", "1/3", "2/3"]
    params = GMParams(0, 0, 0)
    tol = Fraction(1, 100)
    for lab in labels:
        t = F(lab)
        s = admissible_sequence(t, params)
        target = lagrange_value(s)
        sup = markov_sup_exact(qform_of(s), 10**4)
        assert sup is not None
        assert not target < sup  # approached from below
        assert not sup < shift(target, -tol)
    elapsed = time.monotonic() - t0
    print(f"criterion 13: PASS, five smallest values within 1e-2 ({elapsed:.1f}s)")
    assert elapsed < 30
