import random
from fractions import Fraction

import pytest

from gmspec.farey import FareyTriple, IrreducibleFraction
from farey_oracle import FAREY_ROOT, christoffel_word, farey_locate

F = IrreducibleFraction.parse


def test_fraction_validation():
    with pytest.raises(ValueError):
        IrreducibleFraction(2, 4)
    with pytest.raises(ValueError):
        IrreducibleFraction(0, 0)
    assert F("inf") == IrreducibleFraction(1, 0)
    assert str(F("2/5")) == "2/5"


def test_fraction_order_with_infinity():
    assert F("0/1") < F("1/3") < F("1/2") < F("1/1") < F("5/2") < F("1/0")
    assert not F("1/0") < F("1/0")


def test_fraction_ordering_against_a_foreign_type_is_refused():
    with pytest.raises(TypeError):
        IrreducibleFraction(1, 2) < 3
    with pytest.raises(TypeError):
        IrreducibleFraction(1, 2) < Fraction(1, 3)


def test_farey_locate_fixtures():
    path, triple = farey_locate(F("2/5"))
    assert path == ("L", "L", "R")
    assert triple == FareyTriple(F("1/3"), F("2/5"), F("1/2"))
    path, triple = farey_locate(F("1/1"))
    assert path == ()
    assert triple == FAREY_ROOT
    path, triple = farey_locate(F("3/2"))
    assert path == ("R", "L")
    assert triple == FareyTriple(F("1/1"), F("3/2"), F("2/1"))
    with pytest.raises(ValueError):
        farey_locate(F("0/1"))
    with pytest.raises(ValueError):
        farey_locate(F("1/0"))


def _random_fraction(rng: random.Random) -> IrreducibleFraction:
    import math

    while True:
        a, b = rng.randint(1, 40), rng.randint(1, 40)
        if math.gcd(a, b) == 1:
            return IrreducibleFraction(a, b)


def test_path_length_is_quotient_sum_minus_one():
    rng = random.Random(3)
    for _ in range(60):
        t = _random_fraction(rng)
        num, den = t.num, t.den
        digits = []
        while den:
            digits.append(num // den)
            num, den = den, num % den
        path, triple = farey_locate(t)
        assert len(path) == sum(digits) - 1
        assert triple.mid == t


def test_children_of_located_triples_validate():
    rng = random.Random(4)
    for _ in range(30):
        t = _random_fraction(rng)
        _, triple = farey_locate(t)
        # FareyTriple construction re-checks adjacency invariants
        left, right = triple.child("L"), triple.child("R")
        assert left.left < left.mid < left.right
        assert right.left < right.mid < right.right
        mid = triple.mid
        assert left.mid == IrreducibleFraction(triple.left.num + mid.num, triple.left.den + mid.den)
    with pytest.raises(ValueError):
        FareyTriple(F("1/3"), F("1/2"), F("2/3"))  # 1/3 and 2/3 are not adjacent


def test_christoffel_fixtures():
    assert christoffel_word(F("2/5")) == "ppqpq"
    assert christoffel_word(F("5/2")) == "qrqrr"
    assert christoffel_word(F("0/1")) == "p"
    assert christoffel_word(F("1/0")) == "r"
    assert christoffel_word(F("1/1")) == "q"


def test_christoffel_letter_counts():
    # slope-0 steps cover den - num columns, slope-1 steps num of them (t <= 1)
    rng = random.Random(5)
    for _ in range(40):
        t = _random_fraction(rng)
        w = christoffel_word(t)
        a, b = t.num, t.den
        if a <= b:
            assert w.count("q") == a and w.count("p") == b - a and w.count("r") == 0
        else:
            assert w.count("q") == b and w.count("r") == a - b and w.count("p") == 0


def test_christoffel_matches_classical_sequence_substitution():
    # for t >= 1, q -> (2,2) and r -> (1,1) turn the word into the plain
    # admissible sequence
    from gmspec.gmtree import GMParams
    from gmspec.lattice import admissible_sequence

    rng = random.Random(6)
    params = GMParams(0, 0, 0)
    subst = {"q": (2, 2), "r": (1, 1)}
    seen = 0
    while seen < 25:
        t = _random_fraction(rng)
        if t.num < t.den:
            continue
        seen += 1
        expanded: list[int] = []
        for ch in christoffel_word(t):
            expanded.extend(subst[ch])
        assert tuple(expanded) == admissible_sequence(t, params)
