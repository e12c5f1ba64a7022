import math
import random

import pytest

from gmspec.farey import IrreducibleFraction
from gmspec.gmtree import (
    ALL_SIGMAS,
    GMNode,
    GMPair,
    GMParams,
    _walk_tree,
    characteristic_number,
    enumerate_tree,
    format_sigma,
    gm_check,
    gm_node,
    gm_pair,
    parse_sigma,
)
from gmspec.verify import grid_triples
from farey_oracle import FAREY_ROOT

F = IrreducibleFraction.parse


def test_gm_check_fixtures():
    assert gm_check(1, 81, 17, (1, 2, 0))
    assert gm_check(7, 81, 2, (1, 2, 0))
    assert not gm_check(1, 1, 2, (1, 2, 2))
    assert gm_check(1, 2, 1, (0, 0, 0))
    assert gm_check(5, 29, 2, (0, 0, 0))


def test_sigma_parsing():
    assert parse_sigma("id") == (1, 2, 3)
    assert parse_sigma("(1 2 3)") == (2, 3, 1)
    assert parse_sigma("(1 3 2)") == (3, 1, 2)
    assert parse_sigma("(1 3)") == (3, 2, 1)
    for s in ALL_SIGMAS:
        assert parse_sigma(format_sigma(s)) == s
    with pytest.raises(ValueError):
        parse_sigma("(1 4)")


def test_root_and_fixture_nodes():
    p = GMParams(1, 2, 0)
    assert gm_node(F("1/1"), p) == GMNode(GMPair(1, 1), GMPair(4, 2), GMPair(1, 3))
    assert gm_node(F("2/3"), p).mid == GMPair(373, 1)
    assert gm_node(F("1/2"), GMParams(0, 0, 0)).mid.value == 5
    # example tree vertices at depth 3
    assert gm_node(F("2/5"), p).mid == GMPair(8227, 1)
    assert gm_node(F("1/4"), p).mid == GMPair(386, 3)


def test_boundary_pairs():
    p = GMParams(1, 2, 0, parse_sigma("(1 2 3)"))
    assert gm_pair(F("0/1"), p) == GMPair(1, 2)
    assert gm_pair(F("1/0"), p) == GMPair(1, 1)
    assert gm_pair(F("0/1"), GMParams(3, 1, 0)) == GMPair(1, 1)


def test_characteristic_numbers():
    assert characteristic_number(F("1/2"), GMParams(0, 0, 0)) == 2
    assert characteristic_number(F("0/1"), GMParams(1, 2, 0)) == -1
    assert characteristic_number(F("1/0"), GMParams(1, 2, 0)) == 1
    assert characteristic_number(F("1/0"), GMParams(0, 3, 2, (2, 3, 1))) == 1


def test_characteristic_number_matches_cohn_corner():
    # the (2,2) entry of the attached matrix is the characteristic number
    from gmspec.cohn import cohn_closed_form

    p = GMParams(0, 0, 0)
    m = cohn_closed_form(F("1/2"), p)
    assert m.d == characteristic_number(F("1/2"), p) == 2
    assert m.to_list() == [[13, 5], [5, 2]]


def test_enumerate_tree_counts_and_fixtures():
    nodes = enumerate_tree(GMParams(0, 0, 0), 0)
    assert len(nodes) == 1
    assert nodes[0][0] == F("1/1")
    assert nodes[0][1].triple_at_positions() == (1, 2, 1)

    nodes = enumerate_tree(GMParams(1, 2, 0), 1)
    assert len(nodes) == 3
    mids = {str(t): node.mid for t, node in nodes}
    assert mids["1/2"] == GMPair(17, 3)
    assert mids["2/1"] == GMPair(21, 1)

    for depth in range(4):
        assert len(enumerate_tree(GMParams(0, 0, 0), depth)) == 2 ** (depth + 1) - 1


def test_enumerate_tree_follows_farey_triples_and_gm_node():
    # labels against the adjacency-checked FareyTriple walk, vertices against
    # the per-label descent of gm_node
    params = GMParams(1, 2, 0, parse_sigma("(1 3 2)"))
    level, labels = [FAREY_ROOT], []
    for _ in range(6):
        labels += [triple.mid for triple in level]
        level = [triple.child(step) for triple in level for step in ("L", "R")]
    nodes = enumerate_tree(params, 5)
    assert [t for t, _ in nodes] == labels
    assert all(node == gm_node(t, params) for t, node in nodes)


def test_middle_values_grow_strictly_down_every_branch():
    # the premise of the pruned window scan; breadth-first, the parent of
    # walk entry j is entry (j - 1) // 2
    for k in grid_triples():
        for sigma in ALL_SIGMAS:
            walk = _walk_tree(GMParams(*k, sigma), 7)
            assert all(walk[j][4][2] > walk[(j - 1) // 2][4][2] for j in range(1, len(walk)))


def test_every_node_solves_equation_and_is_coprime():
    rng = random.Random(9)
    for _ in range(6):
        k = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        sigma = rng.choice(ALL_SIGMAS)
        params = GMParams(*k, sigma)
        for _, node in enumerate_tree(params, 5):
            x, y, z = node.triple_at_positions()
            assert gm_check(x, y, z, k)
            vals = [node.left.value, node.mid.value, node.right.value]
            assert math.gcd(vals[0], vals[1]) == 1
            assert math.gcd(vals[1], vals[2]) == 1
            assert math.gcd(vals[0], vals[2]) == 1
            assert {node.left.pos, node.mid.pos, node.right.pos} == {1, 2, 3}


def test_duality_of_pairs():
    rng = random.Random(10)
    for _ in range(5):
        k = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        sigma = rng.choice(ALL_SIGMAS)
        params = GMParams(*k, sigma)
        dual = GMParams(*k, sigma[::-1])
        for t, node in enumerate_tree(params, 5):
            pair = node.mid
            assert gm_pair(t.reciprocal(), dual) == pair


def test_squares_property_small():
    plain = enumerate_tree(GMParams(0, 0, 0), 6)
    twos = enumerate_tree(GMParams(2, 2, 2), 6)
    for (t1, n1), (t2, n2) in zip(plain, twos):
        assert t1 == t2
        assert n1.mid.value ** 2 == n2.mid.value
        assert n1.mid.pos == n2.mid.pos
