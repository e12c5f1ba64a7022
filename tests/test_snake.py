import random

import pytest

import snake_oracle
from gmspec.snake import (
    BRUTE_FORCE_TILE_BOUND,
    _join_runs,
    build_snake_graph,
    continuant,
    count_matchings_bruteforce,
    rotation_tails,
)


def test_continuant_fixtures():
    assert continuant((5,)) == 5
    assert continuant((1, 3, 3, 1, 5, 4, 1, 3, 4)) == 8227
    assert continuant(()) == 1
    assert continuant((2, 4, 2, 1)) == 29
    assert continuant((4, 4, 5, 4)) == 373
    assert continuant((1, 3, 4, 5, 3, 1)) == 373
    assert continuant((1, 7, 1, 8, 1, 1, 2, 2, 6, 5)) == 33848


def test_continuant_rejects_bad_entries():
    with pytest.raises(ValueError):
        continuant((2, 0))


def test_build_fixtures():
    g = build_snake_graph((2,))
    assert len(g.tiles) == 1 and len(g.vertices) == 4
    g = build_snake_graph((1,))
    assert g.tiles == () and len(g.edges) == 1
    g = build_snake_graph(())
    assert g.vertices == ()
    # one tile fewer than the total sign count
    g = build_snake_graph((2, 4, 2, 1))
    assert len(g.tiles) == 2 + 4 + 2 + 1 - 1


def test_join_runs_fixtures():
    # (a_1 - 1, a_2, ..., a_{n-1}, a_n - 1), or (a_1 - 2) for n = 1, without
    # non-positive runs
    assert _join_runs(()) == _join_runs((1,)) == _join_runs((2,)) == _join_runs((1, 1)) == ()
    assert _join_runs((2, 4, 2, 1)) == (1, 4, 2)
    # (5) and (1, 3, 1) share a sum and a run, so a graph and a continuant
    assert _join_runs((5,)) == _join_runs((1, 3, 1)) == (3,)
    assert build_snake_graph((5,)) == build_snake_graph((1, 3, 1))
    assert continuant((5,)) == continuant((1, 3, 1)) == 5


def test_bruteforce_fixtures():
    assert count_matchings_bruteforce(build_snake_graph((5,))) == 5
    assert count_matchings_bruteforce(build_snake_graph((2, 4, 2, 1))) == 29
    assert count_matchings_bruteforce(build_snake_graph((1,))) == 1
    assert count_matchings_bruteforce(build_snake_graph(())) == 1


def test_bruteforce_bound():
    with pytest.raises(ValueError):
        count_matchings_bruteforce(build_snake_graph((18,)))


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first, *rest)


def test_oracle_exhaustive_small():
    for total in range(0, 10):
        for seq in compositions(total):
            assert continuant(seq) == count_matchings_bruteforce(build_snake_graph(seq))


def test_build_matches_the_corner_walk_builder():
    # tiles, vertices and edges as the corner-walk builder makes them: every
    # composition with sum <= 12, then seeded sequences up to the brute-force bound
    rng = random.Random(33)
    seqs = [seq for total in range(13) for seq in compositions(total)]
    for _ in range(300):
        total = rng.randint(13, BRUTE_FORCE_TILE_BOUND + 1)  # total - 1 tiles
        seq = []
        while total:
            seq.append(rng.randint(1, min(total, 5)))
            total -= seq[-1]
        seqs.append(tuple(seq))
    for seq in seqs:
        assert build_snake_graph(seq) == snake_oracle.build_snake_graph(seq), seq


def test_matcher_matches_the_full_adjacency_backtracker():
    # every distinct graph with sum <= 12, then seeded sequences up to the
    # brute-force bound; the later-neighbour search must count what the
    # full-adjacency search counts
    graphs = {build_snake_graph(seq) for total in range(13) for seq in compositions(total)}
    # (), (1) and (2), then 2^(s - 3) turn patterns for each sum s from 3 to 12
    assert len(graphs) == 3 + (2 ** 10 - 1) == 1026
    rng = random.Random(35)
    for _ in range(60):
        total = rng.randint(13, BRUTE_FORCE_TILE_BOUND + 1)
        seq = []
        while total:
            seq.append(rng.randint(1, min(total, 5)))
            total -= seq[-1]
        graphs.add(build_snake_graph(seq))
    for graph in graphs:
        assert count_matchings_bruteforce(graph) == snake_oracle.count_matchings_bruteforce(
            graph
        ), graph.tiles


def test_reversal_invariance():
    rng = random.Random(31)
    for _ in range(200):
        seq = tuple(rng.randint(1, 7) for _ in range(rng.randint(0, 8)))
        assert continuant(seq) == continuant(seq[::-1])


def test_semi_palindrome_identity():
    # m(G[a2..mid..a1]) - m(G[a1..mid..a2]) = (-1)^l * k for the palindromic
    # wrap (a1,..,a_{l-1}, a_l + k, a_l, a_{l-1},..,a1)
    rng = random.Random(32)
    for _ in range(200):
        ell = rng.randint(1, 5)
        base = [rng.randint(1, 5) for _ in range(ell)]
        k = rng.randint(-3, 4)
        if base[-1] + k < 1:
            continue
        seq = base[:-1] + [base[-1] + k, base[-1]] + base[:-1][::-1]
        first_dropped = tuple(seq[1:])
        last_dropped = tuple(seq[:-1])
        lhs = continuant(first_dropped) - continuant(last_dropped[::-1])
        assert lhs == (-1) ** ell * k


def test_leading_one_identity():
    # m(G[a1,1,a3..an]) = (a1+1) m(G[a3+1,..,an]) - m(G[a4,..,an])
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(4, 8)
        seq = [rng.randint(1, 5) for _ in range(n)]
        seq[1] = 1
        lhs = continuant(tuple(seq))
        rhs = (seq[0] + 1) * continuant(tuple([seq[2] + 1] + seq[3:])) - continuant(
            tuple(seq[3:])
        )
        assert lhs == rhs


def test_rotation_tails_fixtures():
    s = (1, 3, 3, 1, 5, 4, 1, 3, 4, 5)
    tails = rotation_tails(s)
    assert len(tails) == 10
    assert tails[0] == (3, 3, 1, 5, 4, 1, 3, 4, 5)
    assert rotation_tails((7,)) == [()]


def test_rotation_tails_of_generalized_sequence():
    from gmspec.farey import IrreducibleFraction
    from gmspec.gmtree import GMParams
    from gmspec.lattice import admissible_sequence

    s = admissible_sequence(IrreducibleFraction(2, 5), GMParams(1, 2, 0))
    tails = rotation_tails(s)
    assert tails[0] == (1, 3, 3, 1, 5, 4, 1, 3, 4)
    assert tails[1] == (3, 3, 1, 5, 4, 1, 3, 4, 5)
    assert [continuant(w) for w in tails] == [
        8227, 32957, 12039, 12041, 32937, 8261, 9997, 31881, 12199, 11127,
    ]


def test_continued_fraction_value_identity():
    # continuant(S)/continuant(tail(S)) equals the continued fraction value
    from fractions import Fraction

    rng = random.Random(34)
    for _ in range(100):
        seq = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 8)))
        val = Fraction(seq[-1])
        for a in reversed(seq[:-1]):
            val = a + 1 / val
        assert val == Fraction(continuant(seq), continuant(seq[1:]))
