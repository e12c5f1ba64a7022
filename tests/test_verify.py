import dataclasses
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmspec import lattice, verify
from gmspec.cohn import closed_form_entries
from gmspec.exact import cf_matrix
from gmspec.farey import IrreducibleFraction
from gmspec import gmtree
from gmspec.gmtree import (
    ALL_SIGMAS, GMParams, IDENTITY, characteristic_number, gm_check, gm_node, gm_pair,
)
from gmspec.lattice import _label_sequence, admissible_sequence
from gmspec.verify import (
    CheckResult,
    grid_fractions,
    grid_triples,
    run_suite,
    squares_suite,
    snake_suite,
    transition_suite,
)
from farey_oracle import farey_grid_fractions


def test_grid_fractions_match_the_farey_triple_walk():
    for d in range(9):
        assert grid_fractions(d) == farey_grid_fractions(d)


def test_grid_shapes():
    assert len(grid_fractions(7)) == 255
    assert len(grid_fractions(0)) == 1
    triples = grid_triples()
    assert len(triples) == 28
    assert all(max(t) <= 3 for t in triples)
    assert triples[:8] == [
        (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
    ]
    # seeded draws are reproducible
    assert triples == grid_triples()


def test_small_suites_pass():
    assert all(r.ok for r in snake_suite(exhaustive_sum=8, random_count=20))
    assert all(r.ok for r in squares_suite(depth=5))


def test_run_suite_dispatch():
    results = run_suite("squares")
    assert results and all(r.ok for r in results)
    try:
        run_suite("bogus")
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def _reference_entry(t, kappa):
    """A grid entry from the per-label public path: tree data by descending
    to t, rotation minimum by multiplying out every cyclic rotation."""
    params = GMParams(*kappa, IDENTITY)
    solves = gm_check(*gm_node(t, params).triple_at_positions(), kappa)
    pair = gm_pair(t, params)
    n, pos, u = pair.value, pair.pos, characteristic_number(t, params)
    k_t = kappa[pos - 1]
    K = params.coeff_sum
    s = admissible_sequence(t, params)
    m = cf_matrix(s)
    closed = closed_form_entries(n, u, k_t, K)
    rot_min = min(cf_matrix(s[i:] + s[:i]).c for i in range(len(s)))
    return verify.GridEntry(
        t, n, u, k_t, solves, (m.a, m.b, m.c, m.d),
        (closed.a, closed.b, closed.c, closed.d), rot_min,
    )


def test_grid_matches_reference_entries():
    # every arrangement of the default grid, interior labels and then 1/0
    kappas = {GMParams(*k, sigma).kappa for k in grid_triples() for sigma in ALL_SIGMAS}
    for kappa in sorted(kappas):
        want = [_reference_entry(t, kappa) for t in grid_fractions(5)]
        infinity = _reference_entry(IrreducibleFraction(1, 0), kappa)
        for d in range(6):
            got = verify._grid(kappa, d)
            assert got == (*want[: 2 ** (d + 1) - 1], infinity), (kappa, d)


def test_grid_suites_beyond_default_depth():
    # the grid is walked to the requested depth, not to GRID_DEPTH
    fact = verify.factorization_suite(depth=8, triples=[(0, 0, 1)])
    rot = verify.rotation_suite(depth=8, triples=[(0, 0, 1)])
    dual = verify.duality_suite(depth=8, triples=[(0, 0, 1)], surd_sample_depth=1)
    assert all(r.ok for r in fact + rot + dual)
    assert [r.detail for r in fact] == ["3066 cases"] + ["3072 cases"] * 3
    assert rot[0].detail == "3066 cases"
    assert [r.detail for r in dual[:3]] == ["3066 cases"] * 3


def _first_entry_plus_one(*fields):
    """A change that adds 1 to the first component of each named field."""
    def change(e):
        return {f: (getattr(e, f)[0] + 1, *getattr(e, f)[1:]) for f in fields}
    return change


# (suite, index and label of the tampered entry, change, failing check);
# label 1/2 (index 1) is read before its mirror 2/1, so its own checks fail
# first, and 1/0 is the last entry
_WRONG_ENTRIES = [
    ("factorization", 1, "1/2", lambda e: {"solves": False}, "vieta-exactness"),
    ("factorization", 1, "1/2", _first_entry_plus_one("closed"), "factorization"),
    ("factorization", 1, "1/2", _first_entry_plus_one("cf", "closed"), "determinant"),
    ("factorization", 1, "1/2", lambda e: {"k_t": e.k_t + 1}, "trace"),
    ("factorization", -1, "1/0", _first_entry_plus_one("closed"), "factorization"),
    ("rotation", 1, "1/2", lambda e: {"rot_min_c": e.rot_min_c + 1}, "rotation-minimality"),
    ("duality", 1, "1/2", lambda e: {"rot_min_c": e.rot_min_c + 1}, "main-theorem"),
    ("duality", 1, "1/2", _first_entry_plus_one("cf"), "lagrange-duality"),
    ("duality", 1, "1/2", lambda e: {"u": e.u + 1}, "characteristic-duality"),
]


@pytest.mark.parametrize(
    "suite, index, label, change, name",
    _WRONG_ENTRIES,
    ids=[c[4] if c[2] == "1/2" else f"{c[4]}-at-{c[2]}" for c in _WRONG_ENTRIES],
)
def test_grid_suite_reports_a_wrong_entry(monkeypatch, suite, index, label, change, name):
    grid = verify._grid

    def tampered(kappa, depth):
        entries = list(grid(kappa, depth))
        entries[index] = dataclasses.replace(entries[index], **change(entries[index]))
        return tuple(entries)

    monkeypatch.setattr(verify, "_grid", tampered)
    kwargs = {"surd_sample_depth": 0} if suite == "duality" else {}
    results = getattr(verify, f"{suite}_suite")(depth=3, triples=[(0, 0, 1)], **kwargs)
    assert [(r.name, r.ok) for r in results] == [(name, False)]
    assert results[0].detail.startswith(f"t={label} k=(0, 0, 1)")


def test_squares_suite_reports_a_wrong_vertex(monkeypatch):
    walk = verify._walk_tree

    def tampered(params, depth):
        out = walk(params, depth)
        if params == GMParams(2, 2, 2):
            ln, ld, rn, rd, (a, h, b, i, c, j) = out[5]  # the vertex labeled 3/2
            out[5] = (ln, ld, rn, rd, (a, h, b + 1, i, c, j))
        return out

    monkeypatch.setattr(verify, "_walk_tree", tampered)
    assert squares_suite(depth=3) == [CheckResult("squares", False, "t=3/2")]


def test_squares_suite_reports_a_wrong_tripled_value(monkeypatch):
    rows = verify._distinct_values

    def tampered(k, depth):
        out = rows(k, depth)
        if k == (2, 2, 2):
            delta, n, *rest = out[3]
            out[3] = (delta, n + 1, *rest)
        return out

    monkeypatch.setattr(verify, "_distinct_values", tampered)
    assert squares_suite(depth=3) == [
        CheckResult("squares", True, "15 vertices"),
        CheckResult("triple-bijection", False, "value sets differ"),
    ]


def test_factorization_suite_reports_a_step_off_the_equation(monkeypatch):
    # the step with k_h and k_i swapped leaves the equation once they differ,
    # and the grid is built again from it
    def swapped(node, k, K, direction):
        a, h, b, i, c, j = node
        if direction == "L":
            return a, h, K * a * b - k[i - 1] * b - k[h - 1] * a - c, j, b, i
        return b, i, K * b * c - k[i - 1] * b - k[j - 1] * c - a, h, c, j

    monkeypatch.setattr(gmtree, "_child", swapped)
    verify._grid.cache_clear()
    try:
        assert verify.factorization_suite(depth=3, triples=[(0, 0, 0)])[0].ok
        results = verify.factorization_suite(depth=3, triples=[(0, 1, 0)])
    finally:
        verify._grid.cache_clear()
    assert [(r.name, r.ok) for r in results] == [("vieta-exactness", False)]
    assert results[0].detail == "t=1/2 k=(0, 1, 0) sigma=(1, 2, 3): off the equation"


def _suite_without(monkeypatch, drop):
    """transition_suite(2, 4) by result name, over a scan without the rows
    that `drop` picks."""
    scan = [el for el in verify.transition_scan(2, 4) if not drop(el)]
    monkeypatch.setattr(verify, "transition_scan", lambda kmax, depth: scan)
    return {r.name: (r.ok, r.detail) for r in transition_suite(2, 4)}


def test_transition_suite_reports_a_missing_witness(monkeypatch):
    # 2*sqrt(5) stays in the window from (0,2,0) and (2,0,0)
    results = _suite_without(monkeypatch, lambda el: (
        (el.params.k1, el.params.k2, el.params.k3) == (0, 0, 2) and el.n == 4
    ))
    assert results["transition-witness"] == (False, "witness missing")
    assert results["transition-window"] == (True, "49 window values")


def test_transition_suite_reports_a_missing_value(monkeypatch):
    # every permutation of a triple witnesses its values, so a value goes
    # missing only with all its rows
    first = verify.transition_scan(2, 4)[0].value
    results = _suite_without(monkeypatch, lambda el: el.value == first)
    assert results["transition-window"] == (False, "scan 48 values, expected 49")


def test_labels_and_mirror():
    # the walk's labels are grid_fractions' followed by 1/0, and the mirror
    # index of each interior label holds its reciprocal
    for d in range(8):
        labels = [e.t for e in verify._grid((1, 2, 0), d)]
        assert labels == grid_fractions(d) + [IrreducibleFraction(1, 0)]
        mirror = verify._mirror(d)
        assert sorted(mirror) == list(range(len(labels) - 1))
        for i, j in enumerate(mirror):
            assert mirror[j] == i
            assert labels[j] == labels[i].reciprocal()


def test_grid_case_counts():
    fact = verify.factorization_suite(depth=3)
    rot = verify.rotation_suite(depth=3)
    dual = verify.duality_suite(depth=3, surd_sample_depth=1)
    assert all(r.ok for r in fact + rot + dual)
    assert [(r.name, r.detail) for r in fact] == [
        ("vieta-exactness", "2520 cases"),
        ("factorization", "2688 cases"), ("determinant", "2688 cases"), ("trace", "2688 cases"),
    ]
    assert (rot[0].name, rot[0].detail) == ("rotation-minimality", "2520 cases")
    assert [(r.name, r.detail) for r in dual[:3]] == [
        ("main-theorem", "2520 cases"),
        ("lagrange-duality", "2520 cases"),
        ("characteristic-duality", "2520 cases"),
    ]


def _clear_caches():
    for name, mod in list(sys.modules.items()):
        if name == "gmspec" or name.startswith("gmspec."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def test_grid_traces_each_label_once_per_depth():
    # every arrangement weighs the label table's skeletons, so a cold grid
    # traces each label once and never looks one up again; at depth 8 the 511
    # labels outnumber the skeleton cache, which the grid does not rely on
    for depth in (7, 8):
        _clear_caches()
        assert all(r.ok for r in verify.factorization_suite(depth=depth))
        info = lattice._skeleton.cache_info()
        assert info.misses == len(grid_fractions(depth)) == 2 ** (depth + 1) - 1, depth
        assert info.hits == 0, depth
    assert info.misses > info.maxsize


def test_grid_matches_reference_entries_at_depth_8():
    # the label table and each arrangement's walk stay aligned past the
    # skeleton cache's size, also where a multiplicity is zero
    labels = grid_fractions(8) + [IrreducibleFraction(1, 0)]
    for kappa in [(1, 2, 0), (0, 0, 3), (2, 1, 1)]:
        want = tuple(_reference_entry(t, kappa) for t in labels)
        assert verify._grid(kappa, 8) == want, kappa


def test_label_table_weighs_to_the_admissible_sequences():
    table = verify._labels(7)
    for kappa in itertools.product(range(3), repeat=3):
        params = GMParams(*kappa)
        for t, skeleton in table:
            assert _label_sequence(skeleton, kappa) == admissible_sequence(t, params), (t, kappa)


def test_rotation_minimum_is_the_least_rotation_entry():
    # the conjugation steps against a convergent matrix per rotation
    for kappa in itertools.product(range(4), repeat=3):
        params = GMParams(*kappa)
        for e in verify._grid(kappa, 5):
            s = admissible_sequence(e.t, params)
            want = min(cf_matrix(s[i:] + s[:i]).c for i in range(len(s)))
            assert verify._rotation_min_c(s, e.cf) == e.rot_min_c == want, (e.t, kappa)



@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=48).map(tuple))
@settings(deadline=None)
def test_rotation_minimum_on_three_integers_matches_every_rotation(s):
    # any positive block, not only admissible sequences
    m = cf_matrix(s)
    want = min(cf_matrix(s[i:] + s[:i]).c for i in range(len(s)))
    assert verify._rotation_min_c(s, (m.a, m.b, m.c, m.d)) == want


_REPEATED = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 1)]


def _grid_suites(triples, depth=3):
    return (
        verify.factorization_suite(depth=depth, triples=triples)
        + verify.rotation_suite(depth=depth, triples=triples)
        + verify.duality_suite(depth=depth, triples=triples, surd_sample_depth=1)
    )


def _counts(results):
    return [(r.name, int(r.detail.split()[0])) for r in results if r.detail[:1].isdigit()]


def test_repeated_arrangements_count_every_case():
    # the four triples share three arrangements, each met eight times, yet the
    # counts are those of four separate calls, surd sample included
    results = _grid_suites(_REPEATED)
    assert all(r.ok for r in results)
    singles = [_counts(_grid_suites([t])) for t in _REPEATED]
    assert _counts(results) == [
        (name, sum(c[i][1] for c in singles)) for i, (name, _) in enumerate(singles[0])
    ]


@pytest.mark.parametrize("tampered_kappa", [(1, 0, 0), (0, 0, 1)])
@pytest.mark.parametrize(
    "suite, index, change, name",
    [(c[0], c[1], c[3], c[4]) for c in _WRONG_ENTRIES],
    ids=[c[4] if c[2] == "1/2" else f"{c[4]}-at-{c[2]}" for c in _WRONG_ENTRIES],
)
def test_a_wrong_arrangement_fails_at_its_first_pair(
    monkeypatch, suite, index, change, name, tampered_kappa
):
    # a kappa is checked only at the first (triple, sigma) on it, so a call
    # over several triples fails as the first failing one-triple call does:
    # that is where a scan of every pair meets the wrong entry first
    grid = verify._grid

    def tampered(kappa, depth):
        entries = list(grid(kappa, depth))
        if kappa == tampered_kappa:
            entries[index] = dataclasses.replace(entries[index], **change(entries[index]))
        return tuple(entries)

    monkeypatch.setattr(verify, "_grid", tampered)
    kwargs = {"surd_sample_depth": 0} if suite == "duality" else {}
    run = getattr(verify, f"{suite}_suite")
    triples = [(0, 2, 2), *_REPEATED[:3]]  # three triples on the same three kappas
    singles = [run(depth=3, triples=[t], **kwargs) for t in triples]
    first_failure = next(r for r in singles if not all(c.ok for c in r))
    results = run(depth=3, triples=triples, **kwargs)
    assert results == first_failure
    # in duality a wrong entry of the reversed kappa may fail another check first
    assert len(results) == 1 and not results[0].ok
    # (0, 2, 2) has neither kappa, and (0, 0, 1) meets both first
    assert "k=(0, 0, 1)" in results[0].detail
    if suite != "duality":
        assert results[0].name == name
    if name in ("factorization", "rotation-minimality"):
        sigma = next(g for g in ALL_SIGMAS if GMParams(0, 0, 1, g).kappa == tampered_kappa)
        assert f"k=(0, 0, 1) sigma={sigma}" in results[0].detail


class _CountedGrid(tuple):
    """A grid that counts in `walks`, by its `kappa`, the walks through its
    entries: iterations and slices, not reads by index."""

    def __iter__(self):
        self.walks[self.kappa] = self.walks.get(self.kappa, 0) + 1
        return super().__iter__()

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.walks[self.kappa] = self.walks.get(self.kappa, 0) + 1
        return super().__getitem__(i)


@pytest.mark.parametrize("suite", ["factorization", "rotation", "duality"])
def test_each_arrangement_is_walked_once_per_call(monkeypatch, suite):
    grid = verify._grid
    walks = {}

    def counted(kappa, depth):
        out = _CountedGrid(grid(kappa, depth))
        out.kappa, out.walks = kappa, walks
        return out

    monkeypatch.setattr(verify, "_grid", counted)
    kwargs = {"surd_sample_depth": 0} if suite == "duality" else {}
    triples = grid_triples()
    results = getattr(verify, f"{suite}_suite")(depth=2, triples=triples, **kwargs)
    assert all(r.ok for r in results)
    kappas = {GMParams(*t, sigma).kappa for t in triples for sigma in ALL_SIGMAS}
    # 28 triples meet 42 arrangements 168 times; each one's entries are read once
    assert len(kappas) == 42
    assert walks == dict.fromkeys(kappas, 1)


def test_surd_sample_covers_the_first_ten_triples_visited(monkeypatch):
    visited = []
    markov = verify.markov_value

    def recorded(t, params):
        visited.append((params.k1, params.k2, params.k3))
        return markov(t, params)

    monkeypatch.setattr(verify, "markov_value", recorded)
    one = verify.duality_suite(depth=3, triples=[(0, 2, 2)], surd_sample_depth=1)
    assert one[-1] == CheckResult("surd-sample", True, "3 exact surd triples")
    assert visited == [(0, 2, 2)] * 3
    visited.clear()
    default = verify.duality_suite(depth=3, surd_sample_depth=1)
    assert default[-1] == CheckResult("surd-sample", True, "30 exact surd triples")
    assert visited == [t for t in grid_triples()[:10] for _ in range(3)]


@pytest.mark.parametrize("exhaustive_sum, random_count", [
    (-1, 0),
    (verify.BRUTE_FORCE_TILE_BOUND + 2, 0),
    (8, -5),
    (verify.SNAKE_RANDOM_SUM, 1),
])
def test_snake_suite_refuses_bad_arguments(monkeypatch, exhaustive_sum, random_count):
    def no_work(seq):
        raise AssertionError("refuse before building any graph")

    monkeypatch.setattr(verify, "build_snake_graph", no_work)
    with pytest.raises(ValueError):
        snake_suite(exhaustive_sum=exhaustive_sum, random_count=random_count)


class _Started(Exception):
    pass


@pytest.mark.parametrize("exhaustive_sum, random_count", [
    (0, 0),
    (verify.BRUTE_FORCE_TILE_BOUND + 1, 0),
    (verify.SNAKE_RANDOM_SUM - 1, 3),
])
def test_snake_suite_accepts_its_edge_arguments(monkeypatch, exhaustive_sum, random_count):
    def started(seq):
        raise _Started

    monkeypatch.setattr(verify, "build_snake_graph", started)
    with pytest.raises(_Started):
        snake_suite(exhaustive_sum=exhaustive_sum, random_count=random_count)


@pytest.mark.parametrize("wrong", [(1, 1), (2,)])
def test_snake_suite_checks_every_sequence_of_a_shared_graph(monkeypatch, wrong):
    # (1, 1) and (2) share one graph; the walk meets (1, 1) first and counts
    # it, and (2) reuses that count, so a continuant wrong only at either
    # one must still fail there
    assert verify._join_runs((1, 1)) == verify._join_runs((2,)) == ()  # both sum to 2
    right = verify.continuant
    monkeypatch.setattr(verify, "continuant", lambda seq: right(seq) + (seq == wrong))
    assert snake_suite(exhaustive_sum=4, random_count=0) == [
        CheckResult("snake-oracle", False, f"seq={wrong}")
    ]


def test_snake_suite_counts_each_distinct_graph_once(monkeypatch):
    build, count = verify.build_snake_graph, verify.count_matchings_bruteforce
    builds, counts = [], []

    def built(seq):
        builds.append(build(seq))
        return builds[-1]

    def counted(graph):
        counts.append(graph)
        return count(graph)

    monkeypatch.setattr(verify, "build_snake_graph", built)
    monkeypatch.setattr(verify, "count_matchings_bruteforce", counted)
    for kwargs, detail, distinct in [
        ({"exhaustive_sum": 10, "random_count": 0}, "1024 sequences", 258),
        ({}, "4296 sequences", 1200),
    ]:
        builds.clear()
        counts.clear()
        assert snake_suite(**kwargs) == [CheckResult("snake-oracle", True, detail)]
        assert len(builds) == len(set(builds)) == distinct
        assert len(counts) == len(set(counts)) == distinct


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first, *rest)


def test_snake_key_tells_graphs_apart():
    # the suite's key (sum, join runs) and the built graph determine each
    # other over every composition with sum <= 14
    graph_of, key_of = {}, {}
    for total in range(15):
        for seq in _compositions(total):
            key, graph = (total, verify._join_runs(seq)), verify.build_snake_graph(seq)
            assert graph_of.setdefault(key, graph) == graph, seq
            assert key_of.setdefault(graph, key) == key, seq
    # (), (1) and (2), then 2^(s - 3) turn patterns for each sum s from 3 to 14
    assert len(graph_of) == len(key_of) == 3 + (2 ** 12 - 1) == 4098
