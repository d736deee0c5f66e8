"""The pruned partition walk behind `enumerate_neighborly`.

The walk cuts a branch as soon as a line fails clique closure.  These tests
hold it to the unpruned reference in `neighborly_reference` (every cone set
times every set partition, filtered by `is_neighborly`): the same graphs in
the same order on the fixtures, and the same deduplicated candidates on
random partial linear spaces.  The Hessian, out of the reference's reach,
is checked against walk-free witnesses instead.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighborly_reference import (dedup, partition_graphs,
                                  reference_candidates, reference_enumeration)
from resonance_lab.graphs import Graph, from_blocks, is_neighborly, parse_graph
from resonance_lab.matroid import catalog, from_lines
from resonance_lab.neighborly import (_one_forced_class, _partition_walk,
                                      enumerate_neighborly, k_gamma)
from resonance_lab.rings import make_ring

F3 = make_ring("F3")
HESSIAN = catalog("hessian")

FIXTURES = ["braid-K4", "nonfano", "deletedB3",
            "pencil-3", "pencil-4", "pencil-5", "pencil-6"]


@pytest.mark.parametrize("full_support", [False, True])
@pytest.mark.parametrize("ring", ["Q", "F2", "F3"])
@pytest.mark.parametrize("name", FIXTURES)
def test_walk_matches_unpruned_reference(name, ring, full_support):
    m, R = catalog(name), make_ring(ring)
    assert (enumerate_neighborly(m, R, full_support=full_support)
            == reference_enumeration(m, R, full_support=full_support))


@pytest.mark.parametrize("name", ["pencil-3", "braid-K4"])
def test_walk_matches_unpruned_reference_mod_four(name):
    m, R = catalog(name), make_ring("Z4")
    assert enumerate_neighborly(m, R) == reference_enumeration(m, R)


@st.composite
def partial_linear_spaces(draw):
    """Simple partial linear spaces on n <= 7 points: any two lines share
    at most one point, so `from_lines` accepts them."""
    n = draw(st.integers(1, 7))
    subsets = [s for k in range(3, n + 1)
               for s in itertools.combinations(range(1, n + 1), k)]
    lines = []
    if subsets:
        for s in draw(st.lists(st.sampled_from(subsets), max_size=6)):
            if all(len(set(s) & set(L)) <= 1 for L in lines):
                lines.append(s)
    return from_lines(n, lines, f"random-{n}")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(partial_linear_spaces())
def test_walk_candidates_match_reference_on_random_spaces(m):
    ref = list(reference_candidates(m))
    assert dedup(_partition_walk(m)) == ref
    cone_free = [g for g in dedup(_partition_walk(m, cone_free=True))
                 if not g.cone_vertices]
    assert cone_free == [g for g in ref if not g.cone_vertices]


def _skipped_partitions_fail(m) -> int:
    """Every nonempty cone set C whose forced pairs join all the points off
    C into one class, with each partition of those points into two or more
    blocks (by `_partitions`) checked to fail `is_neighborly`; returns the
    number of such C."""
    verts = range(1, m.n + 1)
    skipped = 0
    for size in range(1, m.n + 1):
        for cone in itertools.combinations(verts, size):
            rest = [v for v in verts if v not in cone]
            if not _one_forced_class(rest, m.all_lines):
                continue
            skipped += 1
            # the edges in sorted pairs, so `Graph` needs no from_edges pass
            joins = frozenset((min(c, v), max(c, v))
                              for c in cone for v in verts if v != c)
            for blocks in _partitions(rest):
                if len(blocks) < 2:
                    continue
                g = Graph(m.n, joins.union(
                    e for b in blocks
                    for e in itertools.combinations(sorted(b), 2)))
                assert not is_neighborly(g, m), (cone, blocks)
    return skipped


@pytest.mark.parametrize("name", FIXTURES + ["olive-samansky"])
def test_skipped_cone_sets_have_no_neighborly_partition(name):
    # a nonempty cone set whose forced pairs join every point off it into
    # one class is skipped by the walk: no partition into two or more
    # blocks may pass clique closure
    assert _skipped_partitions_fail(catalog(name))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(partial_linear_spaces())
def test_skipped_cone_sets_have_no_neighborly_partition_on_random_spaces(m):
    _skipped_partitions_fail(m)


@pytest.mark.parametrize("name", FIXTURES + ["olive-samansky", "hessian"])
def test_walk_emits_each_graph_once(name):
    # a nonempty cone set skips its one-block partition, the complete graph
    m = catalog(name)
    for cone_free in (False, True):
        graphs = list(_partition_walk(m, cone_free=cone_free))
        assert len({g.edges for g in graphs}) == len(graphs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(partial_linear_spaces())
def test_walk_emits_each_graph_once_on_random_spaces(m):
    graphs = list(_partition_walk(m))
    assert graphs == dedup(graphs)


def test_walk_emitting_a_non_neighborly_graph_raises(monkeypatch):
    import resonance_lab.neighborly as nb
    bad = from_blocks(6, [(1, 2), (3,), (4,), (5,), (6,)])
    assert not is_neighborly(bad, catalog("braid-K4"))
    monkeypatch.setattr(nb, "_partition_walk", lambda m, cone_free: [bad])
    with pytest.raises(ValueError, match="not neighborly"):
        enumerate_neighborly(catalog("braid-K4"), F3)


@pytest.mark.parametrize("name", ["braid-K4", "pencil-4", "nonfano"])
def test_cone_free_walk_skips_cone_sets(name):
    # the empty cone set comes first, so the cone-free walk is a prefix of
    # the full one, and every graph after that prefix has a cone vertex
    m = catalog(name)
    full = list(_partition_walk(m))
    free = list(_partition_walk(m, cone_free=True))
    assert full[:len(free)] == free and len(free) < len(full)
    assert all(g.cone_vertices for g in full[len(free):])


@pytest.fixture(scope="module")
def hessian_f3():
    return enumerate_neighborly(HESSIAN, F3)


def _has_pair_f3(g: Graph) -> bool:
    return is_neighborly(g, HESSIAN) and len(k_gamma(g, HESSIAN, F3)) >= 2


def _cone_partition_graph(n, cone, blocks) -> Graph:
    edges = [e for b in blocks for e in itertools.combinations(sorted(b), 2)]
    edges += [(c, v) for c in cone for v in range(1, n + 1) if v != c]
    return Graph.from_edges(n, edges)


def test_hessian_enumeration_finishes(hessian_f3):
    assert parse_graph("123|456|789|αβγ", 12) in hessian_f3
    assert len({g.edges for g in hessian_f3}) == len(hessian_f3)
    assert all(_has_pair_f3(g) for g in hessian_f3)


def test_hessian_enumeration_random_draws(hessian_f3):
    # seeded (cone set, partition) draws, built without the walk: every
    # neighborly draw whose K holds a pair must be in the result.  Such
    # graphs are rare among the Bell(13) pairs, so the hits are nearly all
    # the complete graph; the exhaustive test below carries the weight.
    found = {g.edges for g in hessian_f3}
    rng = random.Random(20001)
    hits = 0
    for _ in range(500):
        cone = sorted(rng.sample(range(1, 13), rng.randint(0, 12)))
        rest = [v for v in range(1, 13) if v not in cone]
        k = rng.randint(1, max(1, len(rest)))
        blocks = [[] for _ in range(k)]
        for v in rest:
            blocks[rng.randrange(k)].append(v)
        g = _cone_partition_graph(12, cone, blocks)
        if _has_pair_f3(g):
            hits += 1
            assert g.edges in found
    assert hits


def test_hessian_enumeration_exhaustive_on_large_cone_sets(hessian_f3):
    # a graph with cone-vertex set V comes from the cone set V itself, so
    # the result's graphs with >= 8 cone vertices are exactly the graphs of
    # cone sets of size >= 8 that pass; those 8670 pairs are few enough to
    # build one by one
    slice_ = set()
    for size in range(8, 13):
        for cone in itertools.combinations(range(1, 13), size):
            rest = [v for v in range(1, 13) if v not in cone]
            for blocks in _partitions(rest):
                g = _cone_partition_graph(12, cone, blocks)
                if _has_pair_f3(g):
                    slice_.add(g.edges)
    assert slice_ == {g.edges for g in hessian_f3 if len(g.cone_vertices) >= 8}


def _partitions(items):
    """Set partitions by inserting each item into an earlier block or a new
    one (independent of `set_partitions`)."""
    if not items:
        yield []
        return
    head, tail = items[0], items[1:]
    for p in _partitions(tail):
        for i in range(len(p)):
            yield p[:i] + [[head] + p[i]] + p[i + 1:]
        yield [[head]] + p


def test_reference_counts_bell_numbers():
    # the reference walks Bell(n + 1) graphs
    for n, bell in [(1, 2), (2, 5), (3, 15), (4, 52)]:
        assert sum(1 for _ in partition_graphs(n)) == bell
