"""Graphs, maximal-clique blocks, and the neighborly predicate."""

import itertools
import random

import pytest

from resonance_lab.graphs import Graph, from_blocks, is_neighborly, parse_graph
from resonance_lab.matroid import catalog


def test_blocks_of_partition_graph():
    g = from_blocks(6, [(1, 2), (3, 4), (5, 6)])
    assert g.blocks == ((1, 2), (3, 4), (5, 6))
    assert g.cone_vertices == ()
    assert repr(g) == "Graph(12|34|56)"


def test_blocks_overlapping_cliques():
    # the Z4 deleted-B3 partner graph: three overlapping complete graphs
    g = from_blocks(8, [(1, 4, 5, 7), (2, 3, 5, 7), (5, 6, 7, 8)])
    assert g.blocks == ((1, 4, 5, 7), (2, 3, 5, 7), (5, 6, 7, 8))
    assert g.has_edge(5, 7)
    assert not g.has_edge(1, 2)


def test_edge_graph_blocks_all_size_two():
    edges = [(1, 5), (2, 7), (3, 7), (4, 5), (5, 7), (6, 8)]
    g = Graph.from_edges(8, edges)
    assert g.blocks == tuple(sorted(tuple(e) for e in edges))
    in_three = [v for v in range(1, 9)
                if sum(v in b for b in g.blocks) == 3]
    assert in_three == [5, 7]


def test_parse_graph_singletons():
    g = parse_graph("127|3|4|5|6", 7)
    assert g.blocks[0] == (1, 2, 7)
    assert all(len(b) == 1 for b in g.blocks[1:])
    assert g.cone_vertices == ()


def test_cone_vertices():
    g = from_blocks(4, [(1, 2, 3), (1, 2, 4)])
    assert g.cone_vertices == (1, 2)


def test_neighborly_clique_closure_mode():
    m = catalog("deletedB3")
    g = Graph.from_edges(8, [(1, 5), (2, 7), (3, 7), (4, 5), (5, 7), (6, 8)])
    assert is_neighborly(g, m)  # default clique-closure reading
    assert not is_neighborly(g, m, mode="strict-block")


def test_neighborly_partition_graph():
    braid = catalog("braid-K4")
    assert is_neighborly(from_blocks(6, [(1, 2), (3, 4), (5, 6)]), braid)
    # 135 is not neighborly: line 136 has two points in the block {1,3,5}
    assert not is_neighborly(from_blocks(6, [(1, 3, 5), (2,), (4,), (6,)]), braid)


def test_neighborly_mode_validation():
    braid = catalog("braid-K4")
    g = from_blocks(6, [(1, 2), (3, 4), (5, 6)])
    with pytest.raises(ValueError):
        is_neighborly(g, braid, mode="nonsense")


def test_x_gamma_nontrivial_noncliques():
    m = catalog("nonfano")
    g = parse_graph("127|3|4|5|6", 7)
    assert g.x_gamma(m) == ((1, 3, 6), (1, 4, 5), (2, 3, 5), (2, 4, 6),
                            (3, 4, 7), (5, 6, 7))
    # a local graph: everything but the line 136 is joined
    loc = Graph.from_edges(7, [(i, j) for i in range(1, 8)
                               for j in range(i + 1, 8)
                               if len({i, j} & {1, 3, 6}) <= 1])
    assert loc.x_gamma(m) == ((1, 3, 6),)


def test_adjacency_map_matches_an_edge_scan():
    # neighbors, blocks and cone vertices read one adjacency map; each must
    # equal what a scan of the edge set gives, a vertex off 1..n included
    rng = random.Random(7)
    for n in range(1, 9):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for _ in range(20):
            g = Graph.from_edges(n, [e for e in pairs if rng.random() < 0.6])
            for v in range(0, n + 2):
                assert g.neighbors(v) == frozenset(
                    w for e in g.edges if v in e for w in e if w != v), (g, v)
            assert g.cone_vertices == tuple(
                v for v in range(1, n + 1)
                if sum(v in e for e in g.edges) == n - 1), g
            # every block is a maximal clique, and every edge lies in one
            for b in g.blocks:
                assert g.is_clique(b) and not any(
                    g.is_clique(b + (v,)) for v in range(1, n + 1)
                    if v not in b), (g, b)
            assert all(any(set(e) <= set(b) for b in g.blocks)
                       for e in g.edges), g
