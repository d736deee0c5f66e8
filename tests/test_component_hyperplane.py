"""Component scans eliminate only K ∩ H, H = {sum(lambda) = 0}, when every
trivial line is an edge of the graph.

Summed over the lines through a point k, the rows of Z_Gamma(lambda) give
s(lambda) eta_k - lambda_k s(eta), s the coordinate sum, as long as no pair
{j, k} is left without a row: a weight of K off H then has dim Z_Gamma = 1,
and Z_Gamma(lambda) lies in H for lambda in H.  The identity is checked on
every neighborly partition graph of the catalog fixtures and against the
premise on random graphs, the lemma on the exact path (`z_gamma`), and the
scan must fall back to all of K when a trivial line is not an edge.
"""

import itertools
import random

import pytest

from resonance_lab import _kernels, oracle
from resonance_lab.graphs import Graph, parse_graph
from resonance_lab.matroid import catalog, from_lines
from resonance_lab.neighborly import (_partition_walk, enumerate_neighborly,
                                      k_gamma, z_gamma, zgamma_rows)
from resonance_lab.rings import make_ring

HESSIAN_GRAPH = "123|456|789|αβγ"


def _scanned_dims(monkeypatch):
    """The candidate dimension of every `scan_nullities` call."""
    dims = []
    real = _kernels.scan_nullities

    def counted(L, ring, dim, *args):
        dims.append(dim)
        return real(L, ring, dim, *args)

    monkeypatch.setattr(_kernels, "scan_nullities", counted)
    return dims


def _zgamma_sums_hold(g, m, ring):
    """The row-sum check of `scan_component`: T_Gamma against the digit map
    of Z_Gamma over the unit weights."""
    L = oracle._ambient_map(lambda lam: zgamma_rows(lam, g, m, ring), m.n,
                            ring)[0]
    return oracle._sums_hold(L, oracle._zgamma_sum_matrix(g, m), ring)


def _k_weights(kb, ring, n):
    """Every projective weight of the span of kb, as ambient tuples."""
    q = ring.cardinality
    for lead in range(len(kb)):
        for rest in itertools.product(range(q), repeat=len(kb) - lead - 1):
            yield ring.combine((0,) * lead + (1,) + rest, kb, n)


@pytest.mark.parametrize("name", ["braid-K4", "nonfano", "deletedB3",
                                  "olive-samansky", "hessian"])
def test_every_neighborly_partition_graph_passes_the_row_sum_identity(name):
    m = catalog(name)
    graphs = {g.edges: g for g in _partition_walk(m)}.values()
    assert graphs
    for g in graphs:
        # clique closure makes every trivial line an edge
        assert set(m.trivial_lines) <= g.edges, g
        for spec in ("F2", "F3"):
            assert _zgamma_sums_hold(g, m, make_ring(spec)), (g, spec)


@pytest.mark.parametrize("name", ["braid-K4", "nonfano", "pencil-4"])
def test_the_identity_holds_exactly_when_every_trivial_line_is_an_edge(name):
    m = catalog(name)
    pairs = list(itertools.combinations(range(1, m.n + 1), 2))
    rng = random.Random(name)
    held = set()
    for _ in range(60):
        edges = [e for e in pairs if rng.random() < 0.5]
        if rng.random() < 0.5:
            edges += m.trivial_lines
        g = Graph.from_edges(m.n, edges)
        want = set(m.trivial_lines) <= g.edges
        held.add(want)
        for spec in ("F2", "F3", "F5"):
            assert _zgamma_sums_hold(g, m, make_ring(spec)) == want, (g, spec)
    assert held == {True, False} or not m.trivial_lines


@pytest.mark.parametrize("name,spec", [("braid-K4", "F3"), ("braid-K4", "F4"),
                                       ("nonfano", "F2"), ("nonfano", "F3"),
                                       ("deletedB3", "F2")])
def test_the_lemma_on_every_k_weight_of_every_component(name, spec):
    # on the exact path alone: off H only the weight's own line, on H
    # partners in H
    m, ring = catalog(name), make_ring(spec)
    off = 0
    for g in enumerate_neighborly(m, ring, partitions_only=True):
        for lam in _k_weights(k_gamma(g, m, ring), ring, m.n):
            sol = z_gamma(lam, g, m, ring)
            if ring.sum(lam) != ring.zero:
                off += 1
                assert len(sol) == 1, (g, lam)
            else:
                assert all(ring.sum(eta) == ring.zero for eta in sol), (g, lam)
    assert off


def test_hessian_f9_weights_off_the_hyperplane_have_dim_one(monkeypatch):
    m, ring = catalog("hessian"), make_ring("F9")
    g = parse_graph(HESSIAN_GRAPH, m.n)
    kb = k_gamma(g, m, ring)
    dims = _scanned_dims(monkeypatch)
    cs = oracle.scan_component(g, m, ring)
    # K leaves H in characteristic 3; the scan eliminates K ∩ H alone
    assert dims == [len(kb) - 1] == [5]
    assert cs.universe == 66430 and dict(cs.strata)[1] == 65529
    assert 66430 - _kernels.projective_total(9, 5) == 59049
    rng = random.Random(9)
    sampled = 0
    while sampled < 12:
        coeffs = [rng.randrange(9) for _ in kb]
        lam = ring.combine(coeffs, kb, m.n)
        if ring.sum(lam) == ring.zero:
            continue
        sampled += 1
        assert len(z_gamma(lam, g, m, ring)) == 1, lam


def test_a_trivial_line_off_the_graph_scans_all_of_k(monkeypatch):
    # free4 with the discrete graph: K = F3^4 leaves H, but no pair has a
    # row, every weight has dim Z_Gamma = 4, and the scan must see them all
    m, ring = from_lines(4, [], "free4"), make_ring("F3")
    g = parse_graph("1|2|3|4", 4)
    assert not _zgamma_sums_hold(g, m, ring)
    dims = _scanned_dims(monkeypatch)
    cs = oracle.scan_component(g, m, ring)
    assert dims == [4] and cs.strata == ((4, 40),)
    # a line and a free point with the discrete graph: e_4 is off H, no
    # row of Z_Gamma(e_4) is nonzero, and its dim Z_Gamma is all of dim K
    m = from_lines(4, [(1, 2, 3)], "line+point")
    g = parse_graph("1|2|3|4", 4)
    kb = k_gamma(g, m, ring)
    assert not _zgamma_sums_hold(g, m, ring)
    dims.clear()
    cs = oracle.scan_component(g, m, ring)
    assert dims == [len(kb)] == [3]
    assert dict(cs.points)[(0, 0, 0, 1)] == 3
    want = []
    for lam in _k_weights(kb, ring, m.n):
        d = len(z_gamma(lam, g, m, ring))
        if d >= 2:
            lead = next(x for x in lam if x)
            want.append((tuple(ring.mul(ring.inv(lead), x) for x in lam), d))
    assert cs.points == tuple(want)


def test_a_component_of_one_weight_off_the_hyperplane(monkeypatch):
    # dim K = 1 with s(K_1) != 0: nothing to eliminate, one weight of dim 1
    m, ring = catalog("nonfano"), make_ring("F3")
    g = parse_graph("127|3|4|5|6", m.n)
    kb = k_gamma(g, m, ring)
    assert len(kb) == 1 and ring.sum(kb[0]) != ring.zero
    dims = _scanned_dims(monkeypatch)
    cs = oracle.scan_component(g, m, ring)
    assert dims == [] and cs.strata == ((1, 1),) and cs.points == ()
    assert len(z_gamma(kb[0], g, m, ring)) == 1
