"""Component kernels K and Z_Gamma, graph enumeration, generic partners."""

import itertools

import pytest

from resonance_lab import neighborly
from resonance_lab.graphs import from_blocks, parse_graph
from resonance_lab.matroid import catalog
from resonance_lab.neighborly import (component_report, decomposition_check,
                                      enumerate_neighborly, gamma_of,
                                      generic_partner, k_gamma, set_partitions,
                                      v1_contains, v1_k_contains, z_gamma,
                                      zgamma_rows)
from resonance_lab.osalg import wedge_components, wedge_is_zero, z_of
from resonance_lab.rings import Matrix, make_ring, rank_field

Q = make_ring("Q")
F2 = make_ring("F2")
F3 = make_ring("F3")
Z4 = make_ring("Z4")

BRAID = catalog("braid-K4")
BRAID_G = from_blocks(6, [(1, 2), (3, 4), (5, 6)])


def test_k_gamma_braid_characteristic_dependence():
    # char 0 and odd characteristic give a plane; char 2 picks up a third vector
    assert len(k_gamma(BRAID_G, BRAID, Q)) == 2
    assert len(k_gamma(BRAID_G, BRAID, F3)) == 2
    assert len(k_gamma(BRAID_G, BRAID, make_ring("F5"))) == 2
    assert len(k_gamma(BRAID_G, BRAID, F2)) == 3


def test_k_gamma_modn_is_predicate():
    pred = k_gamma(BRAID_G, BRAID, Z4)
    assert pred.contains((1, 1, 0, 0, 3, 3))
    assert pred.contains((2, 2, 0, 0, 0, 0))  # 2s sum to a zero divisor times 2
    assert not pred.contains((1, 0, 0, 0, 0, 0))


def test_modn_z_gamma_computes_one_module(monkeypatch):
    # K over Z/N is a predicate: z_gamma eliminates its own system only
    calls = []
    real = neighborly.kernel_modn

    def counted(M):
        calls.append(M.nrows)
        return real(M)

    monkeypatch.setattr(neighborly, "kernel_modn", counted)
    lam = (1, 1, 0, 0, 3, 3)
    sol = z_gamma(lam, BRAID_G, BRAID, Z4)
    assert len(calls) == 1
    assert calls[0] == len(zgamma_rows(lam, BRAID_G, BRAID, Z4))
    assert sol.contains(lam)
    # the report still carries the module where every line sum is zero
    rep = component_report(BRAID_G, BRAID, Z4)
    assert rep.zero_module
    for v in rep.zero_module:
        for X in BRAID_G.x_gamma(BRAID):
            assert sum(v[i - 1] for i in X) % 4 == 0


def test_z_gamma_subset_of_z():
    m = catalog("nonfano")
    g = parse_graph("127|3|4|5|6", 7)
    lam = (0, 0, 1, 1, 1, 1, 0)
    zg = z_gamma(lam, g, m, F2)
    full = z_of(lam, m, F2)
    for v in zg:
        assert any(wedge_is_zero(lam, v, m, F2) for _ in (0,))
    assert len(zg) <= len(full)


def test_z_gamma_requires_membership():
    with pytest.raises(ValueError):
        z_gamma((1, 0, 0, 0, 0, 0), BRAID_G, BRAID, Q)


def test_v1_contains_matches_dimension():
    assert v1_contains((1, 1, 0, 0, -1, -1), BRAID_G, BRAID, Q)
    assert not v1_contains((0, 0, 0, 0, 0, 0), BRAID_G, BRAID, Q)
    assert v1_k_contains((0, 0, 1, 1, 1, 1, 0),
                         parse_graph("127|3|4|5|6", 7),
                         catalog("nonfano"), F2, k=2)


def test_set_partitions_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        assert sum(1 for _ in set_partitions(list(range(1, n + 1)))) == bell


def test_enumerate_neighborly_braid_rational():
    graphs = enumerate_neighborly(BRAID, Q)
    reprs = {repr(g) for g in graphs}
    assert "Graph(12|34|56)" in reprs
    # local components: one graph per nontrivial line, recognizable by its
    # set of non-clique lines being exactly that line
    locals_seen = {g.x_gamma(BRAID) for g in graphs if len(g.x_gamma(BRAID)) == 1}
    assert locals_seen == {(L,) for L in BRAID.lines}


def test_enumerate_neighborly_db3_no_full_support_partition():
    db3 = catalog("deletedB3")
    graphs = enumerate_neighborly(db3, Q, partitions_only=True,
                                  full_support=True)
    assert not graphs


def test_v1_contains_z4_edge_graph():
    # the full-support Z4 pair lives in the component of its own pair graph
    db3 = catalog("deletedB3")
    from resonance_lab.graphs import Graph
    g = Graph.from_edges(8, [(1, 5), (2, 7), (3, 7), (4, 5), (5, 7), (6, 8)])
    assert v1_contains((1, 1, 1, 1, 2, 2, 2, 2), g, db3, Z4)


def test_enumerate_graphs_mode_small():
    pen = catalog("pencil-3")
    graphs = enumerate_neighborly(pen, F3, partitions_only=False)
    # every graph on three points is neighborly for the pencil; only those
    # whose K holds a non-parallel pair survive
    assert any(not g.edges for g in graphs)
    assert all(len(k_gamma(g, pen, F3)) >= 2 for g in graphs)


def test_generic_partner_nonfano():
    m = catalog("nonfano")
    lam = (0, 0, 1, 1, 1, 1, 0)
    ext = make_ring("F32")
    eta = generic_partner(lam, m, ext)
    g = gamma_of(lam, m, ext)
    assert g.blocks == ((1, 2, 7), (3,), (4,), (5,), (6,))
    assert not all(x == ext.zero for x in eta)


def test_generic_partner_unit_vector_is_its_own():
    # dim Z = 1 leaves no minor functional active, so the sweep finds a
    # multiple of the weight itself and the graph collapses to one block
    eta = generic_partner((1, 0, 0, 0, 0, 0), BRAID, make_ring("F4"))
    assert eta[0] != 0 and all(x == 0 for x in eta[1:])
    g = gamma_of((1, 0, 0, 0, 0, 0), BRAID, make_ring("F4"))
    assert g.blocks == ((1, 2, 3, 4, 5, 6),)


def test_generic_partner_small_field_reports_size_bound():
    # over F2 the nonfano weight has no partner; the error names the
    # field size past which one always exists
    m = catalog("nonfano")
    with pytest.raises(ValueError) as err:
        generic_partner((0, 0, 1, 1, 1, 1, 0), m, make_ring("F2"))
    assert "27" in str(err.value)


def test_component_report_olive_samansky():
    osam = catalog("olive-samansky")
    g = parse_graph("1234|5678|9α", 10)
    rep = component_report(g, osam, F2)
    assert rep.dim_k == 4
    assert rep.sample_pairs
    for lam, eta in rep.sample_pairs:
        assert v1_contains(lam, g, osam, F2)
        sol = z_gamma(lam, g, osam, F2)
        assert rank_field(Matrix.from_rows(F2, list(sol) + [eta])) == len(sol)
        assert wedge_is_zero(lam, eta, osam, F2)


def test_wedge_vanishes_linewise_but_not_fully():
    # char-2 speciality: a pair whose product vanishes on every nontrivial
    # line yet survives on two-point lines, so it is not a resonant pair
    osam = catalog("olive-samansky")
    lam = (1, 1, 0, 0, 1, 1, 0, 0, 1, 1)
    eta = (1, 1, 1, 1, 1, 1, 1, 1, 0, 0)
    comps = wedge_components(lam, eta, osam, F2)
    assert all(all(c == F2.zero for c in vec)
               for tag, vec in comps if len(tag) >= 3)
    assert any(any(c != F2.zero for c in vec)
               for tag, vec in comps if len(tag) == 2)
    assert not wedge_is_zero(lam, eta, osam, F2)


def test_decomposition_braid_f3():
    rep = decomposition_check(BRAID, F3)
    assert rep.equal
    assert rep.nesting_ok
    assert rep.scan_count == rep.union_count == 20


def test_decomposition_nonfano_f2():
    rep = decomposition_check(catalog("nonfano"), F2)
    assert rep.equal
    assert rep.scan_count == 25


def test_zgamma_rows_include_incidence_over_fields():
    rows = zgamma_rows((1, 1, 0, 0, -1, -1), BRAID_G, BRAID, Q)
    # last rows are the line-sum constraints for the non-clique lines
    assert len(rows) > len(BRAID_G.x_gamma(BRAID))
