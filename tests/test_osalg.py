"""Degree-one kernels Z(lambda), resonant pairs, and pair graphs."""

import pytest

from resonance_lab.matroid import catalog
from resonance_lab.osalg import (dlambda_matrix, is_resonant,
                                 is_resonant_pair, pair_graph,
                                 rank2_partner, wedge_is_zero, z_of)
from resonance_lab.rings import howell_contains, howell_form, make_ring

Z4 = make_ring("Z4")
Z6 = make_ring("Z6")
F2 = make_ring("F2")
Q = make_ring("Q")

DB3 = catalog("deletedB3")
LAM_Z4 = (1, 1, 1, 1, 2, 2, 2, 2)
ETA_Z4 = (2, 3, 1, 0, 0, 1, 2, 3)


def test_dlambda_shape():
    m = catalog("braid-K4")
    M = dlambda_matrix((1, 1, 0, 0, -1, -1), m, Q)
    assert (M.nrows, M.ncols) == (m.second_whitney(), 6)


def test_dlambda_rows_kill_lambda():
    # a_lam wedge a_lam = 0, so lambda itself always lies in the kernel
    for spec, lam, name in [("Q", (1, 1, 0, 0, -1, -1), "braid-K4"),
                            ("F2", (0, 0, 1, 1, 1, 1, 0), "nonfano"),
                            ("Z4", LAM_Z4, "deletedB3")]:
        ring = make_ring(spec)
        m = catalog(name)
        M = dlambda_matrix(ring.coerce_vector(lam), m, ring)
        for row in M.rows:
            s = ring.sum(ring.mul(a, b) for a, b in zip(row, ring.coerce_vector(lam)))
            assert s == ring.zero


def test_z_of_braid_rational():
    m = catalog("braid-K4")
    lam = Q.coerce_vector((1, 1, 0, 0, -1, -1))
    basis = z_of(lam, m, Q)
    assert len(basis) == 2
    eta = Q.coerce_vector((0, 0, 1, 1, -1, -1))
    assert wedge_is_zero(lam, eta, m, Q)


def test_z_of_nonfano_deep_point():
    m = catalog("nonfano")
    assert len(z_of((0, 0, 1, 1, 1, 1, 0), m, F2)) == 3


def test_z_of_modn_contains_pair():
    gens = z_of(LAM_Z4, DB3, Z4)
    want = howell_form([LAM_Z4, ETA_Z4], 4)
    assert gens == want
    assert howell_contains(gens, ETA_Z4, 4)


def test_resonant_pair_z4_full_support():
    assert is_resonant_pair(LAM_Z4, ETA_Z4, DB3, Z4)
    assert all(a or b for a, b in zip(LAM_Z4, ETA_Z4))  # full support
    assert is_resonant(LAM_Z4, DB3, Z4)


def test_resonant_pair_despite_dependence():
    # eta' = lam + 2*eta is not parallel to lam even though 2lam + 2eta' = 0
    eta2 = tuple(Z4.add(a, Z4.mul(2, b)) for a, b in zip(LAM_Z4, ETA_Z4))
    assert eta2 == (1, 3, 3, 1, 2, 0, 2, 0)
    assert is_resonant_pair(LAM_Z4, eta2, DB3, Z4)


def test_pair_graph_z4_edges():
    g = pair_graph(LAM_Z4, ETA_Z4, DB3, Z4)
    assert sorted(g.edges) == [(1, 5), (2, 7), (3, 7), (4, 5), (5, 7), (6, 8)]
    assert all(len(b) == 2 for b in g.blocks)


def test_pair_graph_z4_partner_blocks():
    eta2 = (1, 3, 3, 1, 2, 0, 2, 0)
    g = pair_graph(LAM_Z4, eta2, DB3, Z4)
    assert g.blocks == ((1, 4, 5, 7), (2, 3, 5, 7), (5, 6, 7, 8))
    assert 5 in g.cone_vertices and 7 in g.cone_vertices


def test_pair_graph_rejects_non_resonant():
    m = catalog("braid-K4")
    with pytest.raises(ValueError):
        pair_graph((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), m, Q)


def test_rank2_z6_sum_nonzero():
    m = catalog("pencil-3")
    lam, eta = (5, 3, 1), (5, 1, 3)
    assert is_resonant_pair(lam, eta, m, Z6)
    assert Z6.sum(lam) == 3  # coefficient sum need not vanish here


def test_rank2_partner_over_domain():
    m = catalog("pencil-4")
    lam = Q.coerce_vector((1, 1, -1, -1))
    eta = rank2_partner(lam, m, Q)
    assert eta is not None
    assert is_resonant_pair(lam, eta, m, Q)


def test_wedge_vanishing_is_symmetric():
    m = catalog("nonfano")
    lam = (0, 0, 1, 1, 1, 1, 0)
    eta = (1, 1, 0, 0, 1, 1, 0)
    assert wedge_is_zero(lam, eta, m, F2) == wedge_is_zero(eta, lam, m, F2)


def test_not_resonant_zero_and_units():
    m = catalog("braid-K4")
    assert not is_resonant((0,) * 6, m, Q)
    assert not is_resonant((1, 0, 0, 0, 0, 0), m, Q)
