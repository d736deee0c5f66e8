"""The batched tail of the scans: each Z/N witness is the first generator
not parallel to lambda, and one table-driven wedge check and grouping pass
over all points must give the per-weight reference's groups, and raise
where `pair_graph` raises."""

import numpy as np
import pytest

from group_reference import group_by_graph
from resonance_lab import _kernels, oracle
from resonance_lab.matroid import catalog
from resonance_lab.osalg import (dlambda_matrix, is_resonant, wedge_is_zero,
                                 z_of)
from resonance_lab.rings import is_parallel, make_ring


def _pairs(m, ring):
    """The scan's points with their partners: the witness over Z/N, the
    first basis vector of Z(lambda) not parallel to lambda over a field."""
    rep = oracle.scan_resonance(m, ring)
    if ring.is_field:
        etas = [next(b for b in z_of(p.lam, m, ring)
                     if not is_parallel(p.lam, b, ring)) for p in rep.points]
    else:
        etas = [p.witness for p in rep.points]
    return rep, [p.lam for p in rep.points], etas


@pytest.mark.parametrize("name,spec", [
    ("braid-K4", "Z4"), ("pencil-5", "Z6"), ("nonfano", "Z4"),
    ("braid-K4", "F2"), ("deletedB3", "F3"), ("deletedB3", "F4")])
def test_groups_equal_the_per_weight_reference(name, spec):
    m, ring = catalog(name), make_ring(spec)
    rep, lams, etas = _pairs(m, ring)
    assert lams
    want = group_by_graph(list(zip(lams, etas)), m, ring)
    assert oracle._group_by_graph(lams, etas, m, ring) == want
    assert rep.groups == want


def test_no_points_no_groups():
    m = catalog("braid-K4")
    assert oracle._group_by_graph([], [], m, make_ring("Z4")) == ()


def _raised(grouping, found, m, ring):
    with pytest.raises(ValueError) as exc:
        grouping(found, m, ring)
    return str(exc.value)


def _both_raise_alike(found, m, ring):
    ref = _raised(group_by_graph, found, m, ring)
    got = _raised(lambda f, m, ring: oracle._group_by_graph(
        [lam for lam, _ in f], [eta for _, eta in f], m, ring), found, m, ring)
    assert got == ref


@pytest.mark.parametrize("spec", ["Z4", "F3"])
def test_a_partner_outside_z_raises_like_the_reference(spec):
    # (1,1,2) over Z4 and (1,1,1) over F3 have line sum 0, so they are
    # resonant; (0,1,0) is not parallel to them, and a_lambda ∧ a_eta != 0
    m, ring = catalog("pencil-3"), make_ring(spec)
    lam = (1, 1, 2) if spec == "Z4" else (1, 1, 1)
    bad = (0, 1, 0)
    assert is_resonant(lam, m, ring)
    assert not wedge_is_zero(lam, bad, m, ring)
    assert not is_parallel(lam, bad, ring)
    _, lams, etas = _pairs(m, ring)
    found = list(zip(lams, etas))
    found.insert(len(found) // 2, (lam, bad))
    _both_raise_alike(found, m, ring)


@pytest.mark.parametrize("spec", ["Z4", "F3"])
def test_a_parallel_partner_raises_like_the_reference(spec):
    # a multiple of lambda: the wedge vanishes, but every minor is zero
    m, ring = catalog("braid-K4"), make_ring(spec)
    _, lams, etas = _pairs(m, ring)
    lam = lams[len(lams) // 3]
    twice = tuple(ring.add(x, x) for x in lam)
    for par in (lam, twice):
        assert wedge_is_zero(lam, par, m, ring)
        assert is_parallel(lam, par, ring)
        found = list(zip(lams, etas))
        found[len(lams) // 3] = (lam, par)
        _both_raise_alike(found, m, ring)


@pytest.mark.parametrize("name,spec", [("braid-K4", "Z4"), ("pencil-5", "Z6")])
def test_witness_is_the_first_generator_not_parallel_to_lambda(name, spec):
    m, ring = catalog(name), make_ring(spec)
    rep = oracle.scan_resonance(m, ring)
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    lams = np.array([p.lam for p in rep.points])
    for lo in range(0, len(lams), 128):
        K, valid = _kernels._smith_kernels(
            _kernels._systems(L, ring, lams[lo:lo + 128], nc), ring)
        for p, zb, ok in zip(rep.points[lo:lo + 128], K.tolist(), valid):
            gens = [tuple(g) for g, v in zip(zb, ok) if v]
            assert p.witness == next(g for g in gens
                                     if not is_parallel(p.lam, g, ring))


def test_a_weight_whose_generators_are_all_parallel_is_named(monkeypatch):
    m, ring = catalog("braid-K4"), make_ring("Z4")
    # the sixth weight of the first chunk keeps only itself
    lam = oracle.scan_resonance(m, ring).points[5].lam
    real = _kernels._smith_kernels
    calls = []

    def parallel_only(mats, ring):
        K, valid = real(mats, ring)
        if not calls:
            assert mats[5].tolist() == [
                list(r) for r in dlambda_matrix(lam, m, ring).rows]
            lead = next(i for i, x in enumerate(lam) if x)
            K[5], valid[5] = 0, False
            K[5, lead], valid[5, lead] = lam, True
        calls.append(1)
        return K, valid

    monkeypatch.setattr(_kernels, "_smith_kernels", parallel_only)
    with pytest.raises(ValueError, match="disagrees") as exc:
        oracle.scan_resonance(m, ring)
    assert calls == [1]
    assert str(lam) in str(exc.value)
