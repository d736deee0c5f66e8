"""The row basis of the field scan kernel: `_kernels._row_basis` against
exact ranks, and the kernel on component maps whose rows it shrinks."""

import numpy as np
import pytest

import digit_map_reference as ref
from resonance_lab import _kernels, oracle
from resonance_lab.graphs import parse_graph
from resonance_lab.matroid import catalog
from resonance_lab.neighborly import CapExceeded, enumerate_neighborly, k_gamma
from resonance_lab.oracle import regulus_check
from resonance_lab.rings import Matrix, make_ring, rank_field

HESSIAN_GRAPH = "123|456|789|αβγ"


def _rank(rows, ring, width):
    return rank_field(Matrix.from_rows(ring, [tuple(map(int, r)) for r in rows],
                                       width=width))


def _redundant_matrix(rng, p, R, W):
    """R x W integers whose rows include zero rows, duplicates and
    multiples of earlier rows; entries are not reduced mod p."""
    A = rng.integers(0, 3 * p, size=(R, W))
    for i in range(1, R):
        kind = rng.integers(0, 4)
        j = int(rng.integers(0, i))
        if kind == 0:
            A[i] = 0
        elif kind == 1:
            A[i] = A[j]
        elif kind == 2:
            A[i] = A[j] * int(rng.integers(1, p + 1))
    return A


@pytest.mark.parametrize("p", [2, 3, 5])
def test_row_basis_matches_exact_rank(p):
    ring = make_ring(f"F{p}")
    rng = np.random.default_rng(p)
    shapes = [(R, W) for R, W in rng.integers(1, 12, size=(20, 2))]
    shapes += [(3, 9), (9, 3), (1, 1), (6, 6)]
    assert any(R < W for R, W in shapes) and any(R > W for R, W in shapes)
    for R, W in shapes:
        A = _redundant_matrix(rng, p, int(R), int(W))
        basis = _kernels._row_basis(A, p)
        assert basis.shape[1] == W
        assert ((0 <= basis) & (basis < p)).all()
        rank = _rank(A % p, ring, W)
        # the same rank, independent rows, and nothing of A outside the span
        assert basis.shape[0] == rank, A.tolist()
        assert _rank(basis, ring, W) == basis.shape[0]
        assert _rank(np.vstack([basis, A % p]), ring, W) == rank


def test_row_basis_of_a_matrix_that_vanishes_mod_p():
    assert _kernels._row_basis(np.zeros((4, 7), dtype=np.int64), 3).shape == (0, 7)
    assert _kernels._row_basis(np.full((2, 5), 6), 3).shape == (0, 5)


# ---------------------------------------------------------------------------
# component maps, built the way scan_component builds them

def _component_map(text, name, spec):
    m, ring = catalog(name), make_ring(spec)
    g = parse_graph(text, m.n)
    return _map_of(g, m, ring)


def _map_of(g, m, ring):
    kb = k_gamma(g, m, ring)
    K = np.asarray(kb, dtype=np.intp)
    L, nr, nc = _kernels.build_digit_map(
        lambda lam: oracle._k_rows(lam, g, m, ring, K), kb, ring, len(kb))
    return g, m, ring, kb, L, nr, nc


def _basis_rows(L, nr, nc, ring):
    p, kext, _ = _kernels.field_params(ring)
    return _kernels._row_basis(L.reshape(nr, nc * kext * L.shape[1]), p).shape[0]


def _check_candidates(g, m, ring, kb, nul, gs):
    # the rows come from the entry-by-entry reference, not the table
    # product the scanned map was built with
    gs = np.asarray(gs, dtype=np.int64)
    coeffs_of = _kernels.decode_candidates(gs, ring.cardinality, len(kb))
    for gi, coeffs in zip(gs, coeffs_of.tolist()):
        rows = ref.k_rows(ring.combine(coeffs, kb, m.n), g, m, ring, kb)
        assert int(nul[gi]) == len(kb) - _rank(rows, ring, len(kb)), coeffs


def _full_scan(kb, ring, L, nr, nc):
    total = _kernels.projective_total(ring.cardinality, len(kb))
    return _kernels.scan_nullities(L, ring, len(kb), nr, nc, 0, total)


def test_hessian_f9_component_on_a_row_basis():
    g, m, ring, kb, L, nr, nc = _component_map(HESSIAN_GRAPH, "hessian", "F9")
    assert (nr, nc) == (48, 6) and _basis_rows(L, nr, nc, ring) == 9
    nul = _full_scan(kb, ring, L, nr, nc)
    resonant = np.nonzero(nul >= 2)[0]
    assert resonant.size == 901
    rng = np.random.default_rng(9)
    sampled = rng.choice(nul.size, size=2000, replace=False)
    _check_candidates(g, m, ring, kb, nul, np.union1d(resonant, sampled))


def _collapsing_deletedb3_f3_maps():
    m, ring = catalog("deletedB3"), make_ring("F3")
    maps = [_map_of(g, m, ring)
            for g in enumerate_neighborly(m, ring, partitions_only=True)]
    return [mp for mp in maps
            if mp[5] == 29 and _basis_rows(*mp[4:], ring) <= 2]


def test_deletedb3_f3_components_that_collapse_to_one_or_two_rows():
    maps = _collapsing_deletedb3_f3_maps()
    assert len(maps) == 2
    for g, m, ring, kb, L, nr, nc in maps:
        nul = _full_scan(kb, ring, L, nr, nc)
        _check_candidates(g, m, ring, kb, nul, range(nul.size))


def test_braid_k4_component_with_only_zero_rows():
    g, m, ring, kb, L, nr, nc = _component_map("12|34|56", "braid-K4", "F3")
    assert (nr, nc) == (15, 2) and not L.any()
    nul = _full_scan(kb, ring, L, nr, nc)
    assert nul.tolist() == [nc] * nul.size
    _check_candidates(g, m, ring, kb, nul, range(nul.size))


def test_block_rank_sees_only_the_basis_rows(monkeypatch):
    # the compression is invisible to every nullity, so record what the
    # elimination receives and what it returns
    calls = []
    block_length = _kernels._block_length

    def recording(M, *tables):
        lengths = block_length(M, *tables)
        calls.append((M.shape, lengths))
        return lengths

    monkeypatch.setattr(_kernels, "_block_length", recording)
    _, _, ring, kb, L, nr, nc = _component_map(HESSIAN_GRAPH, "hessian", "F9")
    nul = _full_scan(kb, ring, L, nr, nc)
    # 9 basis rows, and a sketch of r1 = ncols - 1 + 1 = 6 of them over F9
    assert {s[1:] for s, _ in calls} == {(6, 6), (9, 6)}
    # the sketch eliminates one candidate per Frobenius orbit: by Burnside,
    # the orbits of the group {1, sigma} on P^5(F9) number
    # (|P^5(F9)| + |P^5(F3)|) / 2
    assert sum(s[0] for s, _ in calls if s[1] == 6) == 33397 == (
        _kernels.projective_total(9, len(kb))
        + _kernels.projective_total(3, len(kb))) // 2
    # each block's full-basis call follows its sketch call and takes exactly
    # the candidates the sketch did not certify (sketch nullity >= 2)
    redo = []
    for (shape, ls), (later, full) in zip(calls, calls[1:] + [((0, 0), 0)]):
        if shape[1] == 6:
            uncertified = int((nc - ls >= 2).sum())
            assert (later[1] == 9) == (uncertified > 0)
            if uncertified:
                assert later[0] == uncertified
                redo.append(nc - full)
    redo = np.concatenate(redo)
    # and every resonant orbit representative is among them: an orbit's
    # representative is its least index, found in Ring arithmetic
    resonant = np.flatnonzero(nul >= 2)
    points = [tuple(v) for v in _kernels.decode_candidates(
        resonant, 9, len(kb)).tolist()]
    index = dict(zip(points, resonant.tolist()))
    reps = [g for v, g in index.items()
            if index[ref.frobenius_image(v, ring)] >= g]
    assert int((redo >= 2).sum()) == len(reps) < redo.size
    calls.clear()
    _, _, ring, kb, L, nr, nc = _component_map("12|34|56", "braid-K4", "F3")
    _full_scan(kb, ring, L, nr, nc)
    assert calls == []


def test_regulus_check_is_capped(monkeypatch):
    monkeypatch.delenv("RESONANCE_LAB_CAP", raising=False)

    def no_sampling(*args):
        raise AssertionError("a plane was sampled before the cap check")

    with monkeypatch.context() as mp:
        mp.setattr(oracle, "span", no_sampling)
        with pytest.raises(CapExceeded):
            regulus_check(make_ring("F257"))  # 257**4 > 10**8
    monkeypatch.setenv("RESONANCE_LAB_CAP", "80")
    with pytest.raises(CapExceeded):
        regulus_check(make_ring("F3"))
    monkeypatch.setenv("RESONANCE_LAB_CAP", "81")
    assert regulus_check(make_ring("F3")).ok
