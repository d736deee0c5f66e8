"""The field scan kernel on component maps whose digit rows vanish or
repeat one another: every nullity against exact ranks, the rows the
elimination receives, and redundant rows stacked onto a digit map."""

import numpy as np
import pytest

import digit_map_reference as ref
from resonance_lab import _kernels, oracle
from resonance_lab.graphs import parse_graph
from resonance_lab.matroid import catalog
from resonance_lab.neighborly import (enumerate_neighborly, k_gamma,
                                      zgamma_rows)
from resonance_lab.rings import Matrix, PrimeField, make_ring, rank_field

HESSIAN_GRAPH = "123|456|789|αβγ"


def _rank(rows, ring, width):
    return rank_field(Matrix.from_rows(ring, [tuple(map(int, r)) for r in rows],
                                       width=width))


# ---------------------------------------------------------------------------
# component maps, built the way scan_component builds them

def _component_map(text, name, spec):
    m, ring = catalog(name), make_ring(spec)
    g = parse_graph(text, m.n)
    return _map_of(g, m, ring)


def _map_of(g, m, ring):
    kb = k_gamma(g, m, ring)
    L, nr, _ = oracle._ambient_map(lambda lam: zgamma_rows(lam, g, m, ring),
                                   m.n, ring)
    return g, m, ring, kb, oracle._restrict(L, kb, ring, nr), nr, len(kb)


def _digit_rank(L, nr, ring):
    """The F_p rank of the digit rows (each row's block of L as one
    vector), in Ring arithmetic over the prime field."""
    rows = L.reshape(nr, -1)
    return _rank(rows, PrimeField(_kernels.field_params(ring)[0]),
                 rows.shape[1])


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


def test_hessian_f9_component_nullities_match_exact_ranks():
    g, m, ring, kb, L, nr, nc = _component_map(HESSIAN_GRAPH, "hessian", "F9")
    assert (nr, nc) == (48, 6) and _digit_rank(L, nr, ring) == 9
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
            if mp[5] == 29 and _digit_rank(mp[4], mp[5], ring) <= 2]


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


def test_elimination_takes_the_sketch_then_the_nonzero_rows(monkeypatch):
    # dropping the zero rows and sketching is invisible to every nullity,
    # so record what the elimination receives and what it returns
    calls = []
    block_length = _kernels._block_length

    def recording(M, *tables):
        lengths = block_length(M, *tables)
        calls.append((M.shape, lengths))
        return lengths

    monkeypatch.setattr(_kernels, "_block_length", recording)
    _, _, ring, kb, L, nr, nc = _component_map(HESSIAN_GRAPH, "hessian", "F9")
    nul = _full_scan(kb, ring, L, nr, nc)
    # 12 of the 48 digit rows are nonzero (of F_p rank 9), and a sketch of
    # r1 = ncols - 1 + 1 = 6 rows over F9 combines them
    assert {s[1:] for s, _ in calls} == {(6, 6), (12, 6)}
    # the sketch eliminates one candidate per Frobenius orbit: by Burnside,
    # the orbits of the group {1, sigma} on P^5(F9) number
    # (|P^5(F9)| + |P^5(F3)|) / 2
    assert sum(s[0] for s, _ in calls if s[1] == 6) == 33397 == (
        _kernels.projective_total(9, len(kb))
        + _kernels.projective_total(3, len(kb))) // 2
    # each block's full-row call follows its sketch call and takes exactly
    # the candidates the sketch did not certify (sketch nullity >= 2)
    redo = []
    for (shape, ls), (later, full) in zip(calls, calls[1:] + [((0, 0), 0)]):
        if shape[1] == 6:
            uncertified = int((nc - ls >= 2).sum())
            assert (later[1] == 12) == (uncertified > 0)
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


def _with_redundant_rows(L, nr, ring, rng):
    """L with its rows followed by a permuted copy of them, an F_p
    combination of two nonzero ones and three zero rows, as (L', nrows')."""
    p = _kernels.field_params(ring)[0]
    rows = L.reshape(nr, -1)
    i, j = rng.choice(np.flatnonzero(rows.any(1)), size=2, replace=False)
    a, b = rng.integers(1, p, size=2)
    extra = [rows[rng.permutation(nr)], [(a * rows[i] + b * rows[j]) % p],
             np.zeros((3, rows.shape[1]), dtype=rows.dtype)]
    stacked = np.vstack([rows] + extra)
    return stacked.reshape(-1, L.shape[1]), stacked.shape[0]


@pytest.mark.parametrize("name,spec", [("deletedB3", "F3"), ("braid-K4", "F4"),
                                       ("hessian", "F9")])
def test_redundant_rows_change_no_nullity(name, spec):
    # d_lambda of deletedB3 and braid-K4, and the Hessian component map:
    # the sketch argument needs only rows that span the system, so rows
    # that repeat, combine or vanish change how much is eliminated and
    # nothing else
    if name == "hessian":
        _, _, ring, kb, L, nr, nc = _component_map(HESSIAN_GRAPH, name, spec)
        dim = len(kb)
    else:
        m, ring = catalog(name), make_ring(spec)
        L, nr, nc = oracle._dlambda_digit_map(m, ring)
        dim = m.n
    total = _kernels.projective_total(ring.cardinality, dim)
    nul = _kernels.scan_nullities(L, ring, dim, nr, nc, 0, total)
    L2, nr2 = _with_redundant_rows(L, nr, ring, np.random.default_rng(nr))
    assert nr2 == 2 * nr + 4
    again = _kernels.scan_nullities(L2, ring, dim, nr2, nc, 0, total)
    assert np.array_equal(again, nul)
    assert (nul >= 2).any()
