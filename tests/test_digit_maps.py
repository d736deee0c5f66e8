"""The scans' digit maps and carrier decode against the entry-by-entry
reference in `digit_map_reference`: identical L and nrows on every
neighborly partition graph of the decompose cases, and the component scan's
strata and carrier points identical to those of an all-of-K scan of the
reference map."""

import numpy as np
import pytest

import digit_map_reference as ref
from resonance_lab import _kernels, oracle
from resonance_lab.graphs import parse_graph
from resonance_lab.matroid import catalog
from resonance_lab.neighborly import (enumerate_neighborly, k_gamma,
                                      zgamma_rows)
from resonance_lab.osalg import dlambda_matrix
from resonance_lab.rings import make_ring, prime_power_factors


def _scan_map(g, m, ring, kb):
    """The digit map of an all-of-K scan, built as `scan_component` builds
    its maps: the Z_Gamma map over the unit weights, restricted to kb."""
    L, nr, _ = oracle._ambient_map(lambda lam: zgamma_rows(lam, g, m, ring),
                                   m.n, ring)
    return oracle._restrict(L, kb, ring, nr), nr, len(kb)


def _check_component(g, m, ring):
    kb = k_gamma(g, m, ring)
    if not kb:
        return
    L, nr, nc = _scan_map(g, m, ring, kb)
    rL, rnr, rnc = ref.component_map(g, m, ring, kb)
    assert (nr, nc) == (rnr, rnc), g
    assert L.dtype == np.int64 and np.array_equal(L, rL), g
    # the carrier decode: every point, in candidate order, canonical
    total = _kernels.projective_total(ring.cardinality, len(kb))
    nul = _kernels.scan_nullities(rL, ring, len(kb), rnr, rnc, 0, total)
    candidates = ref.projective_points(ring.cardinality, len(kb))
    want = []
    for gi in np.flatnonzero(nul >= 2):
        coeffs = candidates[gi]
        want.append((ref.canon(ring.combine(coeffs, kb, m.n), ring),
                     int(nul[gi])))
    # the scan eliminates only K ∩ {sum = 0} when it can; its strata and
    # carrier must still be those of all of K
    cs = oracle.scan_component(g, m, ring)
    assert cs.strata == tuple((d, int(c)) for d, c in
                              enumerate(np.bincount(nul)) if c), g
    got = cs.points
    assert got == tuple(want), g
    assert all(type(x) is int for lam, d in got for x in (*lam, d))


@pytest.mark.parametrize("name,spec", [
    ("braid-K4", "F3"), ("braid-K4", "F4"), ("nonfano", "F3"),
    ("deletedB3", "F2"), ("deletedB3", "F3")])
def test_component_maps_match_the_reference_on_every_partition(name, spec):
    m, ring = catalog(name), make_ring(spec)
    graphs = list(enumerate_neighborly(m, ring, partitions_only=True))
    assert graphs
    for g in graphs:
        _check_component(g, m, ring)


def test_hessian_f9_component_map_matches_the_reference():
    m, ring = catalog("hessian"), make_ring("F9")
    g = parse_graph("123|456|789|αβγ", m.n)
    assert _scan_map(g, m, ring, k_gamma(g, m, ring))[1:] == (48, 6)
    _check_component(g, m, ring)


@pytest.mark.parametrize("name,spec", [
    ("deletedB3", "F4"), ("braid-K4", "F9"), ("pencil-3", "F257"),
    ("braid-K4", "Z4"), ("nonfano", "Z6")])
def test_dlambda_maps_match_the_reference(name, spec):
    m, ring = catalog(name), make_ring(spec)
    basis = [tuple(int(j == i) for j in range(m.n)) for i in range(m.n)]
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    rL, rnr, rnc = ref.digit_map(
        lambda lam: dlambda_matrix(lam, m, ring).rows, basis, ring, m.n)
    assert (nr, nc) == (rnr, rnc) and np.array_equal(L, rL)


@pytest.mark.parametrize("name", ["braid-K4", "pencil-5", "nonfano",
                                  "deletedB3", "hessian"])
@pytest.mark.parametrize("N", [4, 6, 12, 36])
def test_a_factor_map_is_the_zn_map_reduced(name, N):
    # a Z/N scan hands each prime-power factor Z/q its own map reduced mod q
    m = catalog(name)
    L, nr, nc = oracle._dlambda_digit_map(m, make_ring(f"Z{N}"))
    for p, k in prime_power_factors(N):
        Lq, nrq, ncq = oracle._dlambda_digit_map(m, make_ring(f"Z{p ** k}"))
        assert (nrq, ncq) == (nr, nc) and np.array_equal(Lq, L % p ** k)


def test_digit_split_of_unreduced_and_negative_entries():
    # entries outside [0, q) keep their low base-p digits, as the
    # reference's Python divmod does
    ring = make_ring("F9")
    basis = [(1, 0), (0, 1)]
    rows = lambda lam: [[lam[0] - 7, 3 * lam[1] + 80], [-lam[0], 100]]
    L, nr, nc = _kernels.build_digit_map(rows, basis, ring, 2)
    rL, rnr, rnc = ref.digit_map(rows, basis, ring, 2)
    assert (nr, nc) == (rnr, rnc) == (2, 2) and np.array_equal(L, rL)


def test_ring_product_and_canon_against_ring_arithmetic():
    rng = np.random.default_rng(5)
    for spec in ("F2", "F4", "F9", "F257", "Z8"):
        ring = make_ring(spec)
        q = ring.cardinality
        A = rng.integers(0, q, size=(7, 5))
        B = rng.integers(0, q, size=(5, 3))
        got = _kernels.ring_product(A, B, ring)
        want = [[ring.sum(ring.mul(int(A[r, i]), int(B[i, d]))
                          for i in range(5)) for d in range(3)]
                for r in range(7)]
        assert got.tolist() == want, spec
        if ring.is_field:
            P = np.vstack([A, np.zeros((1, 5), dtype=A.dtype)])
            assert [tuple(r) for r in
                    _kernels.projective_canon(P, ring).tolist()] == [
                ref.canon(tuple(map(int, r)), ring) for r in P], spec
