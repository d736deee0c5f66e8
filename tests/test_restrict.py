"""Both field scans restrict one ambient digit map to the span they scan.

`oracle._restrict` turns the digit map of a system's rows over the n unit
weights into the digit map of c -> rows(B^T c) B^T, by two integer matmuls
mod p.  It must equal, entry for entry, the map that `digit_map_reference`
builds on B itself in `Ring` arithmetic: for the rows of Z_Gamma on every
neighborly partition graph, with B = K and with B the basis of K ∩ {sum =
0} that `scan_component` scans, and for d_lambda with B = e_i - e_n, the
basis of the full scan.  A basis with an entry outside F_p is refused.
"""

import numpy as np
import pytest

import digit_map_reference as ref
from resonance_lab import oracle
from resonance_lab.matroid import catalog
from resonance_lab.neighborly import (enumerate_neighborly, k_gamma,
                                      zgamma_rows)
from resonance_lab.osalg import dlambda_matrix
from resonance_lab.rings import make_ring

CASES = [(name, spec) for name in ("braid-K4", "nonfano", "deletedB3")
         for spec in ("F2", "F3", "F4")]


@pytest.mark.parametrize("name,spec", CASES)
def test_component_restrictions_equal_the_reference(name, spec):
    m, ring = catalog(name), make_ring(spec)
    graphs = enumerate_neighborly(m, ring, partitions_only=True)
    assert graphs
    for g in graphs:
        kb = k_gamma(g, m, ring)
        if not kb:
            continue
        L, nr, _ = oracle._ambient_map(
            lambda lam: zgamma_rows(lam, g, m, ring), m.n, ring)
        K = np.asarray(kb, dtype=np.intp)
        H = oracle._scanned_basis(K, ring)
        # H spans the part of K in the hyperplane of sum zero
        assert all(ring.sum(b) == ring.zero for b in H.tolist()), g
        assert len(H) == len(K) - any(ring.sum(b) != ring.zero for b in kb)
        for B in (K, H):
            if not len(B):
                continue
            rL, rnr, rnc = ref.component_map(g, m, ring,
                                             list(map(tuple, B.tolist())))
            got = oracle._restrict(L, B, ring, nr)
            assert (nr, len(B)) == (rnr, rnc), g
            assert got.dtype == np.int64 and np.array_equal(got, rL), (g, B)


@pytest.mark.parametrize("name,spec", CASES)
def test_the_hyperplane_restriction_of_d_lambda_equals_the_reference(name,
                                                                     spec):
    m, ring = catalog(name), make_ring(spec)
    n, minus = m.n, ring.neg(ring.one)
    B = [tuple(ring.one if j == i else minus if j == n - 1 else ring.zero
               for j in range(n)) for i in range(n - 1)]
    assert oracle._scanned_basis(np.eye(n, dtype=np.intp),
                                 ring).tolist() == list(map(list, B))

    def rows(lam):
        """d_lambda B^T in Ring arithmetic."""
        return [tuple(ring.sum(ring.mul(r[j], b[j]) for j in range(n))
                      for b in B) for r in dlambda_matrix(lam, m, ring).rows]

    rL, rnr, rnc = ref.digit_map(rows, B, ring, n - 1)
    L, nr, _ = oracle._dlambda_digit_map(m, ring)
    got = oracle._restrict(L, np.asarray(B), ring, nr)
    assert (nr, n - 1) == (rnr, rnc)
    assert got.dtype == np.int64 and np.array_equal(got, rL)


@pytest.mark.parametrize("spec,bad", [("F2", [2, -1]), ("F4", [2, 3]),
                                      ("F9", [3, 8])])
def test_a_basis_off_the_prime_field_is_refused(spec, bad):
    m, ring = catalog("braid-K4"), make_ring(spec)
    L, nr, _ = oracle._dlambda_digit_map(m, ring)
    B = np.eye(m.n, dtype=np.intp)[:2]
    B[1, 3] = ring.p - 1
    oracle._restrict(L, B, ring, nr)
    for x in bad:
        B[1, 3] = x
        with pytest.raises(ValueError, match=f"F_{ring.p}"):
            oracle._restrict(L, B, ring, nr)
