"""The scans' digit maps and carrier decode against the entry-by-entry
reference in `digit_map_reference`: identical L and nrows on every
neighborly partition graph of the decompose cases, and the component scan's
strata and carrier points identical to those of an all-of-K scan of the
reference map.

The ambient maps come from closed-form 0/±1 coefficient tensors read off
the lines and edges (`oracle._dlambda_coeffs`, `oracle._zgamma_coeffs`),
tensored mod p with the identity on the digits by
`_kernels.build_digit_map`; they must equal the reference split of the
`Ring`-arithmetic row builders `osalg.dlambda_matrix` and
`neighborly.zgamma_rows` at every unit digit."""

import numpy as np
import pytest

import digit_map_reference as ref
from resonance_lab import _kernels, oracle
from resonance_lab.graphs import Graph, parse_graph
from resonance_lab.matroid import catalog, catalog_names
from resonance_lab.neighborly import (enumerate_neighborly, k_gamma,
                                      zgamma_rows)
from resonance_lab.osalg import dlambda_matrix
from resonance_lab.rings import make_ring, prime_power_factors


def _scan_map(g, m, ring, kb):
    """The digit map of an all-of-K scan, built as `scan_component` builds
    its maps: the Z_Gamma map over the unit weights, restricted to kb."""
    L, nr, _ = _kernels.build_digit_map(oracle._zgamma_coeffs(g, m), ring)
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


def _unit_basis(n):
    return [tuple(int(j == i) for j in range(n)) for i in range(n)]


# every catalog fixture over F2-F5, F9, Z4, Z6 and Z12, plus pencil-3/F257
FIXTURES = [name for name in catalog_names() if not name.startswith("pencil")]
DLAMBDA_CASES = [("deletedB3", "F4"), ("braid-K4", "F9"), ("pencil-3", "F257"),
                 ("braid-K4", "Z4"), ("nonfano", "Z6")]
DLAMBDA_CASES += [(name, spec) for name in FIXTURES
                  for spec in ("F2", "F3", "F4", "F5", "F9", "Z4", "Z6", "Z12")
                  if (name, spec) not in DLAMBDA_CASES]


@pytest.mark.parametrize("name,spec", DLAMBDA_CASES)
def test_dlambda_maps_match_the_reference(name, spec):
    m, ring = catalog(name), make_ring(spec)
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    rL, rnr, rnc = ref.digit_map(
        lambda lam: dlambda_matrix(lam, m, ring).rows, _unit_basis(m.n), ring,
        m.n)
    assert (nr, nc) == (rnr, rnc)
    assert L.dtype == rL.dtype == np.int64 and np.array_equal(L, rL)
    assert set(np.unique(oracle._dlambda_coeffs(m))) <= {-1, 0, 1}


def _zgamma_maps_agree(g, m, ring):
    L, nr, nc = _kernels.build_digit_map(oracle._zgamma_coeffs(g, m), ring)
    rL, rnr, rnc = ref.digit_map(lambda lam: zgamma_rows(lam, g, m, ring),
                                 _unit_basis(m.n), ring, m.n)
    assert (nr, nc) == (rnr, rnc), (g, ring.spec)
    assert L.dtype == rL.dtype and np.array_equal(L, rL), (g, ring.spec)


@pytest.mark.parametrize("spec", ["F2", "F3", "F4"])
@pytest.mark.parametrize("name", ["braid-K4", "nonfano", "deletedB3",
                                  "olive-samansky", "pencil-5"])
def test_zgamma_maps_match_the_reference_on_every_partition(name, spec):
    m, ring = catalog(name), make_ring(spec)
    graphs = enumerate_neighborly(m, ring, partitions_only=True)
    assert graphs
    for g in graphs:
        _zgamma_maps_agree(g, m, ring)


@pytest.mark.parametrize("spec", ["F3", "F9"])
def test_hessian_zgamma_map_matches_the_reference(spec):
    m = catalog("hessian")
    g = parse_graph("123|456|789|αβγ", m.n)
    _zgamma_maps_agree(g, m, make_ring(spec))


def test_zgamma_map_of_a_graph_missing_a_trivial_line():
    # the all-of-K fallback: the row sums fail, and the map still agrees
    m = catalog("braid-K4")
    t = m.trivial_lines[0]
    g = Graph.from_edges(m.n, [e for e in m.trivial_lines if e != t])
    for spec in ("F3", "F4"):
        ring = make_ring(spec)
        L = _kernels.build_digit_map(oracle._zgamma_coeffs(g, m), ring)[0]
        assert not oracle._sums_hold(L, oracle._zgamma_sum_matrix(g, m), ring)
        _zgamma_maps_agree(g, m, ring)


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


def _times(c, x, ring):
    """The integer multiple c x in Ring arithmetic: |c| copies of x, negated
    when c < 0."""
    y = ring.sum([x] * abs(int(c)))
    return ring.neg(y) if c < 0 else y


def test_digit_split_of_unreduced_and_negative_entries():
    # coefficients outside [0, p) act as the integer multiples they are, so
    # the digit map equals the reference split of those multiples
    C = np.array([[[-7, 0], [3, 80]], [[-1, 0], [0, 100]]])
    basis = [(1, 0), (0, 1)]
    for spec in ("F9", "F4", "Z4", "Z6"):
        ring = make_ring(spec)
        rows = lambda lam: [[ring.sum(_times(C[r, j, i], lam[i], ring)
                                      for i in range(2)) for j in range(2)]
                            for r in range(2)]
        L, nr, nc = _kernels.build_digit_map(C, ring)
        rL, rnr, rnc = ref.digit_map(rows, basis, ring, 2)
        assert (nr, nc) == (rnr, rnc) == (2, 2) and np.array_equal(L, rL), spec


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
