"""The field scan eliminates one candidate per Frobenius orbit.

Over F_q = F_{p^k}, `_kernels.scan_nullities` eliminates only the candidate
of least index (at or after the window's start) in each orbit of
sigma(x) = x^p and copies its nullity to the rest of the orbit.  These tests
check the premise (the digit map commutes with sigma, which needs K_Gamma
over F_p) and that windows and splits cutting through orbits glue to the
full scan.
"""

import numpy as np
import pytest

import digit_map_reference as ref
from resonance_lab import _kernels, oracle
from resonance_lab.graphs import parse_graph
from resonance_lab.matroid import catalog
from resonance_lab.neighborly import enumerate_neighborly, k_gamma
from resonance_lab.rings import make_ring

HESSIAN_GRAPH = "123|456|789|αβγ"


def _scan(L, ring, dim, nr, nc, windows):
    return np.concatenate([_kernels.scan_nullities(L, ring, dim, nr, nc, lo, hi)
                           for lo, hi in windows])


def _orbit_starts(ring, dim, total):
    """Candidates whose sigma-image has a smaller index: a window starting
    at one of them starts inside an orbit.  Found in Ring arithmetic."""
    points = _kernels.decode_candidates(np.arange(total, dtype=np.int64),
                                        ring.cardinality, dim).tolist()
    index = {tuple(v): g for g, v in enumerate(points)}
    return [g for g, v in enumerate(points)
            if index[ref.frobenius_image(v, ring)] < g]


@pytest.mark.parametrize("name,spec", [
    ("deletedB3", "F4"), ("braid-K4", "F8"), ("braid-K4", "F9")])
def test_windows_starting_inside_an_orbit_glue(name, spec):
    m, ring = catalog(name), make_ring(spec)
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    total = _kernels.projective_total(ring.cardinality, m.n)
    full = _kernels.scan_nullities(L, ring, m.n, nr, nc, 0, total)
    starts = _orbit_starts(ring, m.n, total)
    # cuts inside orbits: near the front, past the first block, mid-range
    cuts = sorted({starts[0], starts[1],
                   next(g for g in starts if g > _kernels._BLOCK + 7),
                   starts[len(starts) // 2]})
    bounds = [0] + cuts + [total]
    windows = list(zip(bounds, bounds[1:]))
    assert np.array_equal(_scan(L, ring, m.n, nr, nc, windows), full)
    # a one-candidate window that starts past its orbit's least index
    g = cuts[-1]
    one = _kernels.scan_nullities(L, ring, m.n, nr, nc, g, g + 1)
    assert one.tolist() == [full[g]]
    # equal cuts into 3, 4 and 5 windows
    for parts in (3, 4, 5):
        bounds = np.linspace(0, total, parts + 1).astype(int).tolist()
        windows = list(zip(bounds, bounds[1:]))
        assert np.array_equal(_scan(L, ring, m.n, nr, nc, windows), full)


def _hessian_component_map(scale):
    m, ring = catalog("hessian"), make_ring("F9")
    g = parse_graph(HESSIAN_GRAPH, m.n)
    kb = [tuple(ring.mul(scale, x) for x in b) for b in k_gamma(g, m, ring)]
    # `oracle._restrict` refuses a basis off F_p, so the map is built from
    # the reference projection onto the scaled basis
    L, nr, nc = _kernels.build_digit_map(
        lambda lam: ref.k_rows(lam, g, m, ring, kb), kb, ring, len(kb))
    return ring, len(kb), L, nr, nc


def test_component_map_off_the_prime_field_raises():
    ring = make_ring("F9")
    f3 = {0, 1, 2}  # the encodings of F3 inside F9
    # the map's entries are u^2 times F3-linear ones: u^2 outside F3 breaks
    # the Frobenius premise, u^2 inside it keeps it
    bad = next(u for u in range(1, 9) if ring.mul(u, u) not in f3)
    ring, dim, L, nr, nc = _hessian_component_map(bad)
    with pytest.raises(ValueError, match="Frobenius"):
        _kernels.scan_nullities(L, ring, dim, nr, nc, 0, 10)
    good = next(u for u in range(3, 9) if ring.mul(u, u) in f3)
    ring, dim, L, nr, nc = _hessian_component_map(good)
    total = _kernels.projective_total(9, dim)
    _, _, L1, _, _ = _hessian_component_map(1)
    assert np.array_equal(
        _kernels.scan_nullities(L, ring, dim, nr, nc, 0, total),
        _kernels.scan_nullities(L1, ring, dim, nr, nc, 0, total))


@pytest.mark.parametrize("name,spec", [
    ("braid-K4", "F4"), ("nonfano", "F4"), ("deletedB3", "F4"),
    ("braid-K4", "F8"), ("braid-K4", "F9")])
def test_k_gamma_lies_over_the_prime_field(name, spec):
    m, ring = catalog(name), make_ring(spec)
    graphs = enumerate_neighborly(m, ring, partitions_only=True)
    assert graphs
    for g in graphs:
        assert all(x < ring.p for b in k_gamma(g, m, ring) for x in b), g
