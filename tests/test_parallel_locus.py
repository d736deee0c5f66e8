"""The Z/p^k resonance mask against element counts and the stacked system.

Over Z/p^k a weight lambda is resonant iff Z(lambda) is larger than its
parallel locus P(lambda).  The scan takes |P(lambda)| from a closed form,
p^(kn - (n-1)(k - v)) with v the least valuation of lambda's coordinates;
these tests count P(lambda) and Z(lambda) element by element instead, and
rebuild the system the scan used before the closed form: d_lambda stacked
on all 2x2 minors rows, eliminated by the same kernel.  The scan also
eliminates only the tuples whose coordinate sum is not a unit (a unit sum
gives Z(lambda) = R lambda); the mask must equal the elimination of every
tuple, and a digit map that breaks the row sums behind that lemma must be
refused.
"""

import itertools

import numpy as np
import pytest

import digit_map_reference as ref
from resonance_lab import _kernels, oracle
from resonance_lab.matroid import catalog
from resonance_lab.osalg import dlambda_matrix
from resonance_lab.rings import IntegersModN, make_ring, prime_power_factors


def _tuples(q, n):
    return np.array(list(itertools.product(range(q), repeat=n)),
                    dtype=np.int64)


def _parallel_counts(q, n):
    """|P(lambda)| for every lambda: the eta whose 2x2 minors with lambda
    all vanish mod q, counted over all pairs (lambda, eta)."""
    T = _tuples(q, n)
    ok = np.ones((len(T), len(T)), dtype=bool)
    for i, j in itertools.combinations(range(n), 2):
        minor = np.outer(T[:, i], T[:, j]) - np.outer(T[:, j], T[:, i])
        ok &= minor % q == 0
    return ok.sum(1)


def _z_counts(m, ring):
    """|Z(lambda)| for every lambda: the eta with d_lambda eta = 0 mod q."""
    T = _tuples(ring.n, m.n)
    out = []
    for lam in T:
        D = np.array(dlambda_matrix(tuple(map(int, lam)), m, ring).rows,
                     dtype=np.int64)
        out.append(int(((T @ D.T) % ring.n == 0).all(1).sum()))
    return np.array(out)


@pytest.mark.parametrize("name,q", [
    ("pencil-3", 4), ("pencil-3", 8), ("pencil-3", 9), ("pencil-4", 4)])
def test_parallel_locus_has_the_closed_form_size(name, q):
    m, ring = catalog(name), IntegersModN(q)
    p, k = _kernels.chain_params(ring)
    n = m.n
    v = _kernels._min_valuations(ring, n).astype(np.int64)
    assert v.size == q ** n and v[0] == k
    P = _parallel_counts(q, n)
    assert np.array_equal(P, p ** (k * n - (n - 1) * (k - v)))
    Z = _z_counts(m, ring)
    assert (Z >= P).all()  # P(lambda) lies inside Z(lambda)
    L = oracle._dlambda_digit_map(m, ring)[0]
    mask = oracle._resonant_mask(m, ring, L)
    assert np.array_equal(mask, Z > P)
    assert mask.any() and not mask.all()


def _stacked_rows(lam, m, ring):
    """d_lambda, then one row per pair i < j for the minor
    lambda_i eta_j - lambda_j eta_i."""
    rows = list(dlambda_matrix(lam, m, ring).rows)
    for i, j in itertools.combinations(range(m.n), 2):
        row = [0] * m.n
        row[i], row[j] = ring.neg(lam[j]), lam[i]
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("name", ["braid-K4", "nonfano"])
def test_mask_matches_the_stacked_minors_system(name):
    m, ring = catalog(name), IntegersModN(4)
    n, total = m.n, 4 ** m.n
    basis = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    L, nr, nc = ref.digit_map(
        lambda lam: _stacked_rows(lam, m, ring), basis, ring, n)
    nd = nr - n * (n - 1) // 2
    z_len = _kernels.scan_lengths(L[:nd * nc], ring, n, nd, nc, 0, total)
    p_len = _kernels.scan_lengths(L, ring, n, nr, nc, 0, total)
    v = _kernels._min_valuations(ring, n)
    assert np.array_equal(p_len, (n - 1) * (2 - v.astype(np.int64)))
    Ld = oracle._dlambda_digit_map(m, ring)[0]
    assert np.array_equal(oracle._resonant_mask(m, ring, Ld), z_len < p_len)


# every Z/N scan of the suite, plus braid-K4/Z8 and pencil-4/Z12
MODN_SCANS = [("braid-K4", "Z4"), ("nonfano", "Z4"), ("pencil-3", "Z4"),
              ("pencil-3", "Z6"), ("pencil-3", "Z8"), ("pencil-3", "Z9"),
              ("pencil-3", "Z12"), ("pencil-3", "Z27"), ("pencil-4", "Z4"),
              ("pencil-4", "Z6"), ("pencil-4", "Z8"), ("pencil-4", "Z12"),
              ("pencil-5", "Z6"), ("braid-K4", "Z8")]


@pytest.mark.parametrize("name,spec", MODN_SCANS)
def test_mask_equals_the_elimination_of_every_tuple(name, spec, monkeypatch):
    m, scan_ring = catalog(name), make_ring(spec)
    n, L = m.n, oracle._dlambda_digit_map(m, scan_ring)[0]
    windows = []
    real = _kernels.scan_lengths
    monkeypatch.setattr(_kernels, "scan_lengths",
                        lambda *a: windows.append(a[-1] - a[-2]) or real(*a))
    for p, k in prime_power_factors(scan_ring.n):
        ring, Lq = IntegersModN(p ** k), L % p ** k
        windows.clear()
        mask = oracle._resonant_mask(m, ring, Lq)
        assert windows == [ring.n ** n // p]  # s(lambda) = 0 mod p only
        z_len = real(Lq, ring, n, len(Lq) // n, n, 0, ring.n ** n)
        v = _kernels._min_valuations(ring, n)
        assert np.array_equal(mask, z_len < (n - 1) * (k - v))


def test_a_digit_map_that_breaks_the_row_sums_is_refused_by_the_mask():
    m, ring = catalog("braid-K4"), IntegersModN(4)
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    broken = L.reshape(nr, -1).copy()
    broken[0] = 3 * broken[0] % 4  # minus one row: same kernel, other sums
    with pytest.raises(ValueError, match="do not sum"):
        oracle._resonant_mask(m, ring, broken.reshape(L.shape))
    oracle._resonant_mask(m, ring, L)
