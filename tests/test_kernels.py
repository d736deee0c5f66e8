"""The batched nullity loop against the exact path."""

import numpy as np
import pytest

import digit_map_reference as ref
from resonance_lab import _kernels, oracle
from resonance_lab.matroid import catalog
from resonance_lab.osalg import dlambda_matrix, z_of
from resonance_lab.rings import (Matrix, howell_form, make_ring,
                                 prime_power_factors, rank_field)


def test_backend_name_selection():
    assert _kernels.backend_name() == "numpy"


def test_projective_totals():
    assert _kernels.projective_total(2, 3) == 7
    assert _kernels.projective_total(3, 2) == 4
    assert _kernels.projective_total(4, 7) == 5461


def test_decode_candidate_enumerates_projective_space():
    for q, dim in ((3, 3), (4, 2), (2, 5), (9, 3), (2, 8)):
        total = _kernels.projective_total(q, dim)
        got = _kernels.decode_candidates(np.arange(total, dtype=np.int64),
                                         q, dim)
        assert got.dtype == np.int64 and got.shape == (total, dim)
        points = [tuple(r) for r in got.tolist()]
        assert all(next(x for x in v if x) == 1 for v in points)
        assert len(set(points)) == total
        assert points == ref.projective_points(q, dim), (q, dim)
        # any subset decodes row by row, in the order given
        picks = np.random.default_rng(q * dim).integers(0, total, size=50)
        assert [tuple(r) for r in _kernels.decode_candidates(
            picks, q, dim).tolist()] == [points[g] for g in picks]
        # and the encoder numbers every point back
        assert np.array_equal(_kernels._encode_candidates(got, q, dim),
                              np.arange(total))


def _candidates(q, dim):
    total = _kernels.projective_total(q, dim)
    return _kernels.decode_candidates(np.arange(total, dtype=np.int64),
                                      q, dim).tolist()


def test_scan_matches_exact_kernel_f2():
    m = catalog("nonfano")
    ring = make_ring("F2")
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    total = _kernels.projective_total(2, m.n)
    nul = _kernels.scan_nullities(L, ring, m.n, nr, nc, 0, total)
    for g, lam in enumerate(_candidates(2, m.n)):
        assert int(nul[g]) == len(z_of(lam, m, ring)), lam


def test_scan_spot_check_extension_field():
    # a handful of F4 candidates against the exact kernel dimension
    m = catalog("nonfano")
    ring = make_ring("F4")
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    total = _kernels.projective_total(4, m.n)
    nul = _kernels.scan_nullities(L, ring, m.n, nr, nc, 0, total)
    rng = np.random.default_rng(0)
    gs = rng.integers(0, total, size=40)
    for g, lam in zip(gs, _kernels.decode_candidates(gs, 4, m.n).tolist()):
        assert int(nul[g]) == len(z_of(lam, m, ring)), lam
    # windowed scans glue to the full one
    mid = total // 2
    glued = np.concatenate([
        _kernels.scan_nullities(L, ring, m.n, nr, nc, 0, mid),
        _kernels.scan_nullities(L, ring, m.n, nr, nc, mid, total)])
    assert np.array_equal(nul, glued)


def test_empty_window_and_all_zero_digit_map():
    m = catalog("nonfano")
    ring = make_ring("F2")
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    out = _kernels.scan_nullities(L, ring, m.n, nr, nc, 5, 5)
    assert out.size == 0
    # an all-zero map takes the no-elimination shortcut, sized by the window
    for hi in (5, 25):
        out = _kernels.scan_nullities(np.zeros_like(L), ring, m.n, nr, nc,
                                      5, hi)
        assert out.tolist() == [nc] * (hi - 5)
    # a system of no coordinates has no digit map at all
    with pytest.raises(ValueError, match="no coordinates"):
        _kernels.build_digit_map(np.zeros((1, 1, 0), dtype=np.int64), ring)


def test_digit_map_of_a_system_with_no_rows():
    ring = make_ring("F3")
    basis = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    L, nr, nc = ref.digit_map(lambda lam: [], basis, ring, 4)
    assert (nr, nc) == (0, 4) and L.shape == (0, 4)
    got = _kernels.build_digit_map(np.zeros((0, 4, 4), dtype=np.int64), ring)
    assert got[1:] == (nr, nc) and np.array_equal(got[0], L)
    nul = _kernels.scan_nullities(L, ring, 4, nr, nc, 0, 40)
    assert nul.tolist() == [4] * 40


def _reference_nullity(lam, m, ring):
    return m.n - rank_field(dlambda_matrix(lam, m, ring))


def _full_scan(m, ring):
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    total = _kernels.projective_total(ring.cardinality, m.n)
    return _kernels.scan_nullities(L, ring, m.n, nr, nc, 0, total)


# pencil-4 over F8 and F16 has Frobenius orbits of sizes 3 and 4 (and 2)
@pytest.mark.parametrize("name,spec", [("nonfano", "F3"), ("pencil-4", "F9"),
                                       ("pencil-4", "F8"), ("pencil-4", "F16")])
def test_scan_matches_rank_field_on_every_candidate(name, spec):
    m, ring = catalog(name), make_ring(spec)
    nul = _full_scan(m, ring)
    assert nul.size == _kernels.projective_total(ring.cardinality, m.n)
    for g, lam in enumerate(_candidates(ring.cardinality, m.n)):
        assert int(nul[g]) == _reference_nullity(lam, m, ring), g


@pytest.mark.parametrize("name,spec", [("braid-K4", "F9"), ("pencil-3", "F257")])
def test_scan_matches_rank_field_on_resonant_and_sampled(name, spec):
    # every candidate the scan calls resonant, plus seeded others
    m, ring = catalog(name), make_ring(spec)
    nul = _full_scan(m, ring)
    resonant = np.nonzero(nul >= 2)[0]
    assert resonant.size > 0
    rng = np.random.default_rng(2)
    sampled = rng.choice(nul.size, size=min(2000, nul.size), replace=False)
    gs = np.union1d(resonant, sampled)
    lams = _kernels.decode_candidates(gs, ring.cardinality, m.n).tolist()
    for g, lam in zip(gs, lams):
        assert int(nul[g]) == _reference_nullity(lam, m, ring), g


def test_windows_glue_across_block_boundaries():
    m, ring = catalog("deletedB3"), make_ring("F4")
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    total = _kernels.projective_total(4, m.n)
    full = _kernels.scan_nullities(L, ring, m.n, nr, nc, 0, total)
    windows = [(0, 1), (1, 4097), (4097, total)]
    glued = np.concatenate([_kernels.scan_nullities(L, ring, m.n, nr, nc, lo, hi)
                            for lo, hi in windows])
    assert np.array_equal(full, glued)


def test_zero_digit_map_has_full_nullity():
    ring = make_ring("F4")
    basis = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    L, nr, nc = ref.digit_map(lambda lam: [[0] * 5] * 4, basis, ring, 5)
    assert (nr, nc) == (4, 5) and not L.any()
    got = _kernels.build_digit_map(np.zeros((4, 5, 3), dtype=np.int64), ring)
    assert got[1:] == (nr, nc) and np.array_equal(got[0], L)
    nul = _kernels.scan_nullities(L, ring, 3, nr, nc, 0, 21)
    assert nul.tolist() == [5] * 21


def _module_size(rows, q, ncols):
    """|row module| of rows over Z/q: {0} closed under adding every multiple
    of every row, listed element by element."""
    span = np.zeros((1, ncols), dtype=np.int64)
    for r in rows:
        multiples = np.outer(np.arange(q), r) % q
        span = np.unique(((span[:, None, :] + multiples).reshape(-1, ncols))
                         % q, axis=0)
    return len(span)


def _block_length(mats, ring):
    tables = _kernels._chain_tables_for(ring)
    M = np.array(mats, dtype=tables[0].dtype)
    return _kernels._block_length(M, *tables)


def test_block_length_of_a_row_with_a_nonunit_lead():
    # over Z4 the row (2, 1) spans 4 elements, so a column-by-column pivot
    # on the 2 would undercount it
    ring = make_ring("Z4")
    assert _module_size([(2, 1)], 4, 2) == 4
    assert _block_length([[(2, 1)], [(2, 0)], [(0, 0)], [(2, 2)]],
                         ring).tolist() == [2, 1, 0, 1]
    # a leading column without a pivot must leave its rows for later columns
    assert _block_length([[(0, 2)]], ring).tolist() == [1]
    assert _block_length([[(0, 0), (0, 2)]], ring).tolist() == [1]


@pytest.mark.parametrize("spec", ["Z2", "Z3", "Z4", "Z8", "Z9",
                                  "F2", "F3", "F4", "F9"])
def test_block_length_matches_brute_force_module_size(spec):
    ring = make_ring(spec)
    if ring.is_field:
        p, k, q = _kernels.field_params(ring)
    else:
        p, k = _kernels.chain_params(ring)
        q = ring.n
    rng = np.random.default_rng(k * 100 + p)
    checked = 0
    for _ in range(8):
        R, C = map(int, rng.integers(1, 4, size=2))
        # entries drawn with extra weight on zero and on multiples of p
        mats = rng.integers(0, q, size=(5, R, C))
        mats = np.where(rng.random(mats.shape) < 0.3, (mats * p) % q, mats)
        mats = np.where(rng.random(mats.shape) < 0.2, 0, mats)
        got = _block_length(mats, ring)
        for b in range(5):
            rows = mats[b].tolist()
            if ring.is_field:
                # F4 and F9 entries are encodings, not integers mod q, so
                # `_module_size` does not apply; the length is the rank
                rank = rank_field(Matrix.from_rows(ring, rows))
                assert int(got[b]) == rank, (rows, int(got[b]))
            else:
                size = _module_size(rows, q, C)
                assert p ** int(got[b]) == size, (rows, int(got[b]))
            checked += 1
    assert checked == 40


@pytest.mark.parametrize("spec", ["Z289", "Z343", "Z512", "Z625", "Z729"])
def test_block_length_over_rings_wider_than_a_byte(spec):
    # p^(k - v) exceeds 255 here, so tables computed in uint8 would wrap
    ring = make_ring(spec)
    p, k = _kernels.chain_params(ring)
    q = ring.n
    assert _block_length([[(1, 1)], [(p, 0)], [(0, p ** (k - 1))]],
                         ring).tolist() == [k, k - 1, 1]
    rng = np.random.default_rng(q)
    mats = rng.integers(0, q, size=(30, 3, 4))
    mats = np.where(rng.random(mats.shape) < 0.4,
                    (mats * p ** rng.integers(1, k + 1, mats.shape)) % q, mats)
    got = _block_length(mats, ring)
    for b in range(len(mats)):
        # each element of a Howell form's span is a unique sum of c * row
        # with c taken mod p^(k - v), v the valuation of the row's pivot
        form = howell_form(mats[b].tolist(), q)
        want = sum(k - _valuation(next(x for x in row if x), p)
                   for row in form)
        assert int(got[b]) == want, mats[b].tolist()


def _valuation(a, p):
    v = 0
    while a % p == 0:
        a, v = a // p, v + 1
    return v


def test_chain_params():
    assert prime_power_factors(360) == [(2, 3), (3, 2), (5, 1)]
    assert prime_power_factors(97) == [(97, 1)]
    assert _kernels.chain_params(make_ring("Z8")) == (2, 3)
    assert _kernels.chain_params(make_ring("Z3")) == (3, 1)
    for spec in ("Z6", "Z12", "F4"):
        with pytest.raises(ValueError):
            _kernels.chain_params(make_ring(spec))


def test_chain_windows_glue_across_block_boundaries():
    m, ring = catalog("braid-K4"), make_ring("Z4")
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    total = 4 ** m.n
    full = _kernels.scan_lengths(L, ring, m.n, nr, nc, 0, total)
    edge = _kernels._CHAIN_BLOCK + 1
    windows = [(0, 1), (1, edge), (edge, total)]
    glued = np.concatenate([_kernels.scan_lengths(L, ring, m.n, nr, nc, lo, hi)
                            for lo, hi in windows])
    assert np.array_equal(full, glued)
    # and each length is the one of the exact matrix, on a seeded sample
    rng = np.random.default_rng(3)
    for g in map(int, rng.choice(total, size=30, replace=False)):
        lam = tuple((g // 4 ** (m.n - 1 - i)) % 4 for i in range(m.n))
        rows = dlambda_matrix(lam, m, ring).rows
        assert 2 ** int(full[g]) == _module_size(rows, 4, nc), lam
