"""The batched Smith replay behind Z/N scan witnesses: for every weight it
must return exactly the generator list `kernel_modn` returns for d_lambda,
each generator in the row of its pivot column."""

import random

import numpy as np
import pytest

from resonance_lab import _kernels, oracle
from resonance_lab.matroid import catalog
from resonance_lab.osalg import dlambda_matrix, is_resonant
from resonance_lab.rings import Matrix, kernel_modn, make_ring


def _lists(K, valid):
    """The generator list of each (K[b], valid[b]), once every valid row c
    is checked to have its pivot in column c and every other row to be
    zero."""
    out = []
    for rows, ok in zip(K.tolist(), valid.tolist()):
        assert not any(any(r) for r, v in zip(rows, ok) if not v)
        gens = [tuple(r) for r, v in zip(rows, ok) if v]
        assert [next(i for i, x in enumerate(g) if x) for g in gens] == [
            c for c, v in enumerate(ok) if v]
        out.append(gens)
    return out


def _batched(m, ring, lams, chunk=128):
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    coords = np.asarray(lams, dtype=np.int64).reshape(-1, m.n)
    out = []
    for lo in range(0, len(coords), chunk):
        mats = _kernels._systems(L, ring, coords[lo:lo + chunk], nc)
        out += _lists(*_kernels._smith_kernels(mats, ring))
    return out


def _assert_lists_equal(m, ring, lams):
    got = _batched(m, ring, lams)
    assert len(got) == len(lams)
    for lam, gens in zip(lams, got):
        assert gens == kernel_modn(dlambda_matrix(lam, m, ring)), lam


@pytest.mark.parametrize("name,spec", [
    ("braid-K4", "Z4"), ("pencil-5", "Z6"), ("pencil-3", "Z4"),
    ("pencil-3", "Z8"), ("pencil-3", "Z9"), ("pencil-3", "Z12"),
    ("pencil-3", "Z27"), ("pencil-4", "Z8")])
def test_generators_equal_kernel_modn_on_every_reported_weight(name, spec):
    m, ring = catalog(name), make_ring(spec)
    lams = [p.lam for p in oracle.scan_resonance(m, ring).points]
    assert lams
    _assert_lists_equal(m, ring, lams)


@pytest.mark.parametrize("name", ["nonfano", "deletedB3"])
def test_generators_equal_kernel_modn_on_sampled_weights(name):
    # random tuples of Z4, reported or not, plus tuples with a run of zero
    # coordinates and the zero tuple itself
    m, ring = catalog(name), make_ring("Z4")
    rng = random.Random(f"smith:{name}")
    lams = [tuple(rng.randrange(4) for _ in range(m.n)) for _ in range(150)]
    for _ in range(50):
        lam = [rng.randrange(4) for _ in range(m.n)]
        zeros = rng.randrange(1, m.n)
        lam[:zeros] = [0] * zeros
        lams.append(tuple(rng.sample(lam, m.n)))
    lams.append((0,) * m.n)
    resonant = [is_resonant(lam, m, ring) for lam in lams]
    assert any(resonant) and not all(resonant)
    assert any(0 in lam for lam in lams)
    _assert_lists_equal(m, ring, lams)


def test_entries_past_the_bound_hand_the_chunk_to_kernel_modn(monkeypatch):
    m, ring = catalog("braid-K4"), make_ring("Z4")
    lams = [p.lam for p in oracle.scan_resonance(m, ring).points][:300]
    expected = [kernel_modn(dlambda_matrix(lam, m, ring)) for lam in lams]
    calls = []
    real = _kernels.kernel_modn

    def counted(M):
        calls.append(1)
        return real(M)

    monkeypatch.setattr(_kernels, "kernel_modn", counted)
    monkeypatch.setattr(_kernels, "_SMITH_BOUND", 4)
    assert _batched(m, ring, lams) == expected
    assert 0 < len(calls) <= len(lams)


def test_a_chunk_of_replayed_and_handed_off_weights_keeps_pivot_rows(
        monkeypatch):
    # random weights of pencil-4 over Z12, every eighth one zero: with the
    # bound at 500, some matrices of the chunk finish their replay before an
    # entry outgrows it, and the others go to kernel_modn
    m, ring = catalog("pencil-4"), make_ring("Z12")
    rng = random.Random("pencil-4Z12")
    lams = np.array([[rng.randrange(12) for _ in range(m.n)]
                     for _ in range(128)])
    lams[::8] = 0
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    mats = _kernels._systems(L, ring, lams, nc)
    handed = []
    real = _kernels.kernel_modn

    def counted(M):
        handed.append(M.rows)
        return real(M)

    monkeypatch.setattr(_kernels, "kernel_modn", counted)
    monkeypatch.setattr(_kernels, "_SMITH_BOUND", 500)
    K, valid = _kernels._smith_kernels(mats, ring)
    assert 0 < len(handed) < len(lams)
    assert K.shape == (len(lams), m.n, m.n) and valid.shape == K.shape[:2]
    for lam, Kb, ok in zip(lams.tolist(), K, valid):
        want = np.zeros((m.n, m.n), dtype=np.int64)
        at = np.zeros(m.n, dtype=bool)
        for g in kernel_modn(dlambda_matrix(tuple(lam), m, ring)):
            c = next(i for i, x in enumerate(g) if x)
            assert not at[c]
            want[c], at[c] = g, True
        assert np.array_equal(Kb, want), lam
        assert np.array_equal(ok, at), lam


def test_only_the_matrices_that_outgrow_the_bound_are_handed_off(
        monkeypatch):
    # random weights of braid-K4 over Z12 with the bound at 500: a matrix
    # leaves the lockstep when its own entries outgrow the bound, so the
    # chunk hands off exactly the matrices that hand off when replayed one
    # at a time, and K is the one the real bound gives
    m, ring = catalog("braid-K4"), make_ring("Z12")
    rng = random.Random("braid-K4Z12")
    lams = np.array([[rng.randrange(12) for _ in range(m.n)]
                     for _ in range(64)])
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    mats = _kernels._systems(L, ring, lams, nc)
    want = _kernels._smith_kernels(mats, ring)
    handed = []
    real = _kernels.kernel_modn

    def counted(M):
        handed.append(tuple(map(tuple, M.rows)))
        return real(M)

    monkeypatch.setattr(_kernels, "kernel_modn", counted)
    monkeypatch.setattr(_kernels, "_SMITH_BOUND", 500)
    alone = []
    for b in range(len(mats)):
        handed.clear()
        _kernels._smith_kernels(mats[b:b + 1], ring)
        alone += [tuple(map(tuple, mats[b].tolist()))] if handed else []
    handed.clear()
    got = _kernels._smith_kernels(mats, ring)
    assert 0 < len(alone) < len(mats)
    assert sorted(handed) == sorted(alone)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_an_overflow_of_the_transform_alone_hands_nothing_off(monkeypatch):
    # random weights of braid-K4 over Z36: the replay's column transform
    # outgrows the real bound on 45 of them, and is reduced mod 36 instead
    m, ring = catalog("braid-K4"), make_ring("Z36")
    rng = random.Random("braid-K4Z36")
    lams = [tuple(rng.randrange(36) for _ in range(m.n)) for _ in range(128)]
    expected = [kernel_modn(dlambda_matrix(lam, m, ring)) for lam in lams]
    calls = []
    real = _kernels.kernel_modn

    def counted(M):
        calls.append(1)
        return real(M)

    monkeypatch.setattr(_kernels, "kernel_modn", counted)
    assert _batched(m, ring, lams) == expected
    assert not calls


def test_hit_chunks_are_sized_by_stack_entries(monkeypatch):
    # braid-K4's Smith stacks are 11 x (6 + 11), pencil-5's 4 x (5 + 4)
    sizes = []
    real = _kernels._smith_kernels
    monkeypatch.setattr(_kernels, "_smith_kernels",
                        lambda mats, ring: sizes.append(len(mats))
                        or real(mats, ring))
    oracle.scan_resonance(catalog("braid-K4"), make_ring("Z4"))
    assert sizes == [128] * 7 + [975 - 7 * 128]
    sizes.clear()
    oracle.scan_resonance(catalog("pencil-5"), make_ring("Z6"))
    assert sizes == [664] * 7 + [5005 - 7 * 664]


def test_scan_modn_does_not_depend_on_smith_chunk(monkeypatch):
    # pencil-4/Z6 reports 801 weights: chunks of 7 leave a short last chunk
    m, ring = catalog("pencil-4"), make_ring("Z6")
    full = oracle.scan_resonance(m, ring).to_jsonable()
    assert full["resonant_count"] % 7
    # chunks of 7 of pencil-4's Smith stacks [d_lambda | 6 I], 3 x (4 + 3)
    monkeypatch.setattr(oracle, "_HIT_ENTRIES", 7 * 3 * (4 + 3))
    small = oracle.scan_resonance(m, ring).to_jsonable()
    for rep in (full, small):
        rep.pop("seconds")
    assert small == full


@pytest.mark.parametrize("N,R,n", [(4, 3, 4), (12, 3, 3), (36, 4, 5),
                                   (72, 3, 4), (9, 4, 6)])
def test_generators_equal_kernel_modn_on_random_matrices(N, R, n):
    # the identity digit map makes the coordinates the matrix entries, so
    # the replay meets pivots that leave part of the trailing block
    # undivided; without the reference's fix-up step a few of these lists
    # come out different
    ring = make_ring(f"Z{N}")
    rng = random.Random(f"smith:{N}:{R}:{n}")
    mats = np.array([[rng.randrange(N) for _ in range(R * n)]
                     for _ in range(600)])
    L = np.eye(R * n, dtype=np.int64)
    got = []
    for lo in range(0, len(mats), 128):
        stack = _kernels._systems(L, ring, mats[lo:lo + 128], n)
        got += _lists(*_kernels._smith_kernels(stack, ring))
    for M, gens in zip(mats, got):
        rows = M.reshape(R, n).tolist()
        assert gens == kernel_modn(Matrix.from_rows(ring, rows, width=n)), rows
