"""The field scan certifies nullity 1 on a sketch of the system.

`_kernels.scan_nullities` eliminates every candidate on a fixed F_p
combination S of its nonzero digit rows, and again on all of them only
where the sketch nullity is at least 2.  That is exact because every candidate
lies in the kernel of its own system, M(lambda) lambda = 0, so
nullity(S M) >= nullity(M) >= 1 and a sketch nullity of 1 proves nullity 1.
These tests check the premise (`_kernels._check_self_kernel`) against a
brute-force evaluation and on every component map the scans build, and
check both stages over F2, where the sketch is least often exact.
"""

import itertools

import numpy as np
import pytest

import digit_map_reference as ref
from resonance_lab import _kernels, oracle
from resonance_lab.graphs import parse_graph
from resonance_lab.matroid import catalog
from resonance_lab.neighborly import enumerate_neighborly, k_gamma
from resonance_lab.osalg import dlambda_matrix
from resonance_lab.rings import Matrix, make_ring, rank_field

HESSIAN_GRAPH = "123|456|789|αβγ"


def _component_map(g, m, ring):
    kb = k_gamma(g, m, ring)
    L, nr, _ = _kernels.build_digit_map(oracle._zgamma_coeffs(g, m), ring)
    return kb, oracle._restrict(L, kb, ring, nr), nr, len(kb)


def _premise_holds(L, ring, dim, nr, nc):
    try:
        _kernels._check_self_kernel(L.reshape(nr, -1), ring, dim, nc)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# the premise

def _bilinear_map(A, ring):
    """The digit map of lambda -> M(lambda) with M(lambda)[r, j] =
    sum_i A[r][i][j] lambda_i, and M(lambda) lambda evaluated directly."""
    n = len(A[0])

    def rows(lam):
        return [[ring.sum(ring.mul(A[r][i][j], lam[i]) for i in range(n))
                 for j in range(n)] for r in range(len(A))]

    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return ref.digit_map(rows, basis, ring, n), rows


def _random_forms(ring, rng, n, rows):
    """Coefficient tensors A[r][i][j] over ring: half of them alternating in
    (i, j), so that every lambda is in the kernel, half arbitrary."""
    q = ring.cardinality
    forms = []
    for trial in range(12):
        A = rng.integers(0, q, size=(rows, n, n)).tolist()
        if trial % 2 == 0:
            for r, i in itertools.product(range(rows), range(n)):
                A[r][i][i] = 0
                for j in range(i + 1, n):
                    A[r][j][i] = ring.neg(A[r][i][j])
        forms.append(A)
    return forms


@pytest.mark.parametrize("spec", ["F2", "F3", "F4", "F9"])
def test_premise_check_matches_a_brute_force_evaluation(spec):
    ring, n = make_ring(spec), 3
    rng = np.random.default_rng(ring.cardinality)
    points = list(itertools.product(range(ring.cardinality), repeat=n))
    verdicts = []
    for A in _random_forms(ring, rng, n, 2):
        (L, nr, nc), rows = _bilinear_map(A, ring)
        holds = all(ring.sum(ring.mul(x, y) for x, y in zip(row, lam)) == 0
                    for lam in points for row in rows(lam))
        assert _premise_holds(L, ring, n, nr, nc) == holds, A
        verdicts.append(holds)
    assert True in verdicts and False in verdicts


def test_a_candidate_outside_its_own_kernel_raises():
    ring, n = make_ring("F4"), 4
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    L, nr, nc = ref.digit_map(
        lambda lam: [[lam[0]] + [0] * (n - 1)], basis, ring, n)
    with pytest.raises(ValueError, match="own kernel"):
        _kernels.scan_nullities(L, ring, n, nr, nc, 0, 5)


def test_a_sketch_nullity_of_zero_raises(monkeypatch):
    # with the premise check out of the way, M(lambda) = lambda_0 I has
    # nullity 0 wherever lambda_0 != 0: the elimination itself objects
    monkeypatch.setattr(_kernels, "_check_self_kernel", lambda *a: None)
    ring, n = make_ring("F3"), 3
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    L, nr, nc = ref.digit_map(
        lambda lam: [[lam[0] if j == r else 0 for j in range(n)]
                     for r in range(n)], basis, ring, n)
    with pytest.raises(ValueError, match="own system"):
        _kernels.scan_nullities(L, ring, n, nr, nc, 0, 5)


@pytest.mark.parametrize("name", ["braid-K4", "nonfano", "deletedB3"])
@pytest.mark.parametrize("spec", ["F2", "F3", "F4"])
def test_premise_holds_on_every_component_map(name, spec):
    m, ring = catalog(name), make_ring(spec)
    graphs = enumerate_neighborly(m, ring, partitions_only=True)
    assert graphs
    for g in graphs:
        kb, L, nr, nc = _component_map(g, m, ring)
        if kb:
            assert _premise_holds(L, ring, len(kb), nr, nc), g


def test_premise_holds_on_the_hessian_f9_component_and_d_lambda():
    m, ring = catalog("hessian"), make_ring("F9")
    kb, L, nr, nc = _component_map(parse_graph(HESSIAN_GRAPH, m.n), m, ring)
    assert (nr, nc) == (48, 6) and _premise_holds(L, ring, len(kb), nr, nc)
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    assert _premise_holds(L, ring, m.n, nr, nc)


# ---------------------------------------------------------------------------
# the two stages over F2

def _recorded_stages(monkeypatch, L, ring, dim, nr, nc):
    """The full scan's nullities, and (sketch nullity, full nullity) of
    every candidate the sketch sent to the full rows, read from the
    elimination calls: each block's sketch call, then its full-row call
    on the candidates whose sketch nullity is at least 2."""
    calls = []
    block_length = _kernels._block_length

    def recording(M, *tables):
        rows = M.shape[1]
        lengths = block_length(M, *tables)
        calls.append((rows, nc - lengths))
        return lengths

    monkeypatch.setattr(_kernels, "_block_length", recording)
    total = _kernels.projective_total(ring.cardinality, dim)
    nul = _kernels.scan_nullities(L, ring, dim, nr, nc, 0, total)
    r1 = nc - 1 + 3  # e = 3 over F2
    pairs = []
    for (rows, sketch), later in zip(calls, calls[1:] + [(None, None)]):
        if rows != r1:
            continue
        assert sketch.min() >= 1
        redo = sketch[sketch >= 2]
        if redo.size:
            assert later[0] > r1 and later[1].size == redo.size
            pairs.append(np.stack([redo, later[1]]))
    return nul, np.concatenate(pairs, 1)


def _rank(rows, ring, width):
    return rank_field(Matrix.from_rows(ring, [tuple(map(int, r))
                                              for r in rows], width=width))


def _check_stages(nul, pairs, reference):
    for g, want in enumerate(reference):
        assert int(nul[g]) == want, g
    sketch, full = pairs
    assert (full >= 1).all() and (full <= sketch).all()
    # the sketch left candidates of nullity 1 uncertified, some of them at
    # sketch nullity exactly 2: the full rows are needed, down to that case
    assert ((sketch == 2) & (full == 1)).any()
    assert int((full >= 2).sum()) == int((nul >= 2).sum())


def test_deletedb3_f2_scan_in_two_stages(monkeypatch):
    m, ring = catalog("deletedB3"), make_ring("F2")
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    nul, pairs = _recorded_stages(monkeypatch, L, ring, m.n, nr, nc)
    total = _kernels.projective_total(2, m.n)
    lams = _kernels.decode_candidates(np.arange(total), 2, m.n).tolist()
    reference = [m.n - rank_field(dlambda_matrix(tuple(lam), m, ring))
                 for lam in lams]
    _check_stages(nul, pairs, reference)


def test_deletedb3_f2_component_in_two_stages(monkeypatch):
    m, ring = catalog("deletedB3"), make_ring("F2")
    g = parse_graph("12345|12346|12347|12348", m.n)
    kb, L, nr, nc = _component_map(g, m, ring)
    nul, pairs = _recorded_stages(monkeypatch, L, ring, len(kb), nr, nc)
    total = _kernels.projective_total(2, len(kb))
    coeffs = _kernels.decode_candidates(np.arange(total), 2, len(kb)).tolist()
    # the rows come from the entry-by-entry reference builder
    reference = [len(kb) - _rank(ref.k_rows(ring.combine(c, kb, m.n), g, m,
                                            ring, kb), ring, len(kb))
                 for c in coeffs]
    _check_stages(nul, pairs, reference)
