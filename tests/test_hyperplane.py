"""Field scans eliminate only the hyperplane H = {sum(lambda) = 0}.

Summed over the lines through a point k, the rows (X, k) of d_lambda give
s(lambda) eta_k - lambda_k s(eta), s the coordinate sum, so a weight with
s(lambda) != 0 has dim Z(lambda) = 1 and Z(lambda) lies in H otherwise.
The lemma is checked here on the exact `Ring` path alone (`z_of`), the
scan's premise check must refuse a digit map that breaks the row sums, and
the reported weights' Z(lambda) from the batched echelon form
(`_kernels.echelon_kernels`) must be `kernel_field`'s basis.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonance_lab import _kernels, oracle
from resonance_lab.matroid import catalog, from_lines
from resonance_lab.osalg import dlambda_matrix, z_of
from resonance_lab.rings import Matrix, is_parallel, kernel_field, make_ring


def _projective(ring, n):
    """Every projective weight of F_q^n, leading coordinate one, by
    `itertools.product` and nothing of the kernels' codec."""
    q = ring.cardinality
    for lead in range(n):
        for rest in itertools.product(range(q), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + rest


LEMMA_CASES = [("braid-K4", "F2"), ("braid-K4", "F3"), ("braid-K4", "F4"),
               ("nonfano", "F2"), ("nonfano", "F3"), ("deletedB3", "F2"),
               ("deletedB3", "F3"), ("pencil-5", "F3")]


@pytest.mark.parametrize("name,spec", LEMMA_CASES)
def test_a_weight_off_the_hyperplane_has_only_its_own_line(name, spec):
    m, ring = catalog(name), make_ring(spec)
    off = 0
    for lam in _projective(ring, m.n):
        if ring.sum(lam) != ring.zero:
            off += 1
            assert len(z_of(lam, m, ring)) == 1, lam
    assert off == ring.cardinality ** (m.n - 1)


@pytest.mark.parametrize("name,spec", [("braid-K4", "F4"), ("nonfano", "F3"),
                                       ("deletedB3", "F2")])
def test_a_weight_on_the_hyperplane_has_its_partners_there(name, spec):
    m, ring = catalog(name), make_ring(spec)
    for lam in _projective(ring, m.n):
        if ring.sum(lam) == ring.zero:
            for eta in z_of(lam, m, ring):
                assert ring.sum(eta) == ring.zero, (lam, eta)


@pytest.mark.parametrize("name,spec", [("braid-K4", "F4"), ("nonfano", "F3"),
                                       ("deletedB3", "F2"), ("pencil-5", "F3"),
                                       ("olive-samansky", "F2"),
                                       ("deletedB3", "F4")])
def test_the_hyperplane_scan_finds_what_the_ambient_scan_finds(name, spec):
    m, ring = catalog(name), make_ring(spec)
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    total = _kernels.projective_total(ring.cardinality, m.n)
    nul = _kernels.scan_nullities(L, ring, m.n, nr, nc, 0, total)
    hits = np.flatnonzero(nul >= 2)
    lams = _kernels.decode_candidates(hits, ring.cardinality, m.n)
    rep = oracle.scan_resonance(m, ring)
    assert [(p.lam, p.dim_z) for p in rep.points] == list(
        zip(map(tuple, lams.tolist()), nul[hits].tolist()))
    assert rep.universe == total


def _dropped_rows(m, lines):
    """Indices of the rows of d_lambda that belong to the given lines."""
    rows = [X for X in m.all_lines for _ in X[1:]]
    return [r for r, X in enumerate(rows) if X in lines]


def test_a_digit_map_that_breaks_the_row_sums_is_refused(monkeypatch):
    m, ring = catalog("braid-K4"), make_ring("F3")
    L, nr, nc = oracle._dlambda_digit_map(m, ring)
    oracle._check_row_sums(L, m, ring)
    # without its trivial lines, d_lambda keeps each weight in its own
    # kernel but not the row sums, and the lemma fails for it
    gone = _dropped_rows(m, m.trivial_lines)
    assert gone
    broken = L.reshape(nr, -1).copy()
    broken[gone] = 0
    broken = broken.reshape(L.shape)
    with pytest.raises(ValueError, match="do not sum"):
        oracle._check_row_sums(broken, m, ring)

    def nullity_without_gone(lam):
        kept = [r for i, r in enumerate(dlambda_matrix(lam, m, ring).rows)
                if i not in gone]
        return len(kernel_field(Matrix.from_rows(ring, kept, width=m.n)))

    assert any(nullity_without_gone(lam) >= 2
               for lam in _projective(ring, m.n)
               if ring.sum(lam) != ring.zero)
    # twice one row: the kernel is the same, the row sums are not
    doubled = L.reshape(nr, -1).copy()
    doubled[0] = 2 * doubled[0] % 3
    with pytest.raises(ValueError, match="do not sum"):
        oracle._check_row_sums(doubled.reshape(L.shape), m, ring)
    monkeypatch.setattr(oracle, "_dlambda_digit_map",
                        lambda m, ring: (broken, nr, nc))
    with pytest.raises(ValueError, match="do not sum"):
        oracle.scan_resonance(m, ring)


@pytest.mark.parametrize("name", ["braid-K4", "nonfano", "deletedB3",
                                  "olive-samansky", "hessian", "pencil-4"])
@pytest.mark.parametrize("spec", ["F2", "F4", "F9"])
def test_every_catalog_digit_map_passes_the_row_sum_check(name, spec):
    m, ring = catalog(name), make_ring(spec)
    oracle._check_row_sums(oracle._dlambda_digit_map(m, ring)[0], m, ring)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("spec", ["F2", "F3", "F4"])
def test_one_and_two_points_have_no_resonance(n, spec):
    # H is 0 for n = 1, and a line for n = 2, where d_lambda restricted
    # to H has one column: no candidate can reach nullity 2
    m, ring = from_lines(n, [], f"free{n}"), make_ring(spec)
    rep = oracle.scan_resonance(m, ring)
    assert rep.points == () and rep.groups == ()
    assert rep.universe == _kernels.projective_total(ring.cardinality, n)
    for lam in _projective(ring, n):
        assert len(z_of(lam, m, ring)) == 1


# ---------------------------------------------------------------------------
# the batched echelon basis

@st.composite
def stacks(draw):
    """A field and a (B, R, C) stack over it, with zero rows and rows that
    combine two others, so that rank deficits are common."""
    spec = draw(st.sampled_from(["F2", "F3", "F4", "F9"]))
    ring = make_ring(spec)
    q = ring.cardinality
    B, R, C = (draw(st.integers(1, 4)), draw(st.integers(0, 6)),
               draw(st.integers(1, 6)))
    entry = st.integers(0, q - 1)
    mats = []
    for _ in range(B):
        rows = [draw(st.lists(entry, min_size=C, max_size=C))
                for _ in range(R)]
        for i in range(R):
            kind = draw(st.sampled_from(["keep", "keep", "zero", "combine"]))
            if kind == "zero":
                rows[i] = [0] * C
            elif kind == "combine" and R >= 3:
                a, b = draw(st.integers(0, R - 1)), draw(st.integers(0, R - 1))
                s, t = draw(entry), draw(entry)
                rows[i] = [ring.add(ring.mul(s, x), ring.mul(t, y))
                           for x, y in zip(rows[a], rows[b])]
        mats.append(rows)
    return ring, np.array(mats, dtype=np.int64).reshape(B, R, C)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(stacks())
def test_echelon_kernels_equal_kernel_field(case):
    ring, M = case
    K, free = _kernels.echelon_kernels(M, ring)
    B, R, C = M.shape
    assert K.shape == (B, C, C) and free.shape == (B, C)
    for b in range(B):
        want = kernel_field(Matrix.from_rows(ring, M[b].tolist(), width=C))
        assert list(map(tuple, K[b][free[b]].tolist())) == want
        assert not K[b][~free[b]].any()


FIELD_SCANS = [("braid-K4", "F2"), ("braid-K4", "F3"), ("braid-K4", "F4"),
               ("braid-K4", "F5"), ("nonfano", "F2"), ("nonfano", "F3"),
               ("nonfano", "F4"), ("deletedB3", "F2"), ("deletedB3", "F3"),
               ("deletedB3", "F4"), ("olive-samansky", "F2"),
               ("pencil-3", "F3"), ("pencil-3", "F9"), ("pencil-5", "F3")]


@pytest.mark.parametrize("name,spec", FIELD_SCANS)
def test_reported_points_take_z_of_dimension_and_partner(name, spec):
    m, ring = catalog(name), make_ring(spec)
    L, nr, _ = oracle._dlambda_digit_map(m, ring)
    lams, dims = oracle._scan_resonance_field(m, ring, L, nr)
    etas = oracle._partners(L, ring, lams, dims)
    points = oracle.scan_resonance(m, ring).points
    assert points
    assert [(p.lam, p.dim_z) for p in points] == list(
        zip(map(tuple, lams.tolist()), dims.tolist()))
    for p, eta in zip(points, etas):
        basis = z_of(p.lam, m, ring)
        assert p.dim_z == len(basis)
        assert eta == next(b for b in basis if not is_parallel(p.lam, b, ring))


def test_chunked_echelon_forms_give_the_same_report(monkeypatch):
    m, ring = catalog("deletedB3"), make_ring("F3")
    whole = oracle.scan_resonance(m, ring).to_jsonable()
    # chunks of 5 of deletedB3's 19 x 8 systems
    monkeypatch.setattr(oracle, "_HIT_ENTRIES", 5 * 19 * 8)
    calls = []
    real = _kernels.echelon_kernels
    monkeypatch.setattr(_kernels, "echelon_kernels",
                        lambda M, ring: calls.append(len(M)) or real(M, ring))
    small = oracle.scan_resonance(m, ring).to_jsonable()
    for rep in (whole, small):
        rep.pop("seconds")
    assert small == whole
    assert calls == [5] * 11 + [2]  # 57 points

