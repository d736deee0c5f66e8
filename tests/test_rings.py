"""Ring constructors, pair predicates, and exact linear algebra."""

import itertools
from fractions import Fraction

import pytest

from resonance_lab.rings import (ExtensionField, IntegersModN, Matrix,
                                 PrimeField, Rationals, are_dependent,
                                 howell_contains, howell_form, is_parallel,
                                 kernel_field, kernel_modn, make_ring, minors2,
                                 rank_field, rref_field, smith_normal_form)


def test_make_ring_specs():
    assert isinstance(make_ring("Q"), Rationals)
    assert isinstance(make_ring("F7"), PrimeField)
    assert make_ring("F7").p == 7
    f4 = make_ring("F4")
    assert isinstance(f4, ExtensionField)
    assert (f4.p, f4.k) == (2, 2)
    assert make_ring("F9").cardinality == 9
    assert make_ring("F32").cardinality == 32
    z6 = make_ring("Z6")
    assert isinstance(z6, IntegersModN)
    assert z6.n == 6
    with pytest.raises(ValueError):
        make_ring("F6")
    with pytest.raises(ValueError):
        make_ring("banana")


def test_make_ring_rejects_a_modulus_on_a_prime_field():
    assert make_ring("F3^1").spec == "F3"
    for spec in ("F3:5", "F3^1:5"):
        with pytest.raises(ValueError, match="only applies to extension"):
            make_ring(spec)
    assert make_ring("F3^2:10").spec == "F3^2:10"


def test_prime_field_arithmetic():
    f5 = make_ring("F5")
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.neg(2) == 3
    assert f5.inv(3) == 2
    assert f5.sub(1, 3) == 3
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


@pytest.mark.parametrize("spec", ["F4", "F9", "F32"])
def test_extension_field_axioms(spec):
    F = make_ring(spec)
    els = list(F.elements())
    assert len(els) == F.cardinality
    for a in els:
        assert F.mul(a, F.one) == a
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    # multiplicative group is cyclic of order q-1: check orders divide q-1
    q = F.cardinality
    for a in els:
        if a == F.zero:
            continue
        acc = F.one
        for _ in range(q - 1):
            acc = F.mul(acc, a)
        assert acc == F.one


def test_extension_field_embeds_prime_subfield():
    f9 = make_ring("F9")
    f3 = make_ring("F3")
    assert f9.embed(f3, 2) == 2
    assert f9.coerce(-1) == 2  # small negatives name prime-subfield elements
    assert f9.add(f9.coerce(2), f9.coerce(2)) == f9.coerce(1)
    with pytest.raises(ValueError):
        f9.embed(make_ring("F2"), 1)


def test_modn_zero_divisors():
    z6 = make_ring("Z6")
    assert z6.is_zero_divisor(2)
    assert z6.is_zero_divisor(3)
    assert z6.is_zero_divisor(0)
    assert not z6.is_zero_divisor(5)
    assert z6.is_unit(5)
    assert not z6.is_unit(4)
    assert sorted(z6.annihilator_elements(2)) == [3]  # nonzero annihilators


def test_rationals_coerce():
    q = make_ring("Q")
    v = q.coerce_vector([1, -2, "3/2"])
    assert v == (Fraction(1), Fraction(-2), Fraction(3, 2))


def test_minors2_order_and_values():
    q = make_ring("Q")
    ms = minors2((1, 2, 3), (4, 5, 6), q)
    # pairs (1,2),(1,3),(2,3)
    assert ms == [1 * 5 - 2 * 4, 1 * 6 - 3 * 4, 2 * 6 - 3 * 5]


def test_parallel_over_field_iff_multiple():
    f5 = make_ring("F5")
    assert is_parallel((1, 2, 3), (2, 4, 1), f5)
    assert not is_parallel((1, 2, 3), (2, 4, 2), f5)
    assert is_parallel((0, 0), (1, 4), f5)  # zero vector is parallel to all


def test_parallel_over_z4_subtle():
    z4 = make_ring("Z4")
    # both cross products are 0 mod 4, so every minor vanishes
    assert is_parallel((2, 0), (0, 2), z4)
    assert not is_parallel((1, 0), (0, 1), z4)


def test_dependent_vs_parallel_z4():
    z4 = make_ring("Z4")
    # parallel always implies dependent
    assert are_dependent((2, 0), (0, 2), z4)
    # dependent but not parallel: 2*(1,0) + 2*(1,2) = (4,4) = 0 mod 4
    assert are_dependent((1, 0), (1, 2), z4)
    assert not is_parallel((1, 0), (1, 2), z4)


def test_dependent_over_domain_means_parallel():
    q = make_ring("Q")
    for xi, nu in [((1, 2), (2, 4)), ((0, 0), (5, 7))]:
        assert are_dependent(xi, nu, q)
        assert is_parallel(xi, nu, q)
    assert not are_dependent((1, 0), (0, 1), q)


def test_rref_and_rank_field():
    f2 = make_ring("F2")
    M = Matrix.from_rows(f2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    rows, pivots = rref_field(M)
    assert pivots == [0, 1]
    assert rank_field(M) == 2


def test_kernel_field_is_echelon_and_annihilated():
    f3 = make_ring("F3")
    M = Matrix.from_rows(f3, [(1, 2, 0, 1), (0, 0, 1, 2)])
    basis = kernel_field(M)
    assert len(basis) == 2
    for b in basis:
        for row in M.rows:
            assert f3.sum(f3.mul(x, y) for x, y in zip(row, b)) == f3.zero
    # deterministic shape: one basis vector per free column, unit there
    _, pivots = rref_field(M)
    free = [j for j in range(M.ncols) if j not in pivots]
    for i, b in enumerate(basis):
        for j, col in enumerate(free):
            assert b[col] == (f3.one if i == j else f3.zero)


def test_kernel_field_zero_matrix():
    f2 = make_ring("F2")
    M = Matrix.from_rows(f2, [], width=3)
    assert len(kernel_field(M)) == 3


def test_smith_normal_form_divisibility():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    D, U, V = smith_normal_form(rows)
    diag = [D[i][i] for i in range(len(D))]
    for a, b in zip(diag, diag[1:]):
        if b:
            assert b % a == 0
    # U*A*V == D, checked entrywise
    import numpy as np
    assert (np.array(U) @ np.array(rows) @ np.array(V) == np.array(D)).all()


def test_howell_form_canonical_membership():
    # the classic Z4 example: row space of [(2,0),(0,1)] vs [(2,2),(0,1)]
    h1 = howell_form([(2, 0), (0, 1)], 4)
    h2 = howell_form([(2, 2), (0, 1)], 4)
    assert h1 == h2
    assert howell_contains(h1, (2, 3), 4)
    assert not howell_contains(h1, (1, 0), 4)


def test_howell_detects_hidden_vectors():
    # over Z4 the module generated by (2,1) contains (0,2) = 2*(2,1);
    # a naive echelon form would miss it, Howell must expose leading 0 rows
    h = howell_form([(2, 1)], 4)
    assert howell_contains(h, (0, 2), 4)
    assert howell_contains(h, (2, 3), 4)
    assert not howell_contains(h, (1, 1), 4)


def test_kernel_modn_small():
    z4 = make_ring("Z4")
    M = Matrix.from_rows(z4, [(2,)])
    gens = kernel_modn(M)
    got = {tuple(v) for v in gens}
    assert got == {(2,)}
    # kernel of the empty system is everything
    M0 = Matrix.from_rows(z4, [], width=2)
    gens0 = kernel_modn(M0)
    assert howell_contains(gens0, (1, 0), 4)
    assert howell_contains(gens0, (0, 1), 4)


def test_kernel_modn_members_annihilate():
    z6 = make_ring("Z6")
    M = Matrix.from_rows(z6, [(2, 3, 0), (0, 3, 3)])
    for g in kernel_modn(M):
        for row in M.rows:
            assert z6.sum(z6.mul(x, y) for x, y in zip(row, g)) == 0


def test_ring_eq_by_spec():
    assert make_ring("F3") == make_ring("F3")
    assert make_ring("F3") != make_ring("Z3")
