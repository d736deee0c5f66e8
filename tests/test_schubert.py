"""Two-row Schubert classes on G(2,k) and expected carrier degrees."""

import pytest

from resonance_lab.schubert import (CarrierDegree, SchubertClass,
                                    carrier_degree, dual_pieri, pieri,
                                    product, special, unit)


def test_from_terms_cleanup():
    c = SchubertClass.from_terms(5, {(2, 1): 2, (1, 1): 0, (3, 0): 1})
    assert c.terms == (((3, 0), 1), ((2, 1), 2))
    assert c.coefficient((1, 1)) == 0
    assert not c.is_zero
    assert unit(5).terms == (((0, 0), 1),)


def test_from_terms_rejects_bad_shape():
    with pytest.raises(ValueError):
        SchubertClass.from_terms(5, {(1, 2): 1})
    with pytest.raises(ValueError):
        SchubertClass.from_terms(5, {(4, 0): 1})
    with pytest.raises(ValueError):
        special(4, 3)


def test_pieri_powers_g25():
    s1 = special(5, 1)
    sq = pieri(s1, 1)
    assert dict(sq.terms) == {(2, 0): 1, (1, 1): 1}
    fourth = pieri(pieri(sq, 1), 1)
    assert dict(fourth.terms) == {(3, 1): 3, (2, 2): 2}
    assert fourth.poly_str() == "3*W(3,1) + 2*W(2,2)"
    assert fourth.codimensions() == (4,)
    assert pieri(fourth, 0) == fourth


def test_pieri_truncates_at_the_boundary():
    # W(1,0) * W(3,1) in G(2,5): the first row is already full
    c = pieri(SchubertClass.from_terms(5, {(3, 1): 1}), 1)
    assert dict(c.terms) == {(3, 2): 1}
    assert pieri(SchubertClass.from_terms(5, {(3, 3): 1}), 1).is_zero


def test_dual_pieri():
    assert dict(dual_pieri(special(5, 1)).terms) == {(2, 1): 1}
    assert dict(dual_pieri(dual_pieri(unit(5))).terms) == {(2, 2): 1}
    assert dual_pieri(SchubertClass.from_terms(5, {(3, 1): 1})).is_zero


def test_product_matches_pieri_and_validates():
    s1 = special(5, 1)
    c = SchubertClass.from_terms(5, {(2, 1): 1})
    assert product(c, s1) == pieri(c, 1)
    assert product(s1, c) == pieri(c, 1)
    with pytest.raises(ValueError):
        product(special(5, 1), special(4, 1))


def test_quartic_times_special_two():
    fourth = pieri(pieri(pieri(special(5, 1), 1), 1), 1)
    top = product(fourth, special(5, 2))
    assert dict(top.terms) == {(3, 3): 3}
    assert str(top) == "3*W(3,3) [G(2,5)]"


def test_carrier_degree_four_planes_depth_three():
    cd = carrier_degree([2, 2, 2, 2], 5, 3)
    assert cd.degree == 3
    assert cd.codim_complex == 4
    assert cd.dim_complex == 2
    assert cd.dim_carrier == 1
    assert cd.target == (3, 1)
    assert cd.section_codim == 0
    j = cd.to_jsonable()
    assert j["degree"] == 3 and j["product"]["k"] == 5


def test_carrier_degree_regulus():
    cd = carrier_degree([2, 2, 2], 4, 1)
    assert cd.degree == 2
    assert cd.dim_carrier == 2
    assert cd.target == (2, 2)
    # codimension-one directrices impose nothing on lines
    assert carrier_degree([1, 2, 2, 2], 4, 1).degree == 2


def test_carrier_degree_errors():
    with pytest.raises(ValueError):
        carrier_degree([3, 3, 3], 4, 1)      # codim 6 > dim G(2,4) = 4
    with pytest.raises(ValueError):
        carrier_degree([2, 2, 2, 2], 4, 3)   # expected carrier dim < 1
    with pytest.raises(ValueError):
        carrier_degree([2], 5, 5)            # no admissible target shape


def test_carrier_degree_rejects_a_carrier_larger_than_its_space():
    # every codimension-1 directrix drops: dim complex 4, carrier 5 > 3
    with pytest.raises(ValueError, match="carrier dimension 5 exceeds"):
        carrier_degree([1, 1, 1], 4, 1)
    assert carrier_degree([2, 2], 4, 1).dim_carrier == 3  # the bound itself
