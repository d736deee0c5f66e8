"""Cross-cutting consistency suites.

Exhaustive where the domain is small (short vectors over Z4/Z6/F5, product
pairs in the Grassmann calculus), seeded sampling elsewhere.  Each suite
checks an identity that the rest of the package leans on: the dependence
test against brute force, antisymmetry of the pairing, solution spaces
sitting inside partner sets, found pairs yielding neighborly graphs, the
scan-vs-union decomposition, the depth bridge, and ring axioms for the
Grassmann calculus.
"""

import itertools
import random
from fractions import Fraction

import pytest

from resonance_lab.graphs import is_neighborly, parse_graph
from resonance_lab.linegeom import directrices
from resonance_lab.matroid import catalog
from resonance_lab.neighborly import decomposition_check, z_gamma
from resonance_lab.oracle import scan_resonance
from resonance_lab.osalg import (dlambda_matrix, is_resonant_pair, pair_graph,
                                 wedge_components, wedge_is_zero, z_of)
from resonance_lab.rings import are_dependent, is_parallel, make_ring, minors2
from resonance_lab.schubert import SchubertClass, product, special, unit

BRAID = catalog("braid-K4")
NONFANO = catalog("nonfano")
OSAM = catalog("olive-samansky")
HESSIAN = catalog("hessian")
DB3 = catalog("deletedB3")
PENCIL3 = catalog("pencil-3")

SAMPLES = 10 ** 4


def _rand_vec(ring, n, rng):
    if ring.cardinality is None:
        return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(n))
    return tuple(rng.randrange(ring.cardinality) for _ in range(n))


def _proj_points(space, ring):
    """All projective points of a subspace, leading coefficient one."""
    q = ring.cardinality
    basis = space.basis
    out = []
    for lead in range(len(basis)):
        for rest in itertools.product(range(q), repeat=len(basis) - lead - 1):
            coeffs = [ring.zero] * lead + [ring.one] + list(rest)
            v = [ring.zero] * space.n
            for c, row in zip(coeffs, basis):
                if c != ring.zero:
                    v = [ring.add(x, ring.mul(c, y)) for x, y in zip(v, row)]
            out.append(tuple(v))
    return out


# ---------------------------------------------------------------------------
# dependence versus brute force


def _relations(xi, nu, ring):
    """All (a, b) != (0, 0) with a*xi + b*nu = 0, by enumeration."""
    out = []
    for a in ring.elements():
        for b in ring.elements():
            if a == ring.zero and b == ring.zero:
                continue
            if all(ring.add(ring.mul(a, x), ring.mul(b, y)) == ring.zero
                   for x, y in zip(xi, nu)):
                out.append((a, b))
    return out


@pytest.mark.parametrize("spec", ["F5", "Z4", "Z6"])
def test_dependence_exhaustive_on_pairs(spec):
    ring = make_ring(spec)
    vecs = list(itertools.product(ring.elements(), repeat=2))
    for xi in vecs:
        for nu in vecs:
            rels = _relations(xi, nu, ring)
            dep = are_dependent(xi, nu, ring)
            assert dep == bool(rels), (xi, nu)
            if is_parallel(xi, nu, ring):
                assert dep, (xi, nu)
            if ring.is_field:
                assert dep == is_parallel(xi, nu, ring), (xi, nu)
            for a, b in rels:
                for mnr in minors2(xi, nu, ring):
                    assert ring.mul(a, mnr) == ring.zero
                    assert ring.mul(b, mnr) == ring.zero


@pytest.mark.parametrize("spec", ["F5", "Z4", "Z6"])
def test_dependence_sampled_on_triples(spec):
    ring = make_ring(spec)
    rng = random.Random(11)
    q = ring.cardinality
    for _ in range(SAMPLES):
        xi = tuple(rng.randrange(q) for _ in range(3))
        nu = tuple(rng.randrange(q) for _ in range(3))
        assert are_dependent(xi, nu, ring) == bool(_relations(xi, nu, ring))


def test_dependence_over_rationals_is_parallelism():
    ring = make_ring("Q")
    rng = random.Random(3)
    for _ in range(500):
        xi = _rand_vec(ring, 3, rng)
        if rng.random() < 0.5:
            nu = _rand_vec(ring, 3, rng)
        else:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            nu = tuple(c * x for x in xi)
        assert are_dependent(xi, nu, ring) == is_parallel(xi, nu, ring)


# ---------------------------------------------------------------------------
# antisymmetry of the pairing

PAIRING_FIXTURES = [
    (BRAID, "Q"),
    (BRAID, "F3"),
    (NONFANO, "F2"),
    (DB3, "Z4"),
    (PENCIL3, "Z6"),
]


def _apply(rows, vec, ring):
    return [ring.sum(ring.mul(r[j], vec[j]) for j in range(len(vec)))
            for r in rows]


@pytest.mark.parametrize("m,spec", PAIRING_FIXTURES,
                         ids=[f"{m.name}-{s}" for m, s in PAIRING_FIXTURES])
def test_pairing_is_antisymmetric(m, spec):
    ring = make_ring(spec)
    rng = random.Random(5)
    for _ in range(2000):
        lam = ring.coerce_vector(_rand_vec(ring, m.n, rng))
        eta = ring.coerce_vector(_rand_vec(ring, m.n, rng))
        image = _apply(dlambda_matrix(lam, m, ring).rows, eta, ring)
        swapped = _apply(dlambda_matrix(eta, m, ring).rows, lam, ring)
        assert image == [ring.neg(x) for x in swapped]
        comps = wedge_components(lam, eta, m, ring)
        flipped = wedge_components(eta, lam, m, ring)
        for (x1, v1), (x2, v2) in zip(comps, flipped):
            assert x1 == x2
            assert tuple(v1) == tuple(ring.neg(t) for t in v2)


# ---------------------------------------------------------------------------
# solution spaces consist of partners

COMPONENT_FIXTURES = [
    (BRAID, "F2", "12|34|56"),
    (BRAID, "F3", "12|34|56"),
    (BRAID, "F5", "12|34|56"),
    (NONFANO, "F2", "127|3|4|5|6"),
    (OSAM, "F2", "1234|5678|9α"),
    (HESSIAN, "F3", "123|456|789|αβγ"),
    (PENCIL3, "F3", "1|2|3"),
]

COMPONENT_IDS = [f"{m.name}-{s}" for m, s, _ in COMPONENT_FIXTURES]


def _component_points(m, spec, gtxt, limit=80, seed=23):
    ring = make_ring(spec)
    g = parse_graph(gtxt, m.n)
    pts = _proj_points(directrices(g, m, ring).k, ring)
    if len(pts) > limit:
        pts = random.Random(seed).sample(pts, limit)
    return ring, g, pts


@pytest.mark.parametrize("m,spec,gtxt", COMPONENT_FIXTURES, ids=COMPONENT_IDS)
def test_solution_space_members_are_partners(m, spec, gtxt):
    ring, g, pts = _component_points(m, spec, gtxt)
    assert is_neighborly(g, m)
    for lam in pts:
        for eta in z_gamma(lam, g, m, ring):
            assert wedge_is_zero(lam, eta, m, ring), (lam, eta)


def test_solution_module_members_are_partners_mod_n():
    ring = make_ring("Z4")
    lam = (1, 1, 1, 1, 2, 2, 2, 2)
    eta = (2, 3, 1, 0, 0, 1, 2, 3)
    g = pair_graph(lam, eta, DB3, ring)
    sol = z_gamma(lam, g, DB3, ring)
    assert sol.contains(eta)
    count = 0
    for member in sol.elements(cap=10 ** 6):
        assert wedge_is_zero(lam, member, DB3, ring), member
        count += 1
    assert count > 1


# ---------------------------------------------------------------------------
# graphs of found pairs are neighborly


@pytest.mark.parametrize("m,spec", [(BRAID, "F3"), (NONFANO, "F2"),
                                    (PENCIL3, "F3")],
                         ids=["braid-F3", "nonfano-F2", "pencil3-F3"])
def test_found_pair_graphs_are_neighborly(m, spec):
    ring = make_ring(spec)
    report = scan_resonance(m, ring)
    assert report.points
    for p in report.points:
        basis = z_of(p.lam, m, ring)
        partner = next(v for v in basis if not is_parallel(p.lam, v, ring))
        assert is_resonant_pair(p.lam, partner, m, ring)
        graph = pair_graph(p.lam, partner, m, ring)
        assert is_neighborly(graph, m, mode="clique-closure")


def test_witness_pair_graphs_are_neighborly_mod_n():
    z4 = make_ring("Z4")
    lam, eta = (1, 1, 1, 1, 2, 2, 2, 2), (2, 3, 1, 0, 0, 1, 2, 3)
    assert is_resonant_pair(lam, eta, DB3, z4)
    assert is_neighborly(pair_graph(lam, eta, DB3, z4), DB3,
                         mode="clique-closure")
    z6 = make_ring("Z6")
    lam, eta = (5, 3, 1), (5, 1, 3)
    assert is_resonant_pair(lam, eta, PENCIL3, z6)
    assert is_neighborly(pair_graph(lam, eta, PENCIL3, z6), PENCIL3,
                         mode="clique-closure")


# ---------------------------------------------------------------------------
# scan versus union of components


@pytest.mark.parametrize("m,spec", [
    (BRAID, "F2"), (BRAID, "F3"), (NONFANO, "F2"),
    (PENCIL3, "F2"), (PENCIL3, "F3"), (catalog("pencil-4"), "F2"),
    (BRAID, "F8"), (NONFANO, "F4"),
], ids=["braid-F2", "braid-F3", "nonfano-F2",
        "pencil3-F2", "pencil3-F3", "pencil4-F2", "braid-F8", "nonfano-F4"])
def test_scan_equals_union_of_components(m, spec):
    report = decomposition_check(m, make_ring(spec))
    assert report.equal, (report.missing, report.extra)
    assert report.nesting_ok, report.nesting_violations


# ---------------------------------------------------------------------------
# depth bridge


@pytest.mark.parametrize("m,spec,gtxt", COMPONENT_FIXTURES, ids=COMPONENT_IDS)
def test_depth_matches_solution_dimension(m, spec, gtxt):
    ring, g, pts = _component_points(m, spec, gtxt, seed=29)
    arrangement = directrices(g, m, ring)
    for lam in pts:
        want = len(z_gamma(lam, g, m, ring)) - 1
        assert arrangement.depth(lam) == want, lam


# ---------------------------------------------------------------------------
# Grassmann calculus axioms


def _shapes(k):
    return [(a, b) for a in range(k - 1) for b in range(a + 1)]


def _one(k, shape):
    return SchubertClass.from_terms(k, {shape: 1})


@pytest.mark.parametrize("k", range(2, 9))
def test_grassmann_product_commutes(k):
    shapes = _shapes(k)
    for s1 in shapes:
        for s2 in shapes:
            assert product(_one(k, s1), _one(k, s2)) == \
                product(_one(k, s2), _one(k, s1))


@pytest.mark.parametrize("k", range(3, 9))
def test_grassmann_duality(k):
    top = (k - 2, k - 2)
    for a, b in _shapes(k):
        for c, d in _shapes(k):
            coeff = product(_one(k, (a, b)), _one(k, (c, d))).coefficient(top)
            assert coeff == (1 if (c, d) == (k - 2 - b, k - 2 - a) else 0)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_grassmann_product_associates_exhaustive(k):
    shapes = _shapes(k)
    for s1, s2, s3 in itertools.product(shapes, repeat=3):
        x, y, z = _one(k, s1), _one(k, s2), _one(k, s3)
        assert product(product(x, y), z) == product(x, product(y, z))


def test_grassmann_product_associates_sampled():
    rng = random.Random(19)
    for k in (6, 7, 8):
        shapes = _shapes(k)
        for _ in range(60):
            classes = []
            for _ in range(3):
                terms = {rng.choice(shapes): rng.randint(1, 3),
                         rng.choice(shapes): rng.randint(0, 2)}
                classes.append(SchubertClass.from_terms(k, terms))
            x, y, z = classes
            assert product(product(x, y), z) == product(x, product(y, z))
            assert product(unit(k), x) == x


def test_grassmann_special_classes_match_singletons():
    for k in (4, 5, 6):
        for s in range(k - 1):
            assert special(k, s) == _one(k, (s, 0))
