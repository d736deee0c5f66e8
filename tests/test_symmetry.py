"""One component scan per automorphism orbit inside `decomposition_check`.

The references here are test-side: automorphism groups by filtering
`itertools.permutations` (or by a collinearity-preserving backtrack for the
Hessian), permuted weights canonicalized in `Ring` arithmetic, and carriers
from `scan_component` on every graph.  The Hessian over F3 is pinned in
full, each union point checked by `v1_contains`.
"""

import itertools

import numpy as np
import pytest

from resonance_lab import neighborly, oracle
from resonance_lab.graphs import Graph
from resonance_lab.matroid import catalog
from resonance_lab.neighborly import (_automorphisms_onto, _carry,
                                      _pair_line_sizes, decomposition_check,
                                      enumerate_neighborly)
from resonance_lab.oracle import scan_component, scan_resonance
from resonance_lab.rings import make_ring

CARRY_CASES = [("braid-K4", "F3"), ("braid-K4", "F4"), ("nonfano", "F3"),
               ("deletedB3", "F2")]


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def _image(pi, points) -> tuple:
    """pi applied to a sorted point set, pi(i) = pi[i - 1]."""
    return tuple(sorted(pi[i - 1] for i in points))


def _is_automorphism(m, pi) -> bool:
    return {_image(pi, X) for X in m.lines} == set(m.lines)


def _aut_by_permutations(m) -> set:
    return {pi for pi in itertools.permutations(range(1, m.n + 1))
            if _is_automorphism(m, pi)}


def _aut_by_collinearity(m) -> set:
    """Aut(m) by mapping points one at a time and keeping, for every mapped
    triple, collinear versus not; the finished maps are checked outright."""
    on_line = {frozenset(t) for X in m.lines
               for t in itertools.combinations(X, 3)}
    out, pi = set(), {}

    def extend(v):
        if v > m.n:
            cand = tuple(pi[i] for i in range(1, m.n + 1))
            if _is_automorphism(m, cand):
                out.add(cand)
            return
        for w in range(1, m.n + 1):
            if w in pi.values():
                continue
            if all((frozenset((a, b, v)) in on_line)
                   == (frozenset((pi[a], pi[b], w)) in on_line)
                   for a, b in itertools.combinations(range(1, v), 2)):
                pi[v] = w
                extend(v + 1)
                del pi[v]

    extend(1)
    return out


def _canon(lam, ring) -> tuple:
    lead = next(x for x in lam if x != ring.zero)
    u = ring.inv(lead)
    return tuple(ring.mul(u, x) for x in lam)


def _permuted(pi, lam) -> tuple:
    """(pi.lam)_{pi(i)} = lam_i."""
    out = [None] * len(lam)
    for i, x in enumerate(lam):
        out[pi[i] - 1] = x
    return tuple(out)


def _maps_onto(pi, g0, g) -> bool:
    return {_image(pi, e) for e in g0.edges} == g.edges


# ---------------------------------------------------------------------------
# the automorphism search


@pytest.mark.parametrize("name,order", [
    ("braid-K4", 24), ("nonfano", 24), ("deletedB3", 8), ("pencil-5", 120)])
def test_search_finds_every_automorphism(name, order):
    m = catalog(name)
    full = _complete(m.n)
    # one more than expected, so that a search that over-generates stops
    found = list(itertools.islice(
        _automorphisms_onto(m, _pair_line_sizes(m), full, full), order + 1))
    assert len(found) == len(set(found)) == order
    assert set(found) == _aut_by_permutations(m)


def test_hessian_has_432_automorphisms():
    m = catalog("hessian")
    aut = _aut_by_collinearity(m)
    assert len(aut) == 432
    full = _complete(m.n)
    found = itertools.islice(
        _automorphisms_onto(m, _pair_line_sizes(m), full, full), 433)
    assert set(found) == aut


@pytest.mark.parametrize("name,spec", [
    ("braid-K4", "F3"), ("nonfano", "F3"), ("deletedB3", "F2")])
def test_search_agrees_with_permutation_filter_on_graph_pairs(name, spec):
    # the maps found from g0 onto g are exactly the automorphisms carrying
    # E(g0) onto E(g), across every ordered pair of enumerated graphs
    m = catalog(name)
    aut = _aut_by_permutations(m)
    sizes = _pair_line_sizes(m)
    graphs = enumerate_neighborly(m, make_ring(spec))
    linked = 0
    for g0, g in itertools.product(graphs, repeat=2):
        want = {pi for pi in aut if _maps_onto(pi, g0, g)}
        assert set(_automorphisms_onto(m, sizes, g0, g)) == want, (g0, g)
        linked += g0 != g and bool(want)
    assert linked


# ---------------------------------------------------------------------------
# carriers


@pytest.mark.parametrize("name,spec", CARRY_CASES)
def test_carried_carrier_equals_scanned_carrier(name, spec):
    m, ring = catalog(name), make_ring(spec)
    sizes = _pair_line_sizes(m)
    graphs = enumerate_neighborly(m, ring)
    carriers = {g: scan_component(g, m, ring).carrier for g in graphs}
    carried = 0
    for g0, g in itertools.permutations(graphs, 2):
        pi = next(_automorphisms_onto(m, sizes, g0, g), None)
        if pi is None:
            continue
        src = np.array(carriers[g0], dtype=np.int64).reshape(-1, m.n)
        assert _carry(src, pi, ring) == set(carriers[g]), (g0, g)
        # the same image, permuted and scaled in Ring arithmetic
        assert {_canon(_permuted(pi, lam), ring)
                for lam in carriers[g0]} == set(carriers[g])
        carried += bool(carriers[g])
    assert carried


@pytest.mark.parametrize("spec", ["F2", "F3", "F4"])
@pytest.mark.parametrize("name", [
    "braid-K4", "nonfano", "deletedB3", "pencil-3", "pencil-4", "pencil-5",
    "pencil-6", "pencil-7", "pencil-8"])
def test_one_block_graph_has_an_empty_carrier(name, spec):
    m, ring = catalog(name), make_ring(spec)
    comp = scan_component(_complete(m.n), m, ring)
    assert comp.dim_k == m.n
    assert comp.carrier == ()
    assert max(d for d, _ in comp.strata) == 1


@pytest.mark.parametrize("name,spec", CARRY_CASES + [
    ("pencil-4", "F2"), ("pencil-6", "F2")])
def test_report_equals_one_scan_per_graph(name, spec, monkeypatch):
    m, ring = catalog(name), make_ring(spec)
    scans = []
    real_scan = oracle.scan_component

    def counting(g, *args, **kw):
        scans.append(g)
        return real_scan(g, *args, **kw)

    monkeypatch.setattr(oracle, "scan_component", counting)
    carried = decomposition_check(m, ring)
    nscans = len(scans)
    monkeypatch.setattr(neighborly, "_automorphisms_onto",
                        lambda *args: iter(()))
    scanned = decomposition_check(m, ring)
    assert carried == scanned
    assert carried.to_jsonable() == scanned.to_jsonable()
    assert carried.equal and carried.nesting_ok
    ngraphs = len(carried.graphs)
    # every graph but the one-block graph is scanned without the search,
    # and with it strictly fewer are
    assert len(scans) - nscans == ngraphs - 1
    assert nscans < ngraphs - 1


# ---------------------------------------------------------------------------
# the scan set is closed under automorphisms


@pytest.mark.parametrize("name,spec", [
    ("braid-K4", "F3"), ("braid-K4", "F4"), ("nonfano", "F3"),
    ("deletedB3", "F2"), ("deletedB3", "F3"), ("pencil-5", "F3")])
def test_scan_set_is_closed_under_automorphisms(name, spec):
    m, ring = catalog(name), make_ring(spec)
    points = {p.lam for p in scan_resonance(m, ring).points}
    assert points
    for pi in _aut_by_permutations(m):
        assert {_canon(_permuted(pi, lam), ring) for lam in points} == points


def test_hessian_f3_scan_is_the_union_of_its_components(monkeypatch):
    # the paper's headline case: 382 resonant weights, the union of the
    # carriers of the 336 neighborly partition graphs, nested.  Every carrier
    # a scan or a carry produces is recorded in visiting order, and each
    # union point is checked by `v1_contains` on a graph whose carrier holds
    # it, an exact membership test with no elimination of the scans
    m, ring = catalog("hessian"), make_ring("F3")
    carriers = []
    real_scan, real_carry = oracle.scan_component, neighborly._carry

    def scanned(g, *args, **kw):
        comp = real_scan(g, *args, **kw)
        carriers.append(set(comp.carrier))
        return comp

    def carried(*args):
        pset = real_carry(*args)
        carriers.append(pset)
        return pset

    monkeypatch.setattr(oracle, "scan_component", scanned)
    monkeypatch.setattr(neighborly, "_carry", carried)
    rep = decomposition_check(m, ring)
    assert (rep.scan_count, rep.union_count, len(rep.graphs)) == (382, 382, 336)
    assert rep.equal and rep.nesting_ok
    complete = _complete(m.n)
    graphs = [g for g, _ in rep.graphs if g != complete]
    assert len(graphs) == len(carriers)
    assert [len(c) for c in carriers] == [k for g, k in rep.graphs
                                          if g != complete]
    home = {}
    for g, pset in zip(graphs, carriers):
        for lam in pset:
            home.setdefault(lam, g)
    assert len(home) == 382
    for lam, g in home.items():
        assert neighborly.v1_contains(lam, g, m, ring), (lam, g)
