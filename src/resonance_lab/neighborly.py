"""Combinatorial components of the degree-one resonance locus.

A graph on the ground set picks out the lines it fails to cover (`x_gamma`),
a weight space K cut out by the sums over those lines, and for each weight
in K a solution space of pair conditions.  Membership in the component,
exhaustive enumeration of neighborly graphs, generic partners over extension
fields, and the scan-vs-union decomposition identity all live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ._kernels import projective_points, projective_total
from .graphs import Graph, is_neighborly
from .matroid import Matroid, incidence_matrix
from .osalg import _minor_graph, z_of
from .rings import (IntegersModN, Matrix, Ring, howell_contains, is_parallel,
                    kernel_field, kernel_modn)

__all__ = [
    "NeighborlyGraph",
    "CapExceeded",
    "KPredicate",
    "SolutionModule",
    "k_gamma",
    "z_gamma",
    "v1_contains",
    "v1_k_contains",
    "enumerate_neighborly",
    "generic_partner",
    "gamma_of",
    "decomposition_check",
    "component_report",
    "set_partitions",
]

NeighborlyGraph = Graph

DEFAULT_ELEMENT_CAP = 1_000_000


class CapExceeded(RuntimeError):
    """A scan or enumeration would exceed its hard budget."""


# ---------------------------------------------------------------------------
# K(Gamma)

@dataclass(frozen=True)
class KPredicate:
    """K over Z/N: per-line sums must be zero divisors.

    That condition is not linear, so K is a predicate rather than a module;
    `zero_module` is the Howell form of the sub-locus where every line sum
    is exactly zero, handy as a fast source of members.
    """

    ring: Ring
    x_lines: Tuple[Tuple[int, ...], ...]
    n: int
    zero_module: Tuple[tuple, ...]

    def contains(self, xi: Sequence) -> bool:
        xi = self.ring.coerce_vector(xi)
        if len(xi) != self.n:
            raise ValueError("wrong vector length")
        return _in_k(xi, self.x_lines, self.ring)


def k_gamma(graph: Graph, m: Matroid, ring: Ring):
    """Weight space of a graph: kernel basis over a field, KPredicate over Z/N.

    Over a field the zero-divisor condition collapses to "every line sum
    vanishes", the kernel of the incidence rows of x_gamma, and K is cut
    out by those line sums alone.  An empty x_gamma (graph covers every
    line) gives the whole ambient space.

    K need not lie in the hyperplane sum(lambda) = 0: in characteristic p
    the line sums can miss it (braid-K4 with 12|34|56 over F2 has dim K = 3,
    the Hessian with 123|456|789|αβγ over F3 has dim K = 6).  Every resonant
    weight does lie in that hyperplane, so a component's carrier can be a
    proper subset of P(K).
    """
    xg = graph.x_gamma(m)
    M = incidence_matrix(m, xg, ring)
    if ring.is_field:
        return kernel_field(M)
    if isinstance(ring, IntegersModN):
        return KPredicate(ring, xg, m.n, tuple(kernel_modn(M)))
    raise ValueError(f"unsupported ring {ring.spec}")


def _in_k(lam: Sequence, x_lines: Sequence[Tuple[int, ...]], ring: Ring) -> bool:
    """Every line sum over x_gamma is a zero divisor; over a field, zero."""
    return all(ring.is_zero_divisor(ring.sum(lam[i - 1] for i in X))
               for X in x_lines)


# ---------------------------------------------------------------------------
# Z_Gamma(lambda)

def zgamma_rows(lam: Sequence, graph: Graph, m: Matroid, ring: Ring) -> List[tuple]:
    """Linear conditions on a partner eta: per-line vector equations over
    x_gamma plus a vanishing minor for every edge.  Row order is fixed
    (lines lex, k ascending within a line, then edges lex) so the scan
    kernels and the exact path agree entry for entry.
    """
    lam = ring.coerce_vector(lam)
    zero, rows = ring.zero, []
    for X in graph.x_gamma(m):
        lam_x = ring.sum(lam[i - 1] for i in X)
        for k in X:
            row = [zero] * m.n
            for j in X:
                row[j - 1] = ring.neg(lam[k - 1])
            row[k - 1] = ring.sub(lam_x, lam[k - 1])
            rows.append(tuple(row))
    for i, j in sorted(graph.edges):
        row = [zero] * m.n
        row[j - 1] = lam[i - 1]
        row[i - 1] = ring.neg(lam[j - 1])
        rows.append(tuple(row))
    return rows


@dataclass(frozen=True)
class SolutionModule:
    """Z/N solution set: a Howell module of the linear conditions, filtered
    through K membership element by element (K is not linear over Z/N)."""

    ring: Ring
    generators: Tuple[tuple, ...]
    kpred: KPredicate

    def module_contains(self, eta: Sequence) -> bool:
        eta = self.ring.coerce_vector(eta)
        return howell_contains(self.generators, eta, self.ring.characteristic)

    def contains(self, eta: Sequence) -> bool:
        return self.module_contains(eta) and self.kpred.contains(eta)

    def elements(self, cap: Optional[int] = None) -> Iterator[tuple]:
        """Distinct members passing the K filter, deterministic order."""
        R = self.ring
        N = R.characteristic
        g = len(self.generators)
        if g == 0:
            zero = tuple([R.zero] * self.kpred.n)
            if self.kpred.contains(zero):
                yield zero
            return
        total = N ** g
        budget = DEFAULT_ELEMENT_CAP if cap is None else cap
        if total > budget:
            raise CapExceeded(
                f"{total} coefficient tuples exceed the cap {budget}")
        seen = set()
        n = len(self.generators[0])
        for coeffs in itertools.product(range(N), repeat=g):
            t = R.combine(coeffs, self.generators, n)
            if t in seen:
                continue
            seen.add(t)
            if self.kpred.contains(t):
                yield t


def z_gamma(lam: Sequence, graph: Graph, m: Matroid, ring: Ring):
    """Solution space of the pair conditions at lambda, inside K.

    Fields: echelon kernel basis of the line and edge conditions joined with
    the incidence rows of x_gamma.  Z/N: a SolutionModule.  Raises if lambda
    itself is outside K.
    """
    lam = ring.coerce_vector(lam)
    if not _in_k(lam, graph.x_gamma(m), ring):
        raise ValueError("weight lies outside K(graph)")
    rows = zgamma_rows(lam, graph, m, ring)
    if ring.is_field:
        rows += list(incidence_matrix(m, graph.x_gamma(m), ring).rows)
        return kernel_field(Matrix.from_rows(ring, rows, width=m.n))
    if isinstance(ring, IntegersModN):
        gens = kernel_modn(Matrix.from_rows(ring, rows, width=m.n))
        kp = k_gamma(graph, m, ring)
        return SolutionModule(ring, tuple(gens), kp)
    raise ValueError(f"unsupported ring {ring.spec}")


def v1_contains(lam: Sequence, graph: Graph, m: Matroid, ring: Ring,
                cap: Optional[int] = None) -> bool:
    """Membership of lambda in the component of the graph.

    Fields: lambda in K, nonzero, and the solution space has dim >= 2.
    Z/N: some solution passes K membership and is not parallel to lambda;
    the element search is capped (CapExceeded reports the budget).
    """
    lam = ring.coerce_vector(lam)
    if all(x == ring.zero for x in lam):
        return False
    if not _in_k(lam, graph.x_gamma(m), ring):
        return False
    sol = z_gamma(lam, graph, m, ring)
    if ring.is_field:
        return len(sol) >= 2
    return any(not is_parallel(lam, eta, ring) for eta in sol.elements(cap))


def v1_k_contains(lam: Sequence, graph: Graph, m: Matroid, ring: Ring,
                  k: int = 1) -> bool:
    """Depth-k stratum membership over a field: dim of the solution space > k."""
    if not ring.is_field:
        raise ValueError("stratified membership needs a field")
    lam = ring.coerce_vector(lam)
    if all(x == ring.zero for x in lam):
        return False
    if not _in_k(lam, graph.x_gamma(m), ring):
        return False
    return len(z_gamma(lam, graph, m, ring)) > k


# ---------------------------------------------------------------------------
# enumeration

def set_partitions(items: Sequence[int]) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """All partitions of `items` in restricted-growth-string order."""
    items = list(items)
    n = len(items)
    if n == 0:
        yield ()
        return
    a = [0] * n
    while True:
        nblocks = max(a) + 1
        blocks = [[] for _ in range(nblocks)]
        for x, b in zip(items, a):
            blocks[b].append(x)
        yield tuple(tuple(b) for b in blocks)
        i = n - 1
        while i > 0 and a[i] == max(a[:i]) + 1:
            a[i] = 0
            i -= 1
        if i == 0:
            return
        a[i] += 1


def _k_has_pair(graph: Graph, m: Matroid, ring: Ring, cap: int) -> bool:
    """Does K contain a non-parallel pair?  dim >= 2 over a field; over Z/N
    a scan of the ambient cube, comparing each new member of K against the
    members already seen (parallelism is not transitive there)."""
    ks = k_gamma(graph, m, ring)
    if ring.is_field:
        return len(ks) >= 2
    N = ring.characteristic
    if N ** m.n > cap:
        raise CapExceeded(
            f"Z/{N} scan of {N}**{m.n} weights exceeds the cap {cap}")
    seen: List[tuple] = []
    for xi in itertools.product(range(N), repeat=m.n):
        if not any(xi):
            continue
        if not ks.contains(xi):
            continue
        for prev in seen:
            if not is_parallel(prev, xi, ring):
                return True
        seen.append(xi)
    return False


def enumerate_neighborly(m: Matroid, ring: Ring, partitions_only: bool = True,
                         full_support: bool = False,
                         cap: int = DEFAULT_ELEMENT_CAP) -> List[Graph]:
    """Neighborly graphs whose weight space contains a non-parallel pair.

    partitions_only walks every choice of cone-vertex set and partition of
    the remaining vertices (the transitive graphs); otherwise every edge set
    containing the trivial lines is tried.  full_support drops graphs with a
    cone vertex.  Hard bounds: n <= 12 for partitions, n <= 8 for all
    graphs; CapExceeded beyond them.
    """
    n = m.n
    if partitions_only:
        if n > 12:
            raise CapExceeded(f"partition enumeration capped at n=12, got {n}")
        candidates = _partition_graphs(n)
    else:
        if n > 8:
            raise CapExceeded(f"full graph enumeration capped at n=8, got {n}")
        candidates = _all_graphs(m)
    out, seen = [], set()
    for g in candidates:
        if g.edges in seen:
            continue
        seen.add(g.edges)
        if full_support and g.cone_vertices:
            continue
        if not is_neighborly(g, m):
            continue
        if not _k_has_pair(g, m, ring, cap):
            continue
        out.append(g)
    return out


def _partition_graphs(n: int) -> Iterator[Graph]:
    verts = list(range(1, n + 1))
    for size in range(n + 1):
        for cone in itertools.combinations(verts, size):
            rest = [v for v in verts if v not in cone]
            for blocks in set_partitions(rest):
                edges = set()
                for b in blocks:
                    edges.update(itertools.combinations(b, 2))
                for c in cone:
                    edges.update(tuple(sorted((c, v))) for v in verts if v != c)
                yield Graph.from_edges(n, edges)


def _all_graphs(m: Matroid) -> Iterator[Graph]:
    forced = set(m.trivial_lines)
    free = [e for e in itertools.combinations(range(1, m.n + 1), 2)
            if e not in forced]
    for mask in range(2 ** len(free)):
        edges = set(forced)
        for bit, e in enumerate(free):
            if mask >> bit & 1:
                edges.add(e)
        yield Graph.from_edges(m.n, edges)


# ---------------------------------------------------------------------------
# generic partners

def _extension_bound(m: Matroid) -> int:
    return m.n * (m.n - 1) // 2 + len(m.lines)


def generic_partner(lam: Sequence, m: Matroid, ext: Ring) -> tuple:
    """Deterministic partner mu in the solution space over the extension.

    mu must make every line-sum functional and every 2x2 minor functional
    nonzero unless that functional vanishes identically on the solution
    space.  Found by an ordered sweep over basis coefficients; a field with
    more than C(n,2) + #lines elements always succeeds, and failures report
    that bound.
    """
    if not ext.is_field:
        raise ValueError("generic partners need a field")
    lam = ext.coerce_vector(lam)
    basis = z_of(lam, m, ext)
    if not basis:
        raise ValueError("zero weight has no partner")
    active_lines = []
    for X in m.lines:
        if any(ext.sum(b[i - 1] for i in X) != ext.zero for b in basis):
            active_lines.append(X)
    active_pairs = []
    for i, j in itertools.combinations(range(m.n), 2):
        fn = lambda v: ext.sub(ext.mul(lam[i], v[j]), ext.mul(lam[j], v[i]))
        if any(fn(b) != ext.zero for b in basis):
            active_pairs.append((i, j))
    bound = _extension_bound(m)
    pool = ext.elements() if ext.cardinality is not None else range(bound + 2)
    for coeffs in itertools.product(pool, repeat=len(basis)):
        if not any(c != ext.zero for c in coeffs):
            continue
        mu = ext.combine(coeffs, basis, m.n)
        if any(ext.sum(mu[i - 1] for i in X) == ext.zero for X in active_lines):
            continue
        if any(ext.sub(ext.mul(lam[i], mu[j]), ext.mul(lam[j], mu[i]))
               == ext.zero for i, j in active_pairs):
            continue
        return mu
    raise ValueError(
        f"no generic partner over {ext.spec}; any field with more than "
        f"{bound} elements is guaranteed to work")


def gamma_of(lam: Sequence, m: Matroid, ext: Ring) -> Graph:
    """Minor graph of (lambda, generic partner); complete when dim Z = 1."""
    lam = ext.coerce_vector(lam)
    mu = generic_partner(lam, m, ext)
    return _minor_graph(lam, mu, ext)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ComponentReport:
    graph: Graph
    ring_spec: str
    dim_k: Optional[int]
    k_basis: Optional[Tuple[tuple, ...]]
    zero_module: Optional[Tuple[tuple, ...]]
    sample_pairs: Tuple[Tuple[tuple, tuple], ...]
    support: Tuple[int, ...]
    search_capped: bool = False

    def to_jsonable(self) -> dict:
        enc = lambda v: [str(x) for x in v]
        return {
            "graph": {"n": self.graph.n,
                      "edges": sorted(map(list, self.graph.edges)),
                      "blocks": sorted(map(list, self.graph.blocks))},
            "ring": self.ring_spec,
            "dim_K": self.dim_k,
            "K_basis": None if self.k_basis is None
            else [enc(b) for b in self.k_basis],
            "zero_module": None if self.zero_module is None
            else [enc(b) for b in self.zero_module],
            "sample_pairs": [[enc(a), enc(b)] for a, b in self.sample_pairs],
            "support": list(self.support),
            "search_capped": self.search_capped,
        }


def component_report(graph: Graph, m: Matroid, ring: Ring,
                     max_samples: int = 2,
                     cap: int = 100_000) -> ComponentReport:
    """K data for a graph plus a few verified resonant pairs from it."""
    ks = k_gamma(graph, m, ring)
    pairs: List[Tuple[tuple, tuple]] = []
    capped = False
    if ring.is_field:
        dim_k, k_basis, zero_mod = len(ks), tuple(ks), None
        if ring.cardinality is not None and dim_k:
            if projective_total(ring.cardinality, dim_k) > cap:
                capped = True
            else:
                for coeffs in projective_points(ring.cardinality, dim_k):
                    if len(pairs) >= max_samples:
                        break
                    lam = ring.combine(coeffs, ks, m.n)
                    sol = z_gamma(lam, graph, m, ring)
                    if len(sol) >= 2:
                        eta = next(b for b in sol if not is_parallel(lam, b, ring))
                        pairs.append((lam, eta))
    else:
        dim_k, k_basis, zero_mod = None, None, ks.zero_module
        try:
            base = SolutionModule(ring, zero_mod, ks)
            for lam in base.elements(cap):
                if len(pairs) >= max_samples:
                    break
                if all(x == ring.zero for x in lam):
                    continue
                sol = z_gamma(lam, graph, m, ring)
                eta = next((e for e in sol.elements(cap)
                            if not is_parallel(lam, e, ring)), None)
                if eta is not None:
                    pairs.append((lam, eta))
        except CapExceeded:
            capped = True
    for lam, _ in pairs:
        assert v1_contains(lam, graph, m, ring, cap=cap)
    if k_basis:
        supp = sorted({i + 1 for b in k_basis for i, x in enumerate(b)
                       if x != ring.zero})
    elif zero_mod:
        supp = sorted({i + 1 for b in zero_mod for i, x in enumerate(b)
                       if x != ring.zero})
    else:
        supp = []
    return ComponentReport(graph, ring.spec, dim_k, k_basis, zero_mod,
                           tuple(pairs), tuple(supp), capped)


# ---------------------------------------------------------------------------
# decomposition

@dataclass(frozen=True)
class DecompositionReport:
    matroid_name: str
    ring_spec: str
    scan_count: int
    union_count: int
    equal: bool
    missing: Tuple[tuple, ...]  # scanned but in no component
    extra: Tuple[tuple, ...]    # in a component but not scanned
    graphs: Tuple[Tuple[Graph, int], ...]
    nesting_ok: bool
    nesting_violations: Tuple[Tuple[Graph, Graph], ...]

    def to_jsonable(self) -> dict:
        return {
            "matroid": self.matroid_name,
            "ring": self.ring_spec,
            "scan_count": self.scan_count,
            "union_count": self.union_count,
            "equal": self.equal,
            "missing": [list(map(str, v)) for v in self.missing],
            "extra": [list(map(str, v)) for v in self.extra],
            "graphs": [{"blocks": sorted(map(list, g.blocks)), "points": c}
                       for g, c in self.graphs],
            "nesting_ok": self.nesting_ok,
        }


def decomposition_check(m: Matroid, ring: Ring,
                        cap: Optional[int] = None) -> DecompositionReport:
    """Brute-force resonance scan vs. the union of graph components.

    Also checks monotonicity on every enumerated comparable pair: fewer
    edges together with a smaller x_gamma can only grow the component.
    """
    from .oracle import scan_component, scan_resonance  # deferred, cli-level cycle
    if not ring.is_field or ring.cardinality is None:
        raise ValueError("decomposition checks run over finite fields")
    scan = scan_resonance(m, ring, cap=cap)
    scanned = {p.lam for p in scan.points}
    graphs = enumerate_neighborly(m, ring, partitions_only=True)
    union: set = set()
    pts: Dict[Graph, set] = {}
    per_graph = []
    for g in graphs:
        comp = scan_component(g, m, ring, cap=cap)
        pset = {lam for lam, _ in comp.points}
        pts[g] = pset
        union |= pset
        per_graph.append((g, len(pset)))
    violations = []
    for g1, g2 in itertools.permutations(graphs, 2):
        if g1.edges <= g2.edges and set(g1.x_gamma(m)) <= set(g2.x_gamma(m)):
            if not pts[g2] <= pts[g1]:
                violations.append((g1, g2))
    missing = tuple(sorted(scanned - union))
    extra = tuple(sorted(union - scanned))
    return DecompositionReport(
        m.name, ring.spec, len(scanned), len(union),
        not missing and not extra, missing, extra,
        tuple(per_graph), not violations, tuple(violations))
