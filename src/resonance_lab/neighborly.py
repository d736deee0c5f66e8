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

import numpy as np

from ._kernels import _projective_walk, projective_canon, projective_total
from .graphs import Graph, is_neighborly
from .matroid import Matroid, incidence_matrix
from .osalg import _line_rows, _minor_graph, z_of
from .rings import (IntegersModN, Matrix, Ring, howell_contains, is_parallel,
                    kernel_field, kernel_modn)

__all__ = [
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

DEFAULT_ELEMENT_CAP = 1_000_000


class CapExceeded(RuntimeError):
    """A scan or enumeration would exceed its hard budget."""


# ---------------------------------------------------------------------------
# K(Gamma)

@dataclass(frozen=True)
class KPredicate:
    """K over Z/N: per-line sums must be zero divisors.

    That condition is not linear, so K is a predicate rather than a module.
    """

    ring: Ring
    x_lines: Tuple[Tuple[int, ...], ...]
    n: int

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
    proper subset of P(K).  When every trivial line is an edge, a weight of
    K off the hyperplane has dim Z_Gamma = 1, and `scan_component`
    eliminates only K ∩ {sum(lambda) = 0} (the coordinate-sum lemma,
    proved in `oracle._sums_hold`).

    Over F_{p^k} every entry of the basis lies in F_p (its encoding is
    below p): it is the RREF kernel of a 0/1 matrix, which row reduction
    over F_p already reaches.  `scan_component` relies on this: its basis
    of K ∩ {sum(lambda) = 0} is an F_p combination of these rows,
    `oracle._restrict` refuses a basis off F_p, and
    `_kernels.scan_nullities` checks the Frobenius premise it gives.
    """
    xg = graph.x_gamma(m)
    if ring.is_field:
        return kernel_field(incidence_matrix(m, xg, ring))
    if isinstance(ring, IntegersModN):
        return KPredicate(ring, xg, m.n)
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
    (lines lex, k ascending within a line, then edges lex), the order of
    the scans' closed form `oracle._zgamma_coeffs`, so the scan kernels and
    this exact path agree entry for entry.
    """
    lam = ring.coerce_vector(lam)
    rows = [r for X in graph.x_gamma(m) for r in _line_rows(lam, X, X, ring)]
    for i, j in sorted(graph.edges):
        row = [ring.zero] * m.n
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
    the remaining vertices (the transitive graphs), pruned by clique
    closure as the partition grows (`_partition_walk`); `is_neighborly`
    then checks each graph the walk emits, and a failure raises
    ValueError.  Otherwise every edge set containing the trivial lines is
    tried and filtered by `is_neighborly`.  full_support drops graphs with a
    cone vertex.  Hard bounds: n <= 12 for partitions (under 1 s for the
    walk on the Hessian), n <= 8 for all graphs; CapExceeded beyond them.
    """
    n = m.n
    if partitions_only:
        if n > 12:
            raise CapExceeded(f"partition enumeration capped at n=12, got {n}")
        candidates = _partition_walk(m, cone_free=full_support)
    else:
        if n > 8:
            raise CapExceeded(f"full graph enumeration capped at n=8, got {n}")
        candidates = _all_graphs(m)
    out = []
    for g in candidates:
        if full_support and g.cone_vertices:
            continue
        if not is_neighborly(g, m):
            if partitions_only:
                raise ValueError(f"partition walk emitted {g!r}, which is "
                                 f"not neighborly for {m.name or m}")
            continue
        if not _k_has_pair(g, m, ring, cap):
            continue
        out.append(g)
    return out


def _partition_walk(m: Matroid, cone_free: bool = False) -> Iterator[Graph]:
    """Partition graphs that pass clique closure, each once.

    Cone sets C come by size, then in `itertools.combinations` order (only
    the empty one when cone_free); for each, the points outside C are put
    into blocks in restricted-growth-string order, the order of
    `set_partitions`.  A nonempty C skips the complete graph (one block or
    none), which C = () emits.  With two or more blocks, C is the graph's
    set of cone vertices and the blocks are its components off C, so no
    graph comes twice.  A set meets C and at most one block exactly when it
    is a clique, so a line X fails clique closure exactly when Y = X - C
    meets two blocks and one of them holds a single point of Y.  Each line
    with |Y| >= 2 is checked once, when its last point is placed, and a
    failing branch is cut there: no partition below it can repair the line.

    A nonempty C is skipped outright when its forced pairs join every point
    off C into one class (`_one_forced_class`).  A line with |Y| = 2 forces
    its two points into one block: in two blocks, each would hold a single
    point of Y, and X would fail clique closure.  Sharing a block is
    transitive, so each union-find class of the forced pairs lies in one
    block of every partition that passes.  When one class holds every point
    off C, such a partition has at most one block, and the walk emits none
    of those for a nonempty C; C = () emits the complete graph.
    """
    verts = range(1, m.n + 1)
    lines = m.all_lines
    for size in range(1 if cone_free else m.n + 1):
        for cone in itertools.combinations(verts, size):
            yield from _cone_partition_graphs(m.n, cone, lines)


def _cone_partition_graphs(n: int, cone: Tuple[int, ...],
                           lines: Sequence[Tuple[int, ...]]) -> List[Graph]:
    """Graphs of one cone set's surviving partitions, in RGS order."""
    rest = [v for v in range(1, n + 1) if v not in cone]
    if cone and _one_forced_class(rest, lines):
        return []
    pos = {v: i for i, v in enumerate(rest)}
    checks: List[List[Tuple[int, ...]]] = [[] for _ in rest]
    for X in lines:
        ys = [pos[v] for v in X if v in pos]
        if len(ys) >= 2:
            checks[ys[-1]].append(tuple(ys))
    cone_edges = [(c, v) for c in cone for v in range(1, n + 1) if v != c]
    label = [0] * len(rest)
    out: List[Graph] = []

    def closed(Y) -> bool:
        counts: Dict[int, int] = {}
        for p in Y:
            counts[label[p]] = counts.get(label[p], 0) + 1
        return len(counts) != 2 or 1 not in counts.values()

    def place(i: int, nblocks: int) -> None:
        if i == len(rest):
            if cone and nblocks <= 1:  # the complete graph, which C = () has
                return
            blocks: List[List[int]] = [[] for _ in range(nblocks)]
            for v, b in zip(rest, label):
                blocks[b].append(v)
            edges = list(cone_edges)
            for b in blocks:
                edges.extend(itertools.combinations(b, 2))
            out.append(Graph.from_edges(n, edges))
            return
        for b in range(nblocks + 1):
            label[i] = b
            if all(closed(Y) for Y in checks[i]):
                place(i + 1, max(nblocks, b + 1))

    place(0, 0)
    return out


def _one_forced_class(rest: Sequence[int],
                      lines: Sequence[Tuple[int, ...]]) -> bool:
    """Whether the lines with exactly two points in rest join all of rest
    into at most one class, by union-find over those pairs."""
    root = {v: v for v in rest}

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    classes = len(rest)
    for X in lines:
        ys = [v for v in X if v in root]
        if len(ys) == 2:
            a, b = find(ys[0]), find(ys[1])
            if a != b:
                root[a] = b
                classes -= 1
    return classes <= 1


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
            total = projective_total(ring.cardinality, dim_k)
            if total > cap:
                capped = True
            else:
                for coeffs in _projective_walk(ring.cardinality, dim_k):
                    if len(pairs) >= max_samples:
                        break
                    lam = ring.combine(coeffs.tolist(), ks, m.n)
                    sol = z_gamma(lam, graph, m, ring)
                    if len(sol) >= 2:
                        eta = next(b for b in sol if not is_parallel(lam, b, ring))
                        pairs.append((lam, eta))
    else:
        # the Howell form of the sub-locus where every line sum is exactly
        # zero: a fast source of members of K
        zero_mod = tuple(kernel_modn(incidence_matrix(m, ks.x_lines, ring)))
        dim_k, k_basis = None, None
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
        if not v1_contains(lam, graph, m, ring, cap=cap):
            raise AssertionError(f"sampled weight {lam} is not in the "
                                 f"component of {graph}")
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

    The graphs are visited in enumeration order, and each gets its carrier
    (the canonical points of V(Gamma)) in one of three ways:

    - the one-block (complete) graph has an empty carrier, with no scan;
    - if a matroid automorphism pi maps an already scanned representative
      Gamma_0 onto Gamma (pi(E(Gamma_0)) = E(Gamma)), the carrier of Gamma
      is {canon(pi.lam) : lam in carrier(Gamma_0)}, where
      (pi.lam)_{pi(i)} = lam_i and canon scales the first nonzero
      coordinate to one;
    - otherwise `scan_component` scans it, and it becomes a representative.

    Why the one-block graph is empty: its edges are all pairs, so Z_Gamma's
    rows contain every 2x2 minor functional lam_i eta_j - lam_j eta_i.
    Over a field their common kernel at lam != 0 is the line through lam,
    so dim Z_Gamma(lam) <= 1 and no weight reaches the carrier's dim >= 2.

    Why carrying is exact: pi permutes the points and maps lines onto
    lines, and pi.(-) permutes coordinates.  A line X is a clique of Gamma
    iff pi(X) is a clique of pi(Gamma), so x_{pi Gamma} = pi(x_Gamma).  The
    line sum of pi.lam over pi(X) is the line sum of lam over X, hence
    K_{pi Gamma} = pi.K_Gamma.  The rows of Z_Gamma(lam) are the line
    equations lam_X eta_k - lam_k eta_X (k in X, X in x_Gamma), the minors
    on the edges and the line sums of x_Gamma; the same rows for pi.lam,
    pi.eta, pi(X), pi(k) and pi(E) take the same values (a minor up to
    sign), so Z_{pi Gamma}(pi.lam) = pi.Z_Gamma(lam), of equal dimension,
    and V(pi Gamma) = pi.V(Gamma).  Scalars commute with coordinate
    permutations, pi.(c lam) = c pi.lam, so canon(pi.lam) is the canonical
    point of the image class, and carried carriers equal scanned ones
    point for point.  Caps are unchanged: the full scan is charged
    first, and a component with dim K <= n never exceeds a cap that q^n
    passed.

    Aut(M) is never enumerated (pencils have n! automorphisms): a
    backtracking search looks for one pi per pair of graphs, and only
    between graphs with equal block sizes, cone count and |x_Gamma|.
    """
    from .oracle import scan_component, scan_resonance  # deferred, cli-level cycle
    if not ring.is_field or ring.cardinality is None:
        raise ValueError("decomposition checks run over finite fields")
    scan = scan_resonance(m, ring, cap=cap)
    scanned = {p.lam for p in scan.points}
    graphs = enumerate_neighborly(m, ring, partitions_only=True)
    xs = {g: frozenset(g.x_gamma(m)) for g in graphs}
    sizes = _pair_line_sizes(m)
    reps: Dict[tuple, List[Tuple[Graph, np.ndarray]]] = {}
    union: set = set()
    pts: Dict[Graph, set] = {}
    per_graph = []
    for g in graphs:
        if len(g.edges) == m.n * (m.n - 1) // 2:
            pset = set()
        else:
            key = (tuple(sorted(map(len, g.blocks))), len(g.cone_vertices),
                   len(xs[g]))
            for g0, carrier in reps.get(key, ()):
                pi = next(_automorphisms_onto(m, sizes, g0, g), None)
                if pi is not None:
                    pset = _carry(carrier, pi, ring)
                    break
            else:
                comp = scan_component(g, m, ring, cap=cap)
                pset = set(comp.carrier)
                carrier = np.array(comp.carrier, dtype=np.int64).reshape(-1, m.n)
                reps.setdefault(key, []).append((g, carrier))
        pts[g] = pset
        union |= pset
        per_graph.append((g, len(pset)))
    violations = []
    for g1, g2 in itertools.permutations(graphs, 2):
        if g1.edges <= g2.edges and xs[g1] <= xs[g2]:
            if not pts[g2] <= pts[g1]:
                violations.append((g1, g2))
    missing = tuple(sorted(scanned - union))
    extra = tuple(sorted(union - scanned))
    return DecompositionReport(
        m.name, ring.spec, len(scanned), len(union),
        not missing and not extra, missing, extra,
        tuple(per_graph), not violations, tuple(violations))


def _carry(carrier: np.ndarray, pi: Tuple[int, ...], ring: Ring) -> set:
    """{canon(pi.lam) : lam a row of carrier}, (pi.lam)_{pi(i)} = lam_i."""
    moved = np.empty_like(carrier)
    moved[:, np.asarray(pi) - 1] = carrier
    return set(map(tuple, projective_canon(moved, ring).tolist()))


def _pair_line_sizes(m: Matroid) -> List[List[int]]:
    """sizes[i][j]: the number of points on the line through i and j (2 for
    a trivial line), 1-indexed."""
    sizes = [[2] * (m.n + 1) for _ in range(m.n + 1)]
    for X in m.lines:
        for i, j in itertools.permutations(X, 2):
            sizes[i][j] = len(X)
    return sizes


def _automorphisms_onto(m: Matroid, sizes: List[List[int]], g0: Graph,
                        g: Graph) -> Iterator[Tuple[int, ...]]:
    """Matroid automorphisms pi with pi(E(g0)) = E(g), lazily, as tuples
    with pi(i) = t[i - 1].

    Points are mapped in order 1..n, and a branch is cut unless it keeps
    the size of the line through each mapped pair, edge versus non-edge,
    and each point's degree and line sizes.  A complete map is yielded only
    after it is checked outright: lines onto lines, edges onto edges.
    """
    n = m.n
    adj0 = [[False] * (n + 1) for _ in range(n + 1)]
    adj1 = [[False] * (n + 1) for _ in range(n + 1)]
    for adj, graph in ((adj0, g0), (adj1, g)):
        for i, j in graph.edges:
            adj[i][j] = adj[j][i] = True
    key0 = [(sum(adj0[v]), sorted(sizes[v])) for v in range(n + 1)]
    key1 = [(sum(adj1[v]), sorted(sizes[v])) for v in range(n + 1)]
    lines = set(m.lines)
    pi = [0] * (n + 1)
    used = [False] * (n + 1)

    def extend(v: int) -> Iterator[Tuple[int, ...]]:
        if v > n:
            if ({tuple(sorted(pi[i] for i in X)) for X in m.lines} == lines
                    and {tuple(sorted((pi[i], pi[j]))) for i, j in g0.edges}
                    == g.edges):
                yield tuple(pi[1:])
            return
        for w in range(1, n + 1):
            if used[w] or key0[v] != key1[w]:
                continue
            if all(sizes[u][v] == sizes[pi[u]][w]
                   and adj0[u][v] == adj1[pi[u]][w] for u in range(1, v)):
                pi[v], used[w] = w, True
                yield from extend(v + 1)
                used[w] = False

    if sorted(key0[1:]) == sorted(key1[1:]):
        yield from extend(1)
