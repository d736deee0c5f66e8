"""Brute-force ground truth: exhaustive weight scans, component
stratification, vanishing-form interpolation, and the regulus demo.

Scans classify one representative per projective class over fields (first
nonzero coordinate one) and every nonzero tuple over Z/N.  Over a field a
weight is resonant iff its kernel nullity is at least 2, and a weight whose
coordinate sum is nonzero has nullity exactly 1 (proof in
`_scan_resonance_field`), so the kernel eliminates only the projective
points of the hyperplane of sum zero, q times fewer than all of them.
Each reported field weight's Z(lambda) then comes from one batched
reduced row echelon form of its d_lambda (`_kernels.echelon_kernels`, the
basis `kernel_field` gives); its dimension must equal the kernel nullity.
Over Z/N a weight is resonant iff Z(lambda) is larger than its parallel
locus P(lambda); both split over the prime-power factors p^k of N, so the
batched kernel decides every tuple of each factor ring once, and a weight
is reported when some factor of it is resonant.  The kernel eliminates
d_lambda alone: P(lambda) has a closed form, cut out by a row module of
length (n - 1)(k - v) with v the least p-adic valuation of lambda's
coordinates (proof in `_resonant_mask`).  Each reported Z/N point's
Z(lambda) is then computed once on the exact module path and must hold a
partner that is not parallel to lambda.
Over Z/N the reported weights go in chunks of `_SMITH_CHUNK` to
`_kernels._smith_kernels`, which replays the integer Smith form and the
Howell form of `kernel_modn` on the whole chunk in numpy and returns,
weight for weight, the same Howell generators; each weight's partner is
the first of them with a nonzero 2x2 minor against lambda, picked for the
chunk in one array pass.  Every point's partner eta is then checked by
evaluating a_lambda ∧ a_eta directly, line by line over all points at
once through the ring's tables, and the same eta picks the point's graph
(`_group_by_graph`, which reads nothing of the Smith or Howell forms).
All caps are explicit; RESONANCE_LAB_CAP overrides the default
budget.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .graphs import Graph
from .linegeom import Subspace, depth as geom_depth, span
from .matroid import Matroid
from .neighborly import CapExceeded, k_gamma, zgamma_rows
from .osalg import dlambda_matrix
from .osalg import is_resonant  # noqa: F401  perfbench/selftest.py reads oracle.is_resonant
from .rings import (IntegersModN, Matrix, Ring, kernel_field,
                    prime_power_factors, rank_field)

__all__ = [
    "DEFAULT_CAP",
    "ScanPoint",
    "ScanReport",
    "scan_resonance",
    "ComponentScan",
    "scan_component",
    "FormFit",
    "fit_forms",
    "RegulusReport",
    "regulus_check",
]

DEFAULT_CAP = 10 ** 8


def _budget(cap: Optional[int]) -> int:
    if cap is not None:
        return cap
    env = os.environ.get("RESONANCE_LAB_CAP")
    return int(env) if env else DEFAULT_CAP


# ---------------------------------------------------------------------------
# resonance scans

@dataclass(frozen=True)
class ScanPoint:
    lam: tuple
    dim_z: Optional[int] = None      # fields
    witness: Optional[tuple] = None  # Z/N partner

    def to_jsonable(self) -> dict:
        d = {"lambda": list(self.lam)}
        if self.dim_z is not None:
            d["dim_Z"] = self.dim_z
        if self.witness is not None:
            d["witness"] = list(self.witness)
        return d


@dataclass(frozen=True)
class ScanReport:
    """A scan's resonant points and their graph groups.  `universe` counts
    the weights the scan classified: every projective weight of F_q^n, or
    every nonzero tuple of (Z/N)^n.  Over a field the kernel eliminates only
    those of the hyperplane of sum zero and classifies the rest by the
    coordinate-sum lemma."""
    matroid_name: str
    ring_spec: str
    universe: int
    points: Tuple[ScanPoint, ...]
    groups: Tuple[Tuple[Graph, Tuple[tuple, ...]], ...]
    seconds: float
    cap: int

    def to_jsonable(self) -> dict:
        return {
            "matroid": self.matroid_name,
            "ring": self.ring_spec,
            "universe": self.universe,
            "resonant_count": len(self.points),
            "points": [p.to_jsonable() for p in self.points],
            "groups": [{"graph": sorted(map(list, g.blocks)),
                        "points": [list(v) for v in pts]}
                       for g, pts in self.groups],
            "seconds": round(self.seconds, 3),
            "cap": self.cap,
        }


def scan_resonance(m: Matroid, ring: Ring, cap: Optional[int] = None,
                   jobs: int = 1) -> ScanReport:
    """Classify every nonzero weight of a finite ring as resonant or not.

    Fields classify one representative per projective class.  The digit
    kernel eliminates only the classes of the hyperplane of sum zero; every
    other class has dim Z(lambda) = 1 (proof in `_scan_resonance_field`).
    Z/N walks all nonzero tuples in `itertools.product` order and reports a
    tuple when the batched kernel over some prime-power factor calls its
    image resonant; only the reported tuples take the exact module path,
    for their partner.  Every reported point's partner is verified by
    direct wedge evaluation.  Scans run in one thread: `jobs` stays only
    because the benchmark harness passes `jobs=1`, and any other value
    raises `ValueError`.
    """
    if jobs != 1:
        raise ValueError(f"scans run in one thread, not jobs={jobs}")
    t0 = time.perf_counter()
    budget = _budget(cap)
    if ring.cardinality is None:
        raise ValueError("exhaustive scans need a finite ring")
    if ring.cardinality ** m.n > budget:
        raise CapExceeded(
            f"{ring.cardinality}**{m.n} weights exceed the budget {budget}")
    if ring.is_field:
        points, etas = _scan_resonance_field(m, ring)
        universe = _kernels.projective_total(ring.cardinality, m.n)
    elif isinstance(ring, IntegersModN):
        points, etas = _scan_resonance_modn(m, ring)
        universe = ring.cardinality ** m.n - 1
    else:
        raise ValueError(f"unsupported ring {ring.spec}")
    groups = _group_by_graph([p.lam for p in points], etas, m, ring)
    return ScanReport(m.name, ring.spec, universe, tuple(points), groups,
                      time.perf_counter() - t0, budget)


def _dlambda_digit_map(m: Matroid, ring: Ring) -> Tuple[np.ndarray, int, int]:
    """Digit map of lambda -> d_lambda over the unit basis of R^n."""
    basis = [tuple(int(j == i) for j in range(m.n)) for i in range(m.n)]
    return _kernels.build_digit_map(
        lambda lam: dlambda_matrix(lam, m, ring).rows, basis, ring, m.n)


def _scan_resonance_field(m: Matroid, ring: Ring
                          ) -> Tuple[List[ScanPoint], List[tuple]]:
    """The resonant weights of a field scan and their partners.

    Only the hyperplane H = {s(lambda) = 0} is eliminated, s the coordinate
    sum, because no weight off H is resonant.  Proof: for a point k, sum
    the rows (X, k) of d_lambda over the lines X through k, trivial lines
    included, where the row (X, min X), which d_lambda leaves out, is minus
    the sum of the other rows of X (the terms lambda_X eta_j - lambda_j
    eta_X sum to zero over j in X).  Each point j != k lies on exactly one
    line with k, so the lines through k cover the others once and
    sum_{X ∋ k} lambda_X = r_k lambda_k + s(lambda) - lambda_k, with r_k
    the number of lines through k.  The sum is therefore
    eta_k (r_k lambda_k + s(lambda) - lambda_k)
    - lambda_k (r_k eta_k + s(eta) - eta_k) = s(lambda) eta_k
    - lambda_k s(eta).  So d_lambda eta = 0 gives s(lambda) eta =
    s(eta) lambda.  If s(lambda) != 0, Z(lambda) lies on the line through
    lambda, which it contains, and the nullity is exactly 1.  If lambda is
    in H and nonzero, s(eta) lambda = 0 forces s(eta) = 0, so Z(lambda)
    lies in H.  Both hold over every field.  `_check_row_sums` checks the
    identity on the digit map once per call and raises `ValueError` if it
    fails.

    H is scanned in the basis e_i - e_n, i < n: the candidate c stands for
    lambda = (c_1, ..., c_{n-1}, -s(c)), and the columns of d_lambda are
    taken in the same basis (`_hyperplane_map`).  The nullity of d_lambda E
    is dim (Z(lambda) ∩ H) = dim Z(lambda).  The kernel's premises hold:
    d_lambda E c = d_lambda lambda = 0 with as many columns as coordinates,
    and E has integer entries, so the map still commutes with the
    Frobenius.  lambda's first nonzero coordinate is c's, a one, so lambda
    is a canonical ambient point, and lambda and c order alike (by the
    leading one's position, then lexicographically, as lambda_n follows
    from c), so the hits come in ambient candidate order, the order of the
    report.  Each hit's Z(lambda) then comes from one batched
    reduced row echelon form of its ambient d_lambda
    (`_kernels.echelon_kernels`), exactly `kernel_field`'s basis; its
    dimension must equal the kernel nullity, and the partner is the first
    basis vector not parallel to lambda.
    """
    L, nr, _ = _dlambda_digit_map(m, ring)
    _check_row_sums(L, m, ring)
    n, q = m.n, ring.cardinality
    if n == 1:  # H = 0
        return [], []
    total = _kernels.projective_total(q, n - 1)
    nullities = _kernels.scan_nullities(_hyperplane_map(L, ring, n, nr), ring,
                                        n - 1, nr, n - 1, 0, total)
    hits = np.flatnonzero(nullities >= 2)
    coords = _kernels.decode_candidates(hits, q, n - 1)
    to_ambient = np.hstack([np.eye(n - 1, dtype=np.intp),
                            np.full((n - 1, 1), ring.neg(ring.one))])
    lams = _kernels.ring_product(coords, to_ambient, ring)
    dims = nullities[hits]
    etas = []
    for lo in range(0, len(lams), _ECHELON_CHUNK):
        hi = lo + _ECHELON_CHUNK
        etas += _echelon_partners(L, m, ring, lams[lo:hi], dims[lo:hi])
    points = [ScanPoint(lam, dim_z=d)
              for lam, d in zip(map(tuple, lams.tolist()), dims.tolist())]
    return points, etas


def _echelon_partners(L: np.ndarray, m: Matroid, ring: Ring,
                      lams: np.ndarray, dims: np.ndarray) -> List[tuple]:
    """For each row of lams, the first vector of its Z(lambda) basis (the
    one `kernel_field` gives) that is not parallel to lambda, from one
    batched elimination of the d_lambda; raises `ValueError` unless each
    basis has dims[b] vectors."""
    n = m.n
    mats = _kernels._field_systems(L, ring, lams, n)
    K, free = _kernels.echelon_kernels(mats, ring)
    found = free.sum(1)
    bad = np.flatnonzero(found != dims)
    if bad.size:
        b = bad[0]
        lam = tuple(lams[b].tolist())
        raise ValueError(f"kernel nullity {dims[b]} of {lam} disagrees with "
                         f"dim Z = {found[b]}")
    moving = free & _minors(np.repeat(lams, n, axis=0), K.reshape(-1, n),
                            ring).any(1).reshape(free.shape)
    return list(map(tuple, K[np.arange(len(K)), moving.argmax(1)].tolist()))


def _row_sum_matrix(m: Matroid) -> np.ndarray:
    """The (n, R) 0/±1 matrix T whose row k sums the rows (X, k) of
    d_lambda over the lines X through k: +1 at each row (X, k), and -1 at
    every row of X when k = min X, whose own row d_lambda leaves out."""
    rows = [(X, k) for X in m.all_lines for k in X[1:]]
    T = np.zeros((m.n, len(rows)), dtype=np.int64)
    for r, (X, k) in enumerate(rows):
        T[k - 1, r] += 1
        T[X[0] - 1, r] -= 1
    return T


def _check_row_sums(L: np.ndarray, m: Matroid, ring: Ring) -> None:
    """Raise `ValueError` unless T d_lambda = s(lambda) I - lambda 1^T for
    every weight, with T = `_row_sum_matrix(m)` and L the digit map of
    d_lambda: row k of the right side is eta -> s(lambda) eta_k - lambda_k
    s(eta).  Both sides are F_p-linear in lambda's digits, so the identity
    holds iff it holds at each unit digit x^t e_i, where the digit t' of the
    right side's entry (k, j) is [t' = t] ([k = j] - [k = i])."""
    p, kext, _ = _kernels.field_params(ring)
    n = m.n
    T = _row_sum_matrix(m)
    got = T @ L.reshape(T.shape[1], n * kext * n * kext) % p
    eye, digit = np.eye(n, dtype=np.int64), np.eye(kext, dtype=np.int64)
    # want[k, j, t', i, t]
    want = ((eye[:, :, None, None, None] - eye[:, None, None, :, None])
            * digit[None, None, :, None, :]) % p
    if (got != want.reshape(n, -1)).any():
        raise ValueError("the rows of d_lambda do not sum to s(lambda) eta_k "
                         "- lambda_k s(eta) over the lines through k")


def _hyperplane_map(L: np.ndarray, ring: Ring, n: int, nr: int) -> np.ndarray:
    """The digit map of c -> d_lambda E over F_q^(n-1), lambda = E c with E
    the columns e_i - e_n (i < n), from the digit map L of d_lambda: the
    digits of E c and the columns of d_lambda E are both differences, and
    F_q subtracts digit by digit mod p."""
    p, kext, _ = _kernels.field_params(ring)
    A = L.reshape(nr, n, kext, n, kext)  # (row, column j, t', basis i, t)
    A = A[:, :-1] - A[:, -1:]
    A = A[:, :, :, :-1] - A[:, :, :, -1:]
    return (A % p).reshape(nr * (n - 1) * kext, (n - 1) * kext)


def _scan_resonance_modn(m: Matroid, ring: IntegersModN
                         ) -> Tuple[List[ScanPoint], List[tuple]]:
    N, n = ring.n, m.n
    powers = np.arange(n - 1, -1, -1, dtype=np.int64)
    factors = [(p ** k, _resonant_mask(m, IntegersModN(p ** k)))
               for p, k in prime_power_factors(N)]
    hits = []
    for lo in range(1, N ** n, _WALK_BLOCK):
        gs = np.arange(lo, min(lo + _WALK_BLOCK, N ** n), dtype=np.int64)
        coords = _kernels._product_digits(gs, N, n)
        hit = np.zeros(gs.size, dtype=bool)
        for q, mask in factors:
            hit |= mask[(coords % q) @ q ** powers]
        hits.append(coords[hit])
    hits = np.concatenate(hits)
    L, nr, nc = _dlambda_digit_map(m, ring)
    points, etas = [], []
    for lo in range(0, len(hits), _SMITH_CHUNK):
        chunk = hits[lo:lo + _SMITH_CHUNK]
        gens = _kernels._smith_kernels(L, ring, nr, nc, chunk)
        # every generator of the chunk in one array, with its weight's row
        flat = [g for zb in gens for g in zb]
        owner = np.repeat(np.arange(len(gens)), [len(zb) for zb in gens])
        moving = _minors(chunk[owner], np.reshape(flat, (-1, n)),
                         ring).any(1)
        # the first generator of each weight with a nonzero minor
        first = np.flatnonzero(moving)
        owners, at = np.unique(owner[first], return_index=True)
        if owners.size < len(gens):
            b = np.setdiff1d(np.arange(len(gens)), owners)[0]
            lam = tuple(chunk[b].tolist())
            raise ValueError(f"the batched kernel calls {lam} resonant, "
                             f"which disagrees with its Howell generators")
        for lam, i in zip(map(tuple, chunk.tolist()), first[at].tolist()):
            points.append(ScanPoint(lam, witness=flat[i]))
            etas.append(flat[i])
    return points, etas


_WALK_BLOCK = 1024
# reported field weights per batched echelon form: a scan of pencil-n
# reports every point of H, and one (B, R, n) stack of them holds B * R * n
# intp entries
_ECHELON_CHUNK = 4096
# reported weights per batched Smith replay: one pass of the modn-scan
# benchmark workload peaks at 33.8 MB with chunks of 128 and 41.7 MB with
# chunks of 1024, against 33.7 MB with one Smith form per weight
_SMITH_CHUNK = 128


def _resonant_mask(m: Matroid, ring: IntegersModN) -> np.ndarray:
    """Resonance of every tuple of (Z/p^k)^n, in `itertools.product` order.

    Each row of d_lambda is a sum of 2x2 minors of [lambda | eta], so the
    parallel locus P(lambda), cut out by the minors rows, lies inside
    Z(lambda), and lambda is resonant iff |Z(lambda)| > |P(lambda)|, i.e.
    iff d_lambda has a shorter row module than the minors rows.  That module
    has length (n - 1)(k - v), where v is the least valuation of lambda's
    coordinates (v = k for lambda = 0).  Proof: scale lambda by a unit so
    that lambda_i0 = p^v and write lambda_j = p^v mu_j.  The minors through
    i0 are the n - 1 rows r_j = p^v (eta_j - mu_j eta_i0), each alone in
    its column j, so of length k - v each; every other minor is a
    combination of them, lambda_i eta_j - lambda_j eta_i = mu_i r_j -
    mu_j r_i.  Over a field (k = 1) this reads rank d_lambda < n - 1.
    """
    k = _kernels.chain_params(ring)[1]
    L, nr, nc = _dlambda_digit_map(m, ring)
    z_len = _kernels.scan_lengths(L, ring, m.n, nr, nc, 0, ring.n ** m.n)
    return z_len < (m.n - 1) * (k - _kernels._min_valuations(ring, m.n))


def _minors(lam: np.ndarray, eta: np.ndarray, ring: Ring) -> np.ndarray:
    """The 2x2 minors lam_i eta_j - lam_j eta_i, i < j in
    `np.triu_indices` order, of each row pair of lam and eta (P, n), through
    the ring's add/mul/neg tables."""
    add, mul, neg = _kernels._ring_tables(ring)[:3]
    lam = np.asarray(lam, dtype=add.dtype)
    eta = np.asarray(eta, dtype=add.dtype)
    i, j = np.triu_indices(lam.shape[1], 1)
    return add[mul[lam[:, i], eta[:, j]], neg[mul[lam[:, j], eta[:, i]]]]


def _group_by_graph(lams: Sequence, etas: Sequence, m: Matroid, ring: Ring
                    ) -> Tuple[Tuple[Graph, Tuple[tuple, ...]], ...]:
    """Group the points lams by the graph of their partners etas, the
    edges (i, j) where the minor lam_i eta_j - lam_j eta_i vanishes.

    One pass over all points through the ring's tables, for fields and Z/N
    alike, reading nothing but lams and etas.  a_lambda ∧ a_eta is
    evaluated line by line, lambda_X eta_k - lambda_k eta_X for k in X minus
    its minimum, as `osalg.wedge_components` does; like `osalg.pair_graph`
    it raises ValueError unless the wedge vanishes and eta is not parallel
    to lambda (some minor is nonzero).  The points are grouped by their
    packed edge sets, in report order, one `Graph` per group, and the
    groups sorted by the graph's repr.
    """
    n = m.n
    if not len(lams):
        return ()
    add, mul, neg = _kernels._ring_tables(ring)[:3]
    # element codes in the tables' own dtype keep the gathers' operands small
    lam = np.asarray(lams, dtype=add.dtype).reshape(-1, n)
    eta = np.asarray(etas, dtype=add.dtype).reshape(-1, n)
    wedge = np.zeros(len(lam), dtype=bool)
    for X in m.all_lines:
        cols = [i - 1 for i in X]
        lam_X, eta_X = lam[:, cols[0]], eta[:, cols[0]]
        for c in cols[1:]:
            lam_X, eta_X = add[lam_X, lam[:, c]], add[eta_X, eta[:, c]]
        for k in cols[1:]:
            wedge |= add[mul[lam_X, eta[:, k]],
                         neg[mul[lam[:, k], eta_X]]] != 0
    vanish = _minors(lam, eta, ring) == 0
    if (wedge | vanish.all(1)).any():
        raise ValueError("pair is not resonant")
    iu, ju = np.triu_indices(n, 1)
    edges = list(zip((iu + 1).tolist(), (ju + 1).tolist()))
    # a resonant pair's graph always picks up every trivial line
    for t in m.trivial_lines:
        assert vanish[:, edges.index(t)].all(), \
            f"trivial line {t} missing from pair graph"
    _, first, group = np.unique(np.packbits(vanish, axis=1), axis=0,
                                return_index=True, return_inverse=True)
    order = np.argsort(group.ravel(), kind="stable").tolist()
    ends = np.cumsum(np.bincount(group.ravel())).tolist()
    # the caller's own tuples: the report keeps no second copy of its points
    out = [(Graph.from_edges(n, [edges[e] for e in np.flatnonzero(vanish[f])]),
            tuple(lams[i] for i in order[lo:hi]))
           for f, lo, hi in zip(first.tolist(), [0] + ends, ends)]
    return tuple(sorted(out, key=lambda t: repr(t[0])))


# ---------------------------------------------------------------------------
# component scans

@dataclass(frozen=True)
class ComponentScan:
    graph: Graph
    matroid_name: str
    ring_spec: str
    dim_k: int
    universe: int
    strata: Tuple[Tuple[int, int], ...]   # (dim Z_Gamma, count), dim ascending
    points: Tuple[Tuple[tuple, int], ...]  # carrier points (canonical ambient, dim)
    seconds: float
    cap: int

    @property
    def carrier(self) -> Tuple[tuple, ...]:
        return tuple(lam for lam, _ in self.points)

    def depth_strata(self) -> Tuple[Tuple[int, int], ...]:
        """Same counts keyed by depth = dim Z_Gamma - 1."""
        return tuple((d - 1, c) for d, c in self.strata)

    def to_jsonable(self) -> dict:
        return {
            "graph": sorted(map(list, self.graph.blocks)),
            "matroid": self.matroid_name,
            "ring": self.ring_spec,
            "dim_K": self.dim_k,
            "universe": self.universe,
            "strata": [{"dim_Z": d, "count": c} for d, c in self.strata],
            "carrier": [{"point": list(lam), "dim_Z": d}
                        for lam, d in self.points],
            "seconds": round(self.seconds, 3),
            "cap": self.cap,
        }


def scan_component(graph: Graph, m: Matroid, ring: Ring,
                   cap: Optional[int] = None, jobs: int = 1) -> ComponentScan:
    """Classify every projective weight of K by its solution-space dimension.
    Scans run in one thread: `jobs` stays only because the benchmark
    harness passes `jobs=1`, and any other value raises `ValueError`."""
    if jobs != 1:
        raise ValueError(f"scans run in one thread, not jobs={jobs}")
    t0 = time.perf_counter()
    budget = _budget(cap)
    if not ring.is_field or ring.cardinality is None:
        raise ValueError("component scans need a finite field")
    kb = k_gamma(graph, m, ring)
    dim_k = len(kb)
    if dim_k == 0:
        return ComponentScan(graph, m.name, ring.spec, 0, 0, (), (),
                             time.perf_counter() - t0, budget)
    if ring.cardinality ** dim_k > budget:
        raise CapExceeded(
            f"{ring.cardinality}**{dim_k} K-weights exceed the budget {budget}")

    K = np.asarray(kb, dtype=np.intp)
    L, nr, nc = _kernels.build_digit_map(
        lambda lam: _k_rows(lam, graph, m, ring, K), kb, ring, dim_k)
    total = _kernels.projective_total(ring.cardinality, dim_k)
    nullities = _kernels.scan_nullities(L, ring, dim_k, nr, nc, 0, total)
    strata = tuple((d, int(c)) for d, c in enumerate(np.bincount(nullities))
                   if c)
    hits = np.flatnonzero(nullities >= 2)
    coeffs = _kernels.decode_candidates(hits, ring.cardinality, dim_k)
    carrier = _kernels.projective_canon(
        _kernels.ring_product(coeffs, K, ring), ring)
    points = tuple(zip(map(tuple, carrier.tolist()),
                       nullities[hits].tolist()))
    return ComponentScan(graph, m.name, ring.spec, dim_k, total, strata,
                         points, time.perf_counter() - t0, budget)


def _k_rows(lam: Sequence, graph: Graph, m: Matroid, ring: Ring,
            K: np.ndarray) -> np.ndarray:
    """Rows of the Z_Gamma(lambda) system projected onto K, the rows of the
    (dim K, n) array K: each ambient row r becomes (r . b for b in K), so
    the kernel is in K-coordinates.  The rows come from `zgamma_rows`; the
    projection is one table product over the ring."""
    rows = zgamma_rows(lam, graph, m, ring)
    A = np.asarray(rows, dtype=np.intp).reshape(len(rows), m.n)
    return _kernels.ring_product(A, K.T, ring)


# ---------------------------------------------------------------------------
# interpolation

@dataclass(frozen=True)
class FormFit:
    proj_dim: int
    degree: int
    dim: int
    monomials: Tuple[tuple, ...]
    basis: Tuple[tuple, ...]

    def to_jsonable(self) -> dict:
        return {"proj_dim": self.proj_dim, "degree": self.degree,
                "dim": self.dim,
                "monomials": [list(e) for e in self.monomials],
                "basis": [list(map(str, b)) for b in self.basis]}


def _monomial_exponents(nvars: int, degree: int) -> List[tuple]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _eval_monomial(point: Sequence, expo: Sequence, ring: Ring):
    acc = ring.one
    for x, e in zip(point, expo):
        for _ in range(e):
            acc = ring.mul(acc, x)
    return acc


def fit_forms(points: Sequence[Sequence], ring: Ring, degree: int) -> FormFit:
    """Degree-d forms vanishing on all points: null space of the evaluation
    matrix, rows indexed by points, columns by monomials in a fixed order."""
    if not points:
        raise ValueError("need at least one point")
    if not ring.is_field:
        raise ValueError("interpolation needs a field")
    pts = [ring.coerce_vector(p) for p in points]
    nvars = len(pts[0])
    monos = _monomial_exponents(nvars, degree)
    rows = [tuple(_eval_monomial(p, e, ring) for e in monos) for p in pts]
    basis = kernel_field(Matrix.from_rows(ring, rows, width=len(monos)))
    for b in basis:
        for p in pts:
            val = ring.sum(ring.mul(c, _eval_monomial(p, e, ring))
                           for c, e in zip(b, monos))
            assert val == ring.zero, "interpolated form fails to vanish"
    return FormFit(nvars - 1, degree, len(basis), tuple(monos), tuple(basis))


# ---------------------------------------------------------------------------
# regulus demonstration

@dataclass(frozen=True)
class RegulusReport:
    ring_spec: str
    seed: int
    resamples: int
    planes: Tuple[Tuple[tuple, ...], ...]
    carrier_count: int
    expected: int
    all_depth_one: bool

    @property
    def ok(self) -> bool:
        return self.carrier_count == self.expected and self.all_depth_one

    def to_jsonable(self) -> dict:
        return {"ring": self.ring_spec, "seed": self.seed,
                "resamples": self.resamples,
                "planes": [[list(v) for v in p] for p in self.planes],
                "carrier_count": self.carrier_count,
                "expected": self.expected,
                "all_depth_one": self.all_depth_one,
                "ok": self.ok}


def regulus_check(ring: Ring, seed: int = 0,
                  max_resamples: int = 100) -> RegulusReport:
    """Three random pairwise-disjoint planes in F_q^4: the carrier of their
    line complex should be the (q+1)^2 points of a hyperbolic quadric, all
    of depth one.  The carrier walk is charged q^4 points, like a scan of
    F_q^4: above the default budget (or RESONANCE_LAB_CAP) it raises
    CapExceeded before any plane is sampled."""
    if not ring.is_field or ring.cardinality is None:
        raise ValueError("regulus check needs a finite field")
    q = ring.cardinality
    budget = _budget(None)
    if q ** 4 > budget:
        raise CapExceeded(f"{q}**4 points exceed the budget {budget}")
    rng = random.Random(seed)
    tries = 0
    while True:
        if tries > max_resamples:
            raise ValueError(
                f"no generic plane triple after {max_resamples} resamples")
        tries += 1
        planes = []
        for _ in range(3):
            while True:
                vecs = [[rng.randrange(q) for _ in range(4)] for _ in range(2)]
                sub = span(ring, vecs, 4)
                if sub.dim == 2:
                    planes.append(sub)
                    break
        if all(_disjoint(a, b, ring) for a, b in itertools.combinations(planes, 2)):
            break
    ambient = span(ring, [[ring.one if j == i else ring.zero for j in range(4)]
                          for i in range(4)], 4)
    count, all_one = 0, True
    for xi in _kernels._projective_walk(q, 4):
        d = geom_depth(xi.tolist(), planes, within=ambient)
        if d >= 1:
            count += 1
            if d != 1:
                all_one = False
    return RegulusReport(ring.spec, seed, tries - 1,
                         tuple(p.basis for p in planes), count,
                         (q + 1) ** 2, all_one)


def _disjoint(a: Subspace, b: Subspace, ring: Ring) -> bool:
    rows = list(a.basis) + list(b.basis)
    return rank_field(Matrix.from_rows(ring, rows, width=a.n)) == a.dim + b.dim
