"""Brute-force ground truth: exhaustive weight scans, component
stratification, vanishing-form interpolation, and the regulus demo.

Scans enumerate one representative per projective class over fields (first
nonzero coordinate one) and every nonzero tuple over Z/N.  Each reported
point's Z(lambda) is computed once; over a field its dimension must equal
the kernel nullity.  Every point's partner eta is then checked by evaluating
a_lambda ∧ a_eta directly, and the same eta picks the point's graph.  All
caps are explicit; RESONANCE_LAB_CAP overrides the default budget.  Range
splitting is deterministic, so reports are identical for any worker count.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .graphs import Graph
from .linegeom import Subspace, depth as geom_depth, span
from .matroid import Matroid
from .neighborly import CapExceeded, k_gamma, zgamma_rows
from .osalg import dlambda_matrix, pair_graph, z_of
from .osalg import is_resonant  # noqa: F401  perfbench/selftest.py reads oracle.is_resonant
from .rings import IntegersModN, Matrix, Ring, is_parallel, kernel_field, rank_field

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


def _canon(vec: Sequence, ring: Ring) -> tuple:
    """Canonical projective representative: first nonzero coordinate one."""
    lead = next((x for x in vec if x != ring.zero), None)
    if lead is None:
        return tuple(vec)
    u = ring.inv(lead)
    return tuple(ring.mul(u, x) for x in vec)


def _split_ranges(total: int, jobs: int) -> List[Tuple[int, int]]:
    jobs = max(1, jobs)
    step = (total + jobs - 1) // jobs
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _scan_all(L, ring, dim, nrows, ncols, total, jobs) -> np.ndarray:
    ranges = _split_ranges(total, jobs)
    if len(ranges) <= 1:
        return _kernels.scan_nullities(L, ring, dim, nrows, ncols, 0, total)
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        parts = list(pool.map(
            lambda r: _kernels.scan_nullities(L, ring, dim, nrows, ncols, *r),
            ranges))
    return np.concatenate(parts)


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
    matroid_name: str
    ring_spec: str
    universe: int
    points: Tuple[ScanPoint, ...]
    groups: Tuple[Tuple[Graph, Tuple[tuple, ...]], ...]
    seconds: float
    cap: int
    jobs: int

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
            "jobs": self.jobs,
        }


def scan_resonance(m: Matroid, ring: Ring, cap: Optional[int] = None,
                   jobs: int = 1) -> ScanReport:
    """Classify every nonzero weight of a finite ring as resonant or not.

    Fields walk one representative per projective class through the digit
    kernels; Z/N walks all nonzero tuples through the exact module path.
    Every reported point's partner is verified by direct wedge evaluation.
    """
    t0 = time.perf_counter()
    budget = _budget(cap)
    if ring.cardinality is None:
        raise ValueError("exhaustive scans need a finite ring")
    if ring.cardinality ** m.n > budget:
        raise CapExceeded(
            f"{ring.cardinality}**{m.n} weights exceed the budget {budget}")
    if ring.is_field:
        found = _scan_resonance_field(m, ring, jobs)
    elif isinstance(ring, IntegersModN):
        found = _scan_resonance_modn(m, ring)
    else:
        raise ValueError(f"unsupported ring {ring.spec}")
    groups = _group_by_graph(found, m, ring)
    universe = (_kernels.projective_total(ring.cardinality, m.n)
                if ring.is_field else ring.cardinality ** m.n - 1)
    return ScanReport(m.name, ring.spec, universe, tuple(p for p, _ in found),
                      groups, time.perf_counter() - t0, budget, jobs)


def _scan_resonance_field(m: Matroid, ring: Ring,
                          jobs: int) -> List[Tuple[ScanPoint, tuple]]:
    basis = [tuple(ring.one if j == i else ring.zero for j in range(m.n))
             for i in range(m.n)]
    L, nr, nc = _kernels.build_digit_map(
        lambda lam: dlambda_matrix(lam, m, ring).rows, basis, ring)
    total = _kernels.projective_total(ring.cardinality, m.n)
    nullities = _scan_all(L, ring, m.n, nr, nc, total, jobs)
    out = []
    for g in np.nonzero(nullities >= 2)[0]:
        lam = _kernels.decode_candidate(int(g), ring.cardinality, m.n)
        d = int(nullities[g])
        zb = z_of(lam, m, ring)
        if len(zb) != d:
            raise ValueError(f"kernel nullity {d} of {lam} disagrees with "
                             f"dim Z = {len(zb)}")
        eta = next(b for b in zb if not is_parallel(lam, b, ring))
        out.append((ScanPoint(lam, dim_z=d), eta))
    return out


def _scan_resonance_modn(m: Matroid,
                         ring: IntegersModN) -> List[Tuple[ScanPoint, tuple]]:
    out = []
    for lam in itertools.product(range(ring.n), repeat=m.n):
        if not any(lam):
            continue
        gens = z_of(lam, m, ring)
        wit = next((g for g in gens if not is_parallel(lam, g, ring)), None)
        if wit is not None:
            out.append((ScanPoint(lam, witness=wit), wit))
    return out


def _group_by_graph(found: Sequence[Tuple[ScanPoint, tuple]], m: Matroid,
                    ring: Ring) -> Tuple[Tuple[Graph, Tuple[tuple, ...]], ...]:
    """Group points by the graph of their partner; `pair_graph` raises
    unless a_lambda ∧ a_eta = 0 and eta is not parallel to lambda."""
    by_graph: Dict[frozenset, Tuple[Graph, List[tuple]]] = {}
    for p, eta in found:
        g = pair_graph(p.lam, eta, m, ring)
        by_graph.setdefault(g.edges, (g, []))[1].append(p.lam)
    ordered = sorted(by_graph.values(), key=lambda t: repr(t[0]))
    return tuple((g, tuple(pts)) for g, pts in ordered)


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
    """Classify every projective weight of K by its solution-space dimension."""
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

    def rows_fn(lam):
        amb = zgamma_rows(lam, graph, m, ring)
        return [tuple(ring.sum(ring.mul(row[i], b[i]) for i in range(m.n))
                      for b in kb) for row in amb]

    L, nr, nc = _kernels.build_digit_map(rows_fn, kb, ring)
    total = _kernels.projective_total(ring.cardinality, dim_k)
    nullities = _scan_all(L, ring, dim_k, nr, nc, total, jobs)
    strata = tuple((d, int(c)) for d, c in enumerate(np.bincount(nullities))
                   if c)
    points = []
    for g in np.nonzero(nullities >= 2)[0]:
        coeffs = _kernels.decode_candidate(int(g), ring.cardinality, dim_k)
        points.append((_canon(ring.combine(coeffs, kb, m.n), ring),
                       int(nullities[g])))
    return ComponentScan(graph, m.name, ring.spec, dim_k, total, strata,
                         tuple(points), time.perf_counter() - t0, budget)


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
    of depth one."""
    if not ring.is_field or ring.cardinality is None:
        raise ValueError("regulus check needs a finite field")
    q = ring.cardinality
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
    for xi in _kernels.projective_points(q, 4):
        d = geom_depth(xi, planes, within=ambient)
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
