"""Workloads, pinned outputs and correctness checks of the benchmark.

A workload is a list of jobs; each job is one call into the public API.
The seed relabels the ground set of every fixture by a seeded permutation
(through `from_lines`) and relabels graphs to match, so the inputs differ
from seed to seed while every pinned count stays the same.

Pins are the counts the program computes; they are checked on every pass,
traced passes included.  `check` runs once per run, outside the timed
passes, and samples weights from the seed: for scans, weights the scan did
not report must not be resonant, so a kernel that drops resonant weights
fails the run even though every reported point re-verifies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

# The jobs call through the module attributes, which the tracer wraps.
from resonance_lab import _kernels, neighborly, oracle
from resonance_lab.graphs import from_blocks, parse_graph
from resonance_lab.matroid import catalog, from_lines
from resonance_lab.neighborly import k_gamma, v1_contains, z_gamma
from resonance_lab.osalg import is_resonant
from resonance_lab.rings import make_ring

NAMES = ("field-scan", "modn-scan", "decompose")

SAMPLES = 64  # weights drawn per scan job by the sampling checks

HESSIAN_GRAPH = "123|456|789|αβγ"


@dataclass
class Job:
    name: str
    call: Callable[[], object]          # one call into the program
    pin: dict                            # expected `digest` of its report
    digest: Callable[[object], dict]
    universe: Callable[[object], int]   # weights the call scanned
    check: Optional[Callable[[object, random.Random], List[str]]] = None
    rings: Tuple = ()


@dataclass
class Workload:
    name: str
    jobs: List[Job]
    warmup: List[Job] = field(default_factory=list)

    @property
    def rings(self) -> list:
        return sorted({r for j in self.jobs + self.warmup for r in j.rings},
                      key=lambda r: r.spec)


# ---------------------------------------------------------------------------
# seeded fixtures

def _perm(seed: int, fixture: str, n: int) -> List[int]:
    labels = list(range(1, n + 1))
    random.Random(f"{seed}:{fixture}").shuffle(labels)
    return [0] + labels  # perm[i] is the new label of point i


def relabel(name: str, seed: int):
    """Catalog matroid with its ground set relabelled by the seed."""
    m = catalog(name)
    perm = _perm(seed, name, m.n)
    return from_lines(m.n, [[perm[i] for i in X] for X in m.lines], m.name), perm


def relabel_graph(text: str, n: int, perm: List[int]):
    g = parse_graph(text, n)
    return from_blocks(n, [[perm[i] for i in b] for b in g.blocks])


# ---------------------------------------------------------------------------
# digests

def scan_digest(rep) -> dict:
    return {"universe": rep.universe, "points": len(rep.points),
            "groups": len(rep.groups)}


def component_digest(rep) -> dict:
    return {"universe": rep.universe,
            "strata": {str(d): c for d, c in rep.strata}}


def decompose_digest(rep) -> dict:
    return {"scan": rep.scan_count, "union": rep.union_count,
            "equal": rep.equal, "nesting_ok": rep.nesting_ok,
            "graphs": len(rep.graphs)}


def fingerprint(rep) -> dict:
    """Whole report minus its timing, for the pass-to-pass identity check."""
    doc = rep.to_jsonable()
    doc.pop("seconds", None)
    return doc


# ---------------------------------------------------------------------------
# sampling checks

def _random_weight(rng: random.Random, ring, n: int) -> tuple:
    while True:
        lam = tuple(rng.randrange(ring.cardinality) for _ in range(n))
        if any(lam):
            return lam


def _canon(lam: tuple, ring) -> tuple:
    lead = next(x for x in lam if x != ring.zero)
    u = ring.inv(lead)
    return tuple(ring.mul(u, x) for x in lam)


def scan_check(m, ring):
    """Unreported weights are not resonant (the scan re-verifies only the
    points it reports)."""
    def check(rep, rng):
        reported = {p.lam for p in rep.points}
        problems, drawn = [], 0
        while drawn < SAMPLES:
            lam = _random_weight(rng, ring, m.n)
            if ring.is_field:
                lam = _canon(lam, ring)
            if lam in reported:
                continue
            drawn += 1
            if is_resonant(lam, m, ring):
                problems.append(f"unreported weight {lam} is resonant")
        return problems
    return check


def component_check(graph, m, ring):
    """K-weights off the carrier are not in the component; carrier points
    are, with the reported solution-space dimension."""
    def check(rep, rng):
        kb = k_gamma(graph, m, ring)
        carrier = dict(rep.points)
        problems, drawn = [], 0
        while drawn < SAMPLES:
            coeffs = _random_weight(rng, ring, len(kb))
            lam = [ring.zero] * m.n
            for c, b in zip(coeffs, kb):
                lam = [ring.add(x, ring.mul(c, y)) for x, y in zip(lam, b)]
            lam = _canon(tuple(lam), ring)
            if lam in carrier:
                continue
            drawn += 1
            if v1_contains(lam, graph, m, ring):
                problems.append(f"weight {lam} off the carrier is in V1")
        for lam, d in rng.sample(rep.points, min(SAMPLES, len(rep.points))):
            if len(z_gamma(lam, graph, m, ring)) != d:
                problems.append(f"carrier point {lam} has dim Z_Gamma != {d}")
        return problems
    return check


def deep_f2_check(m):
    """deletedB3 over F2 has 9 weights with dim Z >= 3; an enumeration of
    all 2^8 partners, with no elimination, gives the same 9."""
    ring = make_ring("F2")

    def check(rep, rng):
        deep = [p for p in oracle.scan_resonance(m, ring, jobs=1).points if p.dim_z >= 3]
        return [] if len(deep) == 9 else [f"{len(deep)} weights with dim Z >= 3, want 9"]
    return check


# ---------------------------------------------------------------------------
# jobs

def scan_job(name: str, ring_spec: str, seed: int, pin: dict) -> Job:
    m, _ = relabel(name, seed)
    ring = make_ring(ring_spec)
    return Job(f"{name}/{ring_spec}",
               lambda: oracle.scan_resonance(m, ring, jobs=1), pin, scan_digest,
               lambda rep: rep.universe, scan_check(m, ring), (ring,))


def component_job(name: str, graph_text: str, ring_spec: str, seed: int,
                  pin: dict) -> Job:
    m, perm = relabel(name, seed)
    graph = relabel_graph(graph_text, m.n, perm)
    ring = make_ring(ring_spec)
    return Job(f"{name}:{graph_text}/{ring_spec}",
               lambda: oracle.scan_component(graph, m, ring, jobs=1), pin,
               component_digest, lambda rep: rep.universe,
               component_check(graph, m, ring), (ring,))


def decompose_job(name: str, ring_spec: str, seed: int, pin: dict,
                  extra_check=None) -> Job:
    m, _ = relabel(name, seed)
    ring = make_ring(ring_spec)
    q = ring.cardinality

    def universe(rep) -> int:
        """The full scan plus one component scan per enumerated graph."""
        total = _kernels.projective_total(q, m.n)
        for g, _ in rep.graphs:
            total += _kernels.projective_total(q, len(k_gamma(g, m, ring)))
        return total

    job = Job(f"decompose {name}/{ring_spec}",
              lambda: neighborly.decomposition_check(m, ring), pin, decompose_digest,
              universe, rings=(ring,))
    if extra_check is not None:
        job.check = extra_check(m)
    return job


def _dec(scan, graphs) -> dict:
    return {"scan": scan, "union": scan, "equal": True, "nesting_ok": True,
            "graphs": graphs}


def _scan(universe, points, groups) -> dict:
    return {"universe": universe, "points": points, "groups": groups}


def _strata(universe, strata: Dict[int, int]) -> dict:
    return {"universe": universe, "strata": {str(d): c for d, c in strata.items()}}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The named workload under the seed; `tiny` gives the self-test inputs."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    warm = build(name, seed, tiny=True).jobs if not tiny else []
    if name == "field-scan":
        if tiny:
            jobs = [scan_job("braid-K4", "F2", seed, _scan(63, 15, 5)),
                    scan_job("braid-K4", "F3", seed, _scan(364, 20, 5)),
                    component_job("braid-K4", "12|34|56", "F4", seed,
                                  _strata(21, {1: 16, 2: 5}))]
        else:
            jobs = [scan_job("deletedB3", "F3", seed, _scan(3280, 57, 15)),
                    scan_job("deletedB3", "F4", seed, _scan(21845, 88, 17)),
                    component_job("hessian", HESSIAN_GRAPH, "F9", seed,
                                  _strata(66430, {1: 65529, 2: 810, 3: 91}))]
            # the F9 tables are not built by the tiny inputs
            warm.append(scan_job("pencil-3", "F9", seed, _scan(91, 10, 1)))
    elif name == "modn-scan":
        if tiny:
            jobs = [scan_job("pencil-3", "Z4", seed, _scan(63, 27, 1)),
                    scan_job("pencil-3", "Z6", seed, _scan(215, 121, 1))]
        else:
            jobs = [scan_job("braid-K4", "Z4", seed, _scan(4095, 975, 5)),
                    scan_job("pencil-5", "Z6", seed, _scan(7775, 5005, 81))]
    else:
        if tiny:
            jobs = [decompose_job("braid-K4", "F2", seed, _dec(15, 6))]
        else:
            jobs = [decompose_job("braid-K4", "F3", seed, _dec(20, 6)),
                    decompose_job("braid-K4", "F4", seed, _dec(25, 6)),
                    decompose_job("nonfano", "F3", seed, _dec(36, 10)),
                    decompose_job("deletedB3", "F2", seed, _dec(36, 28),
                                  extra_check=deep_f2_check)]
    return Workload(name, jobs, warm)
