"""Brute-force ground truth: exhaustive weight scans, component
stratification, vanishing-form interpolation, and the regulus demo.

Scans classify one representative per projective class over fields (first
nonzero coordinate one) and every nonzero tuple over Z/N, from one digit
map of lambda -> d_lambda per scan.  Over a field a weight is resonant iff
its kernel nullity is at least 2.  A component scan classifies the
projective weights of one graph's K by dim Z_Gamma.  Both field scans are
one pipeline: the digit map of the system's rows over the unit weights,
one check that the rows sum to s(lambda) eta_k - lambda_k s(eta) over the
lines through each point k (s the coordinate sum), and one kernel scan of
the map restricted to a basis of K ∩ {s = 0}, K = F_q^n for the full
scan.  A weight of K off that hyperplane has nullity exactly 1 (the
coordinate-sum lemma, proved once in `_sums_hold`), so the kernel
eliminates q times fewer candidates than K has.  The full scan raises
when the identity fails; a component scan, whose rows satisfy it exactly
when every trivial line is an edge of the graph, then scans all of K.

Over Z/N a weight is resonant iff Z(lambda) is larger than its parallel
locus P(lambda); both split over the prime-power factors p^k of N, so the
batched kernel decides every tuple of each factor ring once, on the
scan's digit map reduced mod p^k, and a weight is reported when some
factor of it is resonant.  The kernel eliminates d_lambda alone:
P(lambda) has a closed form, cut out by a row module of length
(n - 1)(k - v) with v the least p-adic valuation of lambda's coordinates.
The coordinate-sum lemma leaves only the tuples with s(lambda) = 0 mod p
to eliminate in each factor, and the identity is checked on each factor's
digit map (proofs in `_resonant_mask`).

The reported weights of both rings take one hit stage, `_partners`, in
chunks of at most `_HIT_ENTRIES` entries of the stacks eliminated: one
batched elimination of each chunk's d_lambda gives every weight its
Z(lambda) generators, `kernel_field`'s basis over F_q (its size must equal
the kernel nullity) and `kernel_modn`'s Howell generators over Z/N, and
its partner eta is the first of them with a nonzero 2x2 minor against
lambda.  Every partner is then checked by evaluating a_lambda ∧ a_eta
directly, over all points at once through the ring's tables, and the same
eta picks the point's graph (`_group_by_graph`, which reads nothing of the
eliminations).
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
from .neighborly import CapExceeded, k_gamma
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
    other class has dim Z(lambda) = 1 (the coordinate-sum lemma, proved in
    `_sums_hold`), and the scan raises `ValueError` if the rows of d_lambda
    do not sum as the lemma needs.  Z/N walks all nonzero tuples in
    `itertools.product` order and reports a tuple when the batched kernel
    over some prime-power factor calls its image resonant.  The scan builds
    the digit map of d_lambda once, and the reported weights of both rings
    take their partner from one hit stage (`_partners`).  Every reported
    point's partner is verified by direct wedge evaluation.  Scans run in
    one thread: `jobs` stays only because the benchmark harness passes
    `jobs=1`, and any other value raises `ValueError`.
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
    if not (ring.is_field or isinstance(ring, IntegersModN)):
        raise ValueError(f"unsupported ring {ring.spec}")
    L, nr, _ = _dlambda_digit_map(m, ring)
    if ring.is_field:
        if not _sums_hold(L, _row_sum_matrix(m), ring):
            raise ValueError(_UNSUMMED)
        nullities, lams = _scan_span(
            L, nr, _scanned_basis(np.eye(m.n, dtype=np.intp), ring), ring)
        dims = nullities[nullities >= 2]
        universe = _kernels.projective_total(ring.cardinality, m.n)
    else:
        lams, dims = _scan_resonance_modn(m, ring, L), None
        universe = ring.cardinality ** m.n - 1
    etas = _partners(L, ring, lams, dims)
    # a field point reports dim Z(lambda), a Z/N point its witness
    none = [None] * len(etas)
    points = tuple(map(ScanPoint, map(tuple, lams.tolist()),
                       none if dims is None else dims.tolist(),
                       etas if dims is None else none))
    groups = _group_by_graph([p.lam for p in points], etas, m, ring)
    return ScanReport(m.name, ring.spec, universe, points, groups,
                      time.perf_counter() - t0, budget)


def _dlambda_digit_map(m: Matroid, ring: Ring) -> Tuple[np.ndarray, int, int]:
    """Digit map of lambda -> d_lambda over the unit weights of R^n, from
    its closed form `_dlambda_coeffs`."""
    return _kernels.build_digit_map(_dlambda_coeffs(m), ring)


_UNSUMMED = ("the rows of d_lambda do not sum to s(lambda) eta_k - lambda_k "
             "s(eta) over the lines through k")


def _row_sum_matrix(m: Matroid) -> np.ndarray:
    """The (n, R) 0/±1 matrix T whose row k sums the rows (X, k) of
    d_lambda over the lines X through k: +1 at each row (X, k), and -1 at
    every row of X when k = min X, whose own row d_lambda leaves out.

    T d_lambda = s(lambda) I - lambda 1^T over every commutative ring.  The
    row (X, min X) is minus the sum of the other rows of X, since the terms
    lambda_X eta_j - lambda_j eta_X sum to zero over j in X.  Each point
    j != k lies on exactly one line with k, so the lines through k cover
    the others once and sum_{X ∋ k} lambda_X = r_k lambda_k + s(lambda) -
    lambda_k, with r_k the number of lines through k, trivial ones
    included.  Row k of T d_lambda eta is therefore eta_k (r_k lambda_k +
    s(lambda) - lambda_k) - lambda_k (r_k eta_k + s(eta) - eta_k) =
    s(lambda) eta_k - lambda_k s(eta)."""
    rows = [(X, k) for X in m.all_lines for k in X[1:]]
    T = np.zeros((m.n, len(rows)), dtype=np.int64)
    for r, (X, k) in enumerate(rows):
        T[k - 1, r] += 1
        T[X[0] - 1, r] -= 1
    return T


def _dlambda_coeffs(m: Matroid) -> np.ndarray:
    """The (R, n, n) coefficient tensor of d_lambda (`_line_coeffs`), in the
    row order of `osalg.dlambda_matrix`: the rows (X, k) for X in
    `m.all_lines` and k in X minus its minimum."""
    return _line_coeffs(m.n, [(X, k) for X in m.all_lines for k in X[1:]])


def _line_coeffs(n: int, line_rows: Sequence[Tuple[tuple, int]],
                 edges: Sequence[Tuple[int, int]] = ()) -> np.ndarray:
    """The (R, n, n) 0/±1 coefficient tensor C of a system with one row
    eta -> lambda_X eta_k - lambda_k eta_X per (X, k) of line_rows, then
    one row eta -> lambda_i eta_j - lambda_j eta_i per edge (i, j): entry
    (r, j) of row r is sum_i C[r, j, i] lambda_i (`_kernels.build_digit_map`),
    so C[r] is outer(e_k, 1_X) - outer(1_X, e_k) for a line row and
    outer(e_j, e_i) - outer(e_i, e_j) for an edge row.  Within each outer
    product the index triples are distinct, so two fancy-index updates fill
    all the line rows."""
    C = np.zeros((len(line_rows) + len(edges), n, n), dtype=np.int64)
    if line_rows:
        r, k, x = np.array([(r, k - 1, i - 1) for r, (X, k)
                            in enumerate(line_rows) for i in X]).T
        C[r, k, x] += 1
        C[r, x, k] -= 1
    if edges:
        r = np.arange(len(line_rows), len(C))
        i, j = np.array(edges).T - 1
        C[r, j, i], C[r, i, j] = 1, -1
    return C


def _sums_hold(L: np.ndarray, T: np.ndarray, ring: Ring) -> bool:
    """Whether T rows(lambda) = s(lambda) I - lambda 1^T for every weight,
    s the coordinate sum, with L the digit map of a system's R rows over
    the unit weights of F_q^n or (Z/N)^n (`_kernels.build_digit_map`) and
    T an integer (n, R) matrix: row k of the right side is eta -> s(lambda)
    eta_k - lambda_k s(eta).  Both sides are linear in lambda's digits
    (over Z/N one digit per coordinate, the coordinate itself), so the
    identity holds iff it holds at each unit digit x^t e_i, where the digit
    t' of the right side's entry (k, j) is [t' = t] ([k = j] - [k = i]).
    `_row_sum_matrix` gives the T of d_lambda, `_zgamma_sum_matrix` that of
    Z_Gamma.

    The coordinate-sum lemma: where the identity holds and every weight
    lies in its own kernel (rows(lambda) lambda = 0, which
    `_kernels.scan_nullities` checks), rows(lambda) eta = 0 gives s(lambda)
    eta = s(eta) lambda.  If s(lambda) is a unit, eta = s(lambda)^-1 s(eta)
    lambda, so the kernel is the line R lambda, and a weight of K off the
    hyperplane H = {s = 0} has nullity exactly 1 on K.  Over a field a
    nonzero lambda in H has s(eta) lambda = 0, so s(eta) = 0: the kernel
    lies in H, and its dimension on K is the nullity of rows(lambda) on
    K ∩ H, which `_scan_span` eliminates in the basis of `_scanned_basis`.
    """
    p, kext = ((ring.n, 1) if isinstance(ring, IntegersModN)
               else _kernels.field_params(ring)[:2])
    n = T.shape[0]
    got = T @ L.reshape(T.shape[1], n * kext * n * kext) % p
    eye, digit = np.eye(n, dtype=np.int64), np.eye(kext, dtype=np.int64)
    # want[k, j, t', i, t]
    want = ((eye[:, :, None, None, None] - eye[:, None, None, :, None])
            * digit[None, None, :, None, :]) % p
    return bool((got == want.reshape(n, -1)).all())


def _scanned_basis(K: np.ndarray, ring: Ring) -> np.ndarray:
    """A basis of K ∩ H, H = {s(lambda) = 0}, from the (dim K, n) basis K
    of a subspace, both with entries in F_p; K itself when K lies in H.
    The full scan's K = I_n gives the rows e_i - e_n, i < n.

    K's entries lie in F_p, so sigma_i = s(K_i) mod p.  With i0 the last i
    with sigma_i != 0, the rows K_i - (sigma_i / sigma_i0) K_i0 (i != i0)
    are a basis of K ∩ H with entries in F_p, so `scan_nullities` still
    finds its Frobenius and self-kernel premises.  In K-coordinates the
    candidate c of K ∩ H stands for c with c_i0 = -sum (sigma_i /
    sigma_i0) c_i inserted, and sigma_i = 0 for every i > i0, so c_i0
    depends only on the coordinates before it: the inserted coordinate is
    zero when those are, and the leading one keeps its place.  The
    candidates of K ∩ H therefore come in the order of their K-candidates,
    the order of the carrier an all-of-K scan reports.
    """
    p = _kernels.field_params(ring)[0]
    sigma = K.sum(1) % p
    live = np.flatnonzero(sigma)
    if not live.size:
        return K
    i0 = live[-1]
    E = np.delete(np.eye(len(K), dtype=np.intp), i0, axis=0)
    E[:, i0] = -np.delete(sigma, i0) * pow(int(sigma[i0]), -1, p) % p
    return E @ K % p


def _restrict(L: np.ndarray, B: np.ndarray, ring: Ring, nr: int
              ) -> np.ndarray:
    """The digit map of c -> rows(B^T c) B^T over F_q^D, from the digit map
    L of lambda -> rows(lambda) over the unit weights of F_q^n, nr rows,
    and a (D, n) matrix B with entries in F_p.  rows is linear and F_p acts
    on the base-p digits of an entry digit by digit mod p, so the digits of
    entry (r, b) of rows(x^t B_a) B^T are sum_{i, j} B_ai B_bj times the
    digits of entry (r, j) of rows(x^t e_i): two integer matmuls mod p, one
    on the column axis j and one on the basis axis i.  Raises `ValueError`
    when an entry of B lies outside F_p."""
    p, kext, _ = _kernels.field_params(ring)
    B = np.asarray(B, dtype=np.int64)
    if ((B < 0) | (B >= p)).any():
        raise ValueError(f"restriction bases need entries in F_{p}")
    D, n = B.shape
    A = B @ L.reshape(nr, n, kext * n * kext)  # (row, b, t' i t)
    A = B @ A.reshape(nr * D * kext, n, kext)  # (row b t', a, t)
    return (A % p).reshape(nr * D * kext, D * kext)


def _scan_span(L: np.ndarray, nr: int, B: np.ndarray, ring: Ring
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The nullity of rows(B^T c) B^T at every projective candidate c of
    F_q^D, in candidate order, and the canonical ambient points B^T c of
    those with nullity at least 2, from the digit map L of rows over the
    unit weights, nr rows, and a (D, n) basis B with entries in F_p: one
    `scan_nullities` call on `_restrict`'s map.  A basis of no rows scans
    nothing."""
    q, (D, n) = ring.cardinality, B.shape
    if not D:
        return np.zeros(0, dtype=np.uint8), np.zeros((0, n), dtype=np.int64)
    nullities = _kernels.scan_nullities(_restrict(L, B, ring, nr), ring, D,
                                        nr, D, 0,
                                        _kernels.projective_total(q, D))
    coeffs = _kernels.decode_candidates(np.flatnonzero(nullities >= 2), q, D)
    return nullities, _kernels.projective_canon(
        _kernels.ring_product(coeffs, B, ring), ring)


def _scan_resonance_modn(m: Matroid, ring: IntegersModN,
                         L: np.ndarray) -> np.ndarray:
    """The resonant weights of a Z/N scan, the rows of an int64 array in
    `itertools.product` order: those whose image in some prime-power factor
    Z/q is resonant.  L, the Z/N digit map of d_lambda, is the Z/q map mod
    q, since q divides N and d_lambda is integer-linear in lambda."""
    N, n = ring.n, m.n
    powers = np.arange(n - 1, -1, -1, dtype=np.int64)
    factors = [(p ** k, _resonant_mask(m, IntegersModN(p ** k), L % p ** k))
               for p, k in prime_power_factors(N)]
    hits = []
    for lo in range(1, N ** n, _WALK_BLOCK):
        gs = np.arange(lo, min(lo + _WALK_BLOCK, N ** n), dtype=np.int64)
        coords = _kernels._product_digits(gs, N, n)
        hit = np.zeros(gs.size, dtype=bool)
        for q, mask in factors:
            hit |= mask[(coords % q) @ q ** powers]
        hits.append(coords[hit])
    return np.concatenate(hits)


def _partners(L: np.ndarray, ring: Ring, lams: np.ndarray,
              dims: Optional[np.ndarray]) -> List[tuple]:
    """The partner of each weight, the rows of lams: the first of its
    Z(lambda) generators with a nonzero 2x2 minor against lambda.  A chunk
    holds as many weights as `_HIT_ENTRIES` entries of the stacks that the
    ring's kernel eliminates (R x n over F_q, R x (n + R) for [d_lambda |
    N I] over Z/N), and takes its d_lambda stack from `_kernels._systems`
    and (K, valid) from `_kernels.echelon_kernels` or
    `_kernels._smith_kernels`.  Raises `ValueError`, naming lambda, when a
    field weight does not have dims[b] (its nullity) generators, or when
    all of a weight's generators are parallel to it."""
    n = lams.shape[1]
    kernels = (_kernels.echelon_kernels if ring.is_field
               else _kernels._smith_kernels)
    R = len(L) // L.shape[1]
    size = max(1, _HIT_ENTRIES // max(1, R * (n if ring.is_field else n + R)))
    etas = []
    for lo in range(0, len(lams), size):
        chunk = lams[lo:lo + size]
        K, valid = kernels(_kernels._systems(L, ring, chunk, n), ring)
        if dims is not None:
            found = valid.sum(1)
            bad = np.flatnonzero(found != dims[lo:lo + size])
            if bad.size:
                b = bad[0]
                raise ValueError(f"kernel nullity {dims[lo + b]} of "
                                 f"{tuple(chunk[b].tolist())} disagrees with "
                                 f"dim Z = {found[b]}")
        minors = _minors(np.repeat(chunk, n, axis=0), K.reshape(-1, n), ring)
        moving = valid & minors.any(1).reshape(valid.shape)
        lost = np.flatnonzero(~moving.any(1))
        if lost.size:
            lam = tuple(chunk[lost[0]].tolist())
            raise ValueError(f"the batched kernel calls {lam} resonant, "
                             f"which disagrees with its generators")
        etas += map(tuple, K[np.arange(len(K)), moving.argmax(1)].tolist())
    return etas


_WALK_BLOCK = 1024
# stack entries per batched elimination of the hit stage: 128 weights of
# braid-K4's 11 x (6 + 11) Smith stacks, 664 of pencil-5's 4 x (5 + 4)
_HIT_ENTRIES = 128 * 11 * 17


def _resonant_mask(m: Matroid, ring: IntegersModN,
                   L: np.ndarray) -> np.ndarray:
    """Resonance of every tuple of (Z/p^k)^n, in `itertools.product` order,
    from the digit map L of d_lambda over Z/p^k.

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

    Only the tuples with s(lambda) = 0 mod p are eliminated, s the
    coordinate sum.  The row-sum identity of d_lambda (`_row_sum_matrix`)
    holds over every commutative ring, and `_sums_hold` checks it on L once
    per call (a failure raises `ValueError`).  If s(lambda) is a unit, the
    coordinate-sum lemma (`_sums_hold`) gives Z(lambda) = R lambda, which
    lies in P(lambda): lambda is not resonant.
    The tuples left, s = 0 mod p, are lambda = (c, p j - s(c)) for c in
    (Z/p^k)^(n-1) and j < p^(k-1), once each; they are scanned as the
    tuples x = (j, c) of (Z/p^k)^n below p^(k-1) q^(n-1), through the digit
    map L E of x -> d_(E x).
    """
    if not _sums_hold(L, _row_sum_matrix(m), ring):
        raise ValueError(_UNSUMMED)
    p, k = _kernels.chain_params(ring)
    n, q = m.n, ring.n
    E = np.eye(n, k=1, dtype=np.int64)  # lambda = E x
    E[-1] = [p] + [-1] * (n - 1)
    total = q ** n // p
    z_len = _kernels.scan_lengths(L @ E % q, ring, n, len(L) // n, n, 0,
                                  total)
    # the tuple number of lambda = E x is c's number times q plus lambda_n
    s = np.zeros(1, dtype=np.int64)
    for _ in range(n - 1):
        s = np.add.outer(s, np.arange(q)).ravel() % q  # s(c) mod q
    at = (np.arange(s.size) * q
          + (p * np.arange(total // s.size)[:, None] - s) % q).ravel()
    mask = np.zeros(q ** n, dtype=bool)
    mask[at] = z_len < (n - 1) * (k - _kernels._min_valuations(ring, n)[at])
    return mask


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
        if not vanish[:, edges.index(t)].all():
            raise AssertionError(f"trivial line {t} missing from pair graph")
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

    When the rows of Z_Gamma sum as the coordinate-sum lemma needs
    (`_sums_hold`; they do exactly when every trivial line of m is an edge
    of the graph, as for every neighborly graph), the kernel eliminates
    only K ∩ H, H = {s(lambda) = 0} with s the coordinate sum, and every
    weight of K off H is counted in stratum 1; otherwise it eliminates all
    of K.  `universe`, the strata and the carrier always cover all of K,
    and the cap is charged q^dim K either way.  Scans run in one thread:
    `jobs` stays only because the benchmark harness passes `jobs=1`, and
    any other value raises `ValueError`."""
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
    q = ring.cardinality
    if q ** dim_k > budget:
        raise CapExceeded(f"{q}**{dim_k} K-weights exceed the budget {budget}")

    K = np.asarray(kb, dtype=np.intp)
    L, nr, _ = _kernels.build_digit_map(_zgamma_coeffs(graph, m), ring)
    B = (_scanned_basis(K, ring)
         if _sums_hold(L, _zgamma_sum_matrix(graph, m), ring) else K)
    nullities, carrier = _scan_span(L, nr, B, ring)
    points = tuple(zip(map(tuple, carrier.tolist()),
                       nullities[nullities >= 2].tolist()))
    total = _kernels.projective_total(q, dim_k)
    counts = np.bincount(nullities, minlength=2)
    counts[1] += total - nullities.size  # the weights of K off H
    strata = tuple((d, int(c)) for d, c in enumerate(counts) if c)
    return ComponentScan(graph, m.name, ring.spec, dim_k, total, strata,
                         points, time.perf_counter() - t0, budget)


def _zgamma_coeffs(graph: Graph, m: Matroid) -> np.ndarray:
    """The (R, n, n) coefficient tensor of Z_Gamma's rows (`_line_coeffs`),
    in the row order of `neighborly.zgamma_rows`: the line rows (X, k) for
    X in x_Gamma and every k in X, then the edge rows (i, j) in sorted
    order."""
    return _line_coeffs(m.n, [(X, k) for X in graph.x_gamma(m) for k in X],
                        sorted(graph.edges))


def _zgamma_sum_matrix(graph: Graph, m: Matroid) -> np.ndarray:
    """The (n, R) 0/±1 matrix T_Gamma whose row k sums the R rows of
    `zgamma_rows` into sum_{j != k} (lambda_j eta_k - lambda_k eta_j): +1 at
    the row (X, k) of each line X of x_Gamma through k, and, for each point
    j != k of every other line through k, the edge row of {j, k} with sign
    +1 if j < k and -1 if j > k (the edge row of i < j is lambda_i eta_j -
    lambda_j eta_i).  A pair on an x_Gamma line takes that line's row
    alone, even when it is an edge.

    T_Gamma rows(lambda) = s(lambda) I - lambda 1^T exactly when every
    trivial line of m is an edge of the graph.  Row k of the right side,
    s(lambda) eta_k - lambda_k s(eta), is sum_{j != k} (lambda_j eta_k -
    lambda_k eta_j); group the j by the line X through k and j.  The terms
    of X sum to lambda_X eta_k - lambda_k eta_X, the row (X, k), when X is
    in x_Gamma; every other nontrivial line is a clique, so each of its
    terms is an edge minor; a trivial line is one term, an edge minor if it
    is an edge.  A trivial line {j, k} that is not an edge takes nothing
    and leaves the entry (k, k) at e_j zero instead of one."""
    xg = graph.x_gamma(m)
    at = {r: i for i, r in enumerate(
        [(X, k) for X in xg for k in X] + sorted(graph.edges))}
    T = np.zeros((m.n, len(at)), dtype=np.int64)
    for X in m.all_lines:
        for k in X:
            if (X, k) in at:
                T[k - 1, at[X, k]] = 1
                continue
            for j in X:
                e = (min(j, k), max(j, k))
                if j != k and e in at:
                    T[k - 1, at[e]] = 1 if j < k else -1
    return T


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
            if val != ring.zero:
                raise AssertionError("interpolated form fails to vanish")
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
