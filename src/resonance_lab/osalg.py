"""Degree-one wedge structure: d_lambda matrices, kernels Z(lambda),
resonant pairs and their graphs.

The degree-two space splits line by line, so the matrix of
eta -> a_lambda ∧ a_eta is assembled per line X with rows indexed by
(X, k), k in X minus its minimum, in lexicographic line order.
"""

from __future__ import annotations

from typing import List, Sequence

from .graphs import Graph
from .matroid import Matroid
from .rings import (IntegersModN, Matrix, Ring, is_parallel, kernel_field,
                    kernel_modn)

__all__ = [
    "dlambda_matrix",
    "wedge_components",
    "wedge_is_zero",
    "z_of",
    "is_resonant_pair",
    "is_resonant",
    "pair_graph",
    "rank2_partner",
]


def dlambda_matrix(lam: Sequence, m: Matroid, ring: Ring) -> Matrix:
    """Matrix of eta -> a_lambda ∧ a_eta.

    Row (X, k) evaluates lambda_X * eta_k - lambda_k * eta_X, i.e. has entry
    lambda_X*[j=k] - lambda_k at column j in X and zero elsewhere.
    """
    lam = ring.coerce_vector(lam)
    if len(lam) != m.n:
        raise ValueError(f"weight length {len(lam)} != n = {m.n}")
    rows = tuple(r for X in m.all_lines for r in _line_rows(lam, X, X[1:], ring))
    return Matrix(ring, rows, width=m.n)


def _line_rows(lam: Sequence, X: Sequence[int], ks: Sequence[int],
               ring: Ring) -> List[tuple]:
    """Rows of eta -> lambda_X eta_k - lambda_k eta_X on the line X, one per
    k in ks: entry lambda_X - lambda_k at column k, -lambda_k at the other
    columns of X and zero elsewhere.  lam is already coerced."""
    lam_X = ring.sum(lam[i - 1] for i in X)
    rows = []
    for k in ks:
        row = [ring.zero] * len(lam)
        neg = ring.neg(lam[k - 1])
        for j in X:
            row[j - 1] = neg
        row[k - 1] = ring.sub(lam_X, lam[k - 1])
        rows.append(tuple(row))
    return rows


def wedge_components(lam: Sequence, eta: Sequence, m: Matroid, ring: Ring):
    """Per-line coefficient vectors (lambda_X eta_k - lambda_k eta_X)_{k in X-min}."""
    lam = ring.coerce_vector(lam)
    eta = ring.coerce_vector(eta)
    if len(lam) != m.n or len(eta) != m.n:
        raise ValueError("weight length mismatch")
    out = []
    for X in m.all_lines:
        lam_X = ring.sum(lam[i - 1] for i in X)
        eta_X = ring.sum(eta[i - 1] for i in X)
        vec = tuple(
            ring.sub(ring.mul(lam_X, eta[k - 1]), ring.mul(lam[k - 1], eta_X))
            for k in X[1:])
        out.append((X, vec))
    return out


def wedge_is_zero(lam: Sequence, eta: Sequence, m: Matroid, ring: Ring) -> bool:
    return all(all(c == ring.zero for c in vec)
               for _, vec in wedge_components(lam, eta, m, ring))


def z_of(lam: Sequence, m: Matroid, ring: Ring) -> List[tuple]:
    """Generators of Z(lambda) = {eta : a_lambda ∧ a_eta = 0}.

    Echelon kernel basis over fields, Howell generators over Z/N.
    """
    M = dlambda_matrix(lam, m, ring)
    if ring.is_field:
        return kernel_field(M)
    if isinstance(ring, IntegersModN):
        return kernel_modn(M)
    raise ValueError(f"unsupported ring {ring.spec}")


def is_resonant_pair(lam: Sequence, eta: Sequence, m: Matroid, ring: Ring) -> bool:
    lam = ring.coerce_vector(lam)
    eta = ring.coerce_vector(eta)
    return wedge_is_zero(lam, eta, m, ring) and not is_parallel(lam, eta, ring)


def is_resonant(lam: Sequence, m: Matroid, ring: Ring) -> bool:
    """Does lambda admit a non-parallel partner in Z(lambda)?

    Over a field: lambda != 0 and dim Z(lambda) >= 2.  Over Z/N: the parallel
    locus is the kernel of the linear map eta -> minors(lambda, eta), so
    Z(lambda) sits inside it iff every Howell generator does.
    """
    lam = ring.coerce_vector(lam)
    if all(x == ring.zero for x in lam):
        return False
    gens = z_of(lam, m, ring)
    if ring.is_field:
        return len(gens) >= 2
    return any(not is_parallel(lam, g, ring) for g in gens)


def _minor_graph(lam: Sequence, eta: Sequence, ring: Ring) -> Graph:
    n = len(lam)
    edges = [(i + 1, j + 1)
             for i in range(n) for j in range(i + 1, n)
             if ring.sub(ring.mul(lam[i], eta[j]), ring.mul(lam[j], eta[i]))
             == ring.zero]
    return Graph.from_edges(n, edges)


def pair_graph(lam: Sequence, eta: Sequence, m: Matroid, ring: Ring) -> Graph:
    """Graph with an edge wherever the (i,j) minor of [lambda|eta] vanishes."""
    lam = ring.coerce_vector(lam)
    eta = ring.coerce_vector(eta)
    if not is_resonant_pair(lam, eta, m, ring):
        raise ValueError("pair is not resonant")
    g = _minor_graph(lam, eta, ring)
    # a resonant pair's graph always picks up every trivial line
    for t in m.trivial_lines:
        if t not in g.edges:
            raise AssertionError(f"trivial line {t} missing from pair graph")
    return g


def rank2_partner(lam: Sequence, m: Matroid, ring: Ring) -> tuple:
    """Constructive partner for a rank-2 weight whose coefficient sum is a
    zero divisor with Ann(sum) != Ann(lambda).

    Picks the smallest annihilator r of the sum with r*lambda != 0, an index
    i where r*lambda_i != 0, and places (r, -r) at the first two other
    indices; verifies the pair before returning it.
    """
    if m.rank != 2:
        raise ValueError("rank-2 construction needs a rank-2 matroid")
    n = m.n
    if n < 3:
        raise ValueError("need n >= 3")
    lam = ring.coerce_vector(lam)
    total = ring.sum(lam)
    if not ring.is_zero_divisor(total):
        raise ValueError(f"coefficient sum {total} is not a zero divisor in {ring.spec}")
    if isinstance(ring, IntegersModN):
        candidates = ring.annihilator_elements(total)
    else:  # field (total must be 0 here): every nonzero r annihilates it
        candidates = [ring.one]
    r = next((c for c in candidates
              if any(ring.mul(c, x) != ring.zero for x in lam)), None)
    if r is None:
        raise ValueError("annihilators of the sum and of lambda coincide")
    i = next(idx for idx in range(n) if ring.mul(r, lam[idx]) != ring.zero)
    j, k = [idx for idx in range(n) if idx != i][:2]
    eta = [ring.zero] * n
    eta[j] = r
    eta[k] = ring.neg(r)
    eta = tuple(eta)
    if not is_resonant_pair(lam, eta, m, ring):
        raise AssertionError("constructed partner failed verification")
    return eta
