"""Projective geometry of a component: directrices, joins, depth, carrier.

Everything here is exact echelon linear algebra over a field.  A component's
weight space K embeds in the ambient coordinate space; each block of the
graph contributes a directrix, the subspace of K supported away from the
block.  A weight belongs to the carrier when the lines through it that meet
every directrix not already containing it fill something positive
dimensional.  Rings with zero divisors are refused throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .graphs import Graph
from .matroid import Matroid
from .neighborly import k_gamma
from .rings import Matrix, Ring, is_parallel, kernel_field, minors2, rank_field, rref_field

__all__ = [
    "Subspace",
    "span",
    "join",
    "join_sub",
    "meet",
    "depth",
    "carrier_contains",
    "Directrix",
    "DirectrixArrangement",
    "directrices",
    "ProjLine",
    "plucker_line",
    "complex_contains",
]


def _require_field(ring: Ring):
    if not ring.is_field:
        raise ValueError(
            f"line geometry needs a field, not {ring.spec}; ruled-variety "
            "arguments break over rings with zero divisors")


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^n in reduced echelon form (canonical per subspace)."""

    ring: Ring
    n: int
    basis: Tuple[tuple, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        v = self.ring.coerce_vector(v)
        rows = list(self.basis) + [v]
        return rank_field(Matrix.from_rows(self.ring, rows, width=self.n)) == self.dim

    def coordinates_of(self, v: Sequence) -> tuple:
        """Coefficients of v against the echelon basis; raises if v is outside."""
        R = self.ring
        v = R.coerce_vector(v)
        pivots = [next(j for j, x in enumerate(b) if x != R.zero) for b in self.basis]
        coeffs = [v[p] for p in pivots]
        if R.combine(coeffs, self.basis, self.n) != v:
            raise ValueError("vector is not in the subspace")
        return tuple(coeffs)

    def __repr__(self):
        return f"Subspace(dim {self.dim} in {self.ring.spec}^{self.n})"


def span(ring: Ring, vectors: Iterable[Sequence], n: int) -> Subspace:
    """Echelon span; n is the ambient dimension (needed when vectors is empty)."""
    _require_field(ring)
    rows = [ring.coerce_vector(v) for v in vectors]
    reduced, _ = rref_field(Matrix.from_rows(ring, rows, width=n))
    basis = tuple(tuple(r) for r in reduced if any(x != ring.zero for x in r))
    return Subspace(ring, n, basis)


def _ambient(ring: Ring, n: int) -> Subspace:
    return span(ring, [[ring.one if j == i else ring.zero for j in range(n)]
                       for i in range(n)], n)


def join(xi: Sequence, D: Subspace) -> Subspace:
    """Span of a point with a subspace."""
    return span(D.ring, list(D.basis) + [xi], D.n)


def join_sub(D: Subspace, E: Subspace) -> Subspace:
    if D.n != E.n or D.ring != E.ring:
        raise ValueError("ambient mismatch")
    return span(D.ring, list(D.basis) + list(E.basis), D.n)


def _annihilator_rows(D: Subspace) -> List[tuple]:
    return kernel_field(Matrix.from_rows(D.ring, D.basis, width=D.n))


def meet(D: Subspace, E: Subspace) -> Subspace:
    """Intersection, computed through the dot-product annihilators."""
    if D.n != E.n or D.ring != E.ring:
        raise ValueError("ambient mismatch")
    rows = _annihilator_rows(D) + _annihilator_rows(E)
    return span(D.ring, kernel_field(Matrix.from_rows(D.ring, rows, width=D.n)), D.n)


def depth(xi: Sequence, dirs: Sequence[Subspace],
          within: Optional[Subspace] = None) -> int:
    """Projective dimension of the lines through xi meeting every directrix.

    Folds the intersection of span(xi) + D over the directrices that do not
    already contain xi: a line through a point of D trivially meets D, so
    such factors impose nothing.  With no effective factor the answer is the
    ambient (projective) dimension; `within` sets that ambient, which for a
    component is K itself.
    """
    if not dirs and within is None:
        raise ValueError("need at least one directrix or an explicit ambient")
    ring = within.ring if within is not None else dirs[0].ring
    _require_field(ring)
    xi = ring.coerce_vector(xi)
    if all(x == ring.zero for x in xi):
        raise ValueError("depth of the zero vector")
    n = within.n if within is not None else dirs[0].n
    acc = within if within is not None else _ambient(ring, n)
    for D in dirs:
        if D.contains(xi):
            continue
        acc = meet(acc, join(xi, D))
    return acc.dim - 1


def carrier_contains(xi: Sequence, dirs: Sequence[Subspace],
                     within: Optional[Subspace] = None) -> bool:
    return depth(xi, dirs, within) >= 1


# ---------------------------------------------------------------------------
# directrices of a component

@dataclass(frozen=True)
class Directrix:
    """Subspace of K supported away from a block."""

    blocks: Tuple[Tuple[int, ...], ...]  # blocks sharing this subspace
    space: Subspace                      # ambient coordinates

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def is_pole(self) -> bool:
        return self.space.dim == 1


@dataclass(frozen=True)
class DirectrixArrangement:
    graph: Graph
    ring: Ring
    k: Subspace                 # the component's weight space, ambient coords
    members: Tuple[Directrix, ...]

    @property
    def poles(self) -> Tuple[Directrix, ...]:
        return tuple(d for d in self.members if d.is_pole)

    @property
    def proper_part(self) -> Tuple[Directrix, ...]:
        """Members of codimension > 1 in K; only these can cut a line down."""
        return tuple(d for d in self.members if self.k.dim - d.dim > 1)

    def depth(self, xi: Sequence) -> int:
        return depth(xi, [d.space for d in self.members], within=self.k)

    def carrier_contains(self, xi: Sequence) -> bool:
        return self.depth(xi) >= 1


def directrices(graph: Graph, m: Matroid, ring: Ring) -> DirectrixArrangement:
    """One directrix per block: the weights in K vanishing on the block.

    K is `k_gamma`, cut out by the x_gamma line sums alone.  In
    characteristic p it can leave the hyperplane sum(lambda) = 0 (braid-K4
    with 12|34|56 over F2, the Hessian with 123|456|789|αβγ over F3), while
    every resonant weight lies in it, so a carrier can be a proper subset
    of P(K).

    Distinct blocks occasionally cut the same subspace; those collapse into
    one member carrying all their block tags.
    """
    _require_field(ring)
    kb = k_gamma(graph, m, ring)
    if len(kb) < 2:
        raise ValueError(f"dim K = {len(kb)} < 2: no projective geometry to do")
    K = span(ring, kb, m.n)
    found: List[Tuple[List[tuple], Subspace]] = []
    for block in graph.blocks:
        sub = span(ring, [v for v in _block_vanishing(kb, block, ring, m.n)], m.n)
        for entry in found:
            if entry[1] == sub:
                entry[0].append(tuple(block))
                break
        else:
            found.append(([tuple(block)], sub))
    members = tuple(Directrix(tuple(tags), sub) for tags, sub in found)
    return DirectrixArrangement(graph, ring, K, members)


def _block_vanishing(k_basis: Sequence[tuple], block: Sequence[int],
                     ring: Ring, n: int) -> List[tuple]:
    """Basis of {xi in span(k_basis) : xi_i = 0 for i in block}."""
    rows = [[b[i - 1] for b in k_basis] for i in sorted(block)]
    coeff_kernel = kernel_field(Matrix.from_rows(ring, rows, width=len(k_basis)))
    return [ring.combine(c, k_basis, n) for c in coeff_kernel]


# ---------------------------------------------------------------------------
# Pluecker lines and linear complexes

@dataclass(frozen=True)
class ProjLine:
    ring: Ring
    xi: tuple
    nu: tuple
    plucker: tuple

    def to_jsonable(self) -> dict:
        return {"span": [list(map(str, self.xi)), list(map(str, self.nu))],
                "plucker": list(map(str, self.plucker))}


def plucker_line(xi: Sequence, nu: Sequence, ring: Ring) -> ProjLine:
    """Line through two non-parallel points with canonical Pluecker vector
    (first nonzero minor scaled to one)."""
    _require_field(ring)
    xi = ring.coerce_vector(xi)
    nu = ring.coerce_vector(nu)
    if is_parallel(xi, nu, ring):
        raise ValueError("parallel spanning vectors do not span a line")
    mins = minors2(xi, nu, ring)
    lead = next(x for x in mins if x != ring.zero)
    unit = ring.inv(lead)
    return ProjLine(ring, xi, nu, tuple(ring.mul(unit, x) for x in mins))


def complex_contains(line: ProjLine, D: Subspace) -> bool:
    """Does the line meet the (projectivized) subspace?  Rank test on the
    stacked spanning set: deficiency means a common projective point."""
    rows = list(D.basis) + [line.xi, line.nu]
    return rank_field(Matrix.from_rows(D.ring, rows, width=D.n)) < D.dim + 2
