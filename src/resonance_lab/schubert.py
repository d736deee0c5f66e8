"""Chow ring of the Grassmannian of projective lines in P^{k-1}.

Classes are integer combinations of two-row shapes (i1, i2) with
0 <= i2 <= i1 <= k-2; codimension is i1 + i2.  Multiplication reduces to the
special-class rule (adding boxes, no two per column) and its dual via
W(a,b) = W(1,1)^b * W(a-b,0).  The degree pipeline turns directrix
codimensions plus a depth into the coefficient of the expected top shape,
flagged with the transversality assumptions it cannot certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

__all__ = [
    "Shape",
    "SchubertClass",
    "special",
    "unit",
    "pieri",
    "dual_pieri",
    "product",
    "CarrierDegree",
    "carrier_degree",
]

Shape = Tuple[int, int]


def _check_shape(s: Shape, k: int):
    i1, i2 = s
    if not (0 <= i2 <= i1 <= k - 2):
        raise ValueError(f"shape {s} is not admissible for G(2,{k})")


@dataclass(frozen=True)
class SchubertClass:
    k: int
    terms: Tuple[Tuple[Shape, int], ...]  # sorted desc by shape, coeffs nonzero

    @classmethod
    def from_terms(cls, k: int, terms: Mapping[Shape, int]) -> "SchubertClass":
        clean = {}
        for s, c in terms.items():
            _check_shape(s, k)
            if c:
                clean[s] = clean.get(s, 0) + c
        ordered = tuple(sorted(clean.items(), key=lambda t: t[0], reverse=True))
        return cls(k, tuple((s, c) for s, c in ordered if c))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, s: Shape) -> int:
        return dict(self.terms).get(s, 0)

    def codimensions(self) -> Tuple[int, ...]:
        return tuple(sorted({i1 + i2 for (i1, i2), _ in self.terms}))

    def poly_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i1, i2), c in self.terms:
            w = f"W({i1},{i2})"
            parts.append(w if c == 1 else f"{c}*{w}")
        return " + ".join(parts)

    def to_jsonable(self) -> dict:
        return {"k": self.k, "poly": self.poly_str(),
                "terms": [{"shape": [i1, i2], "coeff": c}
                          for (i1, i2), c in self.terms]}

    def __str__(self):
        return f"{self.poly_str()} [G(2,{self.k})]"


def special(k: int, s: int) -> SchubertClass:
    """The class W(s,0)."""
    return SchubertClass.from_terms(k, {(s, 0): 1})


def unit(k: int) -> SchubertClass:
    return SchubertClass.from_terms(k, {(0, 0): 1})


def pieri(c: SchubertClass, s: int) -> SchubertClass:
    """Multiply by W(s,0): add s boxes, at most one per column.

    For two rows that reads W(s,0)*W(a,b) = sum of W(x,y) over
    x + y = a + b + s with x >= a >= y >= b, shapes beyond k-2 dropping out.
    """
    if not (0 <= s <= c.k - 2):
        raise ValueError(f"special class W({s},0) inadmissible for G(2,{c.k})")
    out: Dict[Shape, int] = {}
    for (a, b), coef in c.terms:
        for y in range(b, a + 1):
            x = a + b + s - y
            if x < a or x > c.k - 2 or y > x:
                continue
            out[(x, y)] = out.get((x, y), 0) + coef
    return SchubertClass.from_terms(c.k, out)


def dual_pieri(c: SchubertClass) -> SchubertClass:
    """Multiply by W(1,1): shift both rows, dropping inadmissible shapes."""
    out: Dict[Shape, int] = {}
    for (a, b), coef in c.terms:
        if a + 1 <= c.k - 2:
            out[(a + 1, b + 1)] = out.get((a + 1, b + 1), 0) + coef
    return SchubertClass.from_terms(c.k, out)


def product(c1: SchubertClass, c2: SchubertClass) -> SchubertClass:
    """Bilinear product via W(a,b) = W(1,1)^b * W(a-b,0)."""
    if c1.k != c2.k:
        raise ValueError("Grassmannian mismatch")
    k = c1.k
    acc: Dict[Shape, int] = {}
    for (a, b), coef in c1.terms:
        partial = pieri(c2, a - b) if a - b else c2
        for _ in range(b):
            partial = dual_pieri(partial)
        for s, c in partial.terms:
            acc[s] = acc.get(s, 0) + coef * c
    return SchubertClass.from_terms(k, acc)


# ---------------------------------------------------------------------------
# degree of the carrier of a line complex

@dataclass(frozen=True)
class CarrierDegree:
    k: int
    degree: int
    codim_complex: int       # sum of c(D) over effective directrices
    dim_complex: int         # expected dim of the complex inside G(2,k)
    dim_carrier: int         # expected projective dim of the carrier
    section_codim: int       # c(D_0), the cutting-down special class
    target: Shape
    product_class: SchubertClass
    assumptions: Tuple[str, ...] = (
        "assumes proper intersection",
        "assumes generically transverse intersection",
    )

    def to_jsonable(self) -> dict:
        return {"k": self.k, "degree": self.degree,
                "codim_complex": self.codim_complex,
                "dim_complex": self.dim_complex,
                "dim_carrier": self.dim_carrier,
                "section_codim": self.section_codim,
                "target": list(self.target),
                "product": self.product_class.to_jsonable(),
                "assumptions": list(self.assumptions)}


def carrier_degree(directrix_codims: Sequence[int], k: int,
                   depth: int) -> CarrierDegree:
    """Expected degree of the carrier cut out by directrices of the given
    ambient codimensions, for a complex of the given depth.

    Each directrix of codimension c meets a c-1 box condition; hyperplanes
    and the whole space impose nothing and drop.  The expected carrier
    dimension follows dim carrier = dim complex - depth + 2, a general-
    position linear section of that dimension is one more box condition,
    and the degree is the coefficient of W(k-2, k-1-depth) in the product.
    """
    cs = [c - 1 for c in directrix_codims if c - 1 > 0]
    codim_complex = sum(cs)
    if codim_complex > 2 * (k - 2):
        raise ValueError(
            f"codimension {codim_complex} exceeds dim G(2,{k}) = {2 * (k - 2)}")
    dim_complex = 2 * (k - 2) - codim_complex
    dim_carrier = dim_complex - depth + 2
    if dim_carrier < 1:
        raise ValueError(f"expected carrier dimension {dim_carrier} < 1")
    if dim_carrier > k - 1:  # the carrier lies in P^(k-1)
        raise ValueError(f"expected carrier dimension {dim_carrier} exceeds "
                         f"dim P^{k - 1} = {k - 1}")
    target = (k - 2, k - 1 - depth)
    _check_shape(target, k)  # inadmissible target = no meaningful degree
    section = dim_carrier - 1
    prod = unit(k)
    for c in cs:
        prod = pieri(prod, c)
    prod = pieri(prod, section)
    return CarrierDegree(k, prod.coefficient(target), codim_complex,
                         dim_complex, dim_carrier, section, target, prod)
