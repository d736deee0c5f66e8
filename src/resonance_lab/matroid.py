"""Simple rank-2/3 matroids given by their nontrivial lines, plus fixtures.

A matroid here is a partial linear space: ground set [n] (1-indexed) and a
set of nontrivial lines (size >= 3, pairwise meeting in at most one point).
Every pair not covered by a nontrivial line is a trivial line.  Point labels
beyond 9 print as the greek digits α, β, γ (values 10, 11, 12).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from itertools import combinations
from typing import Iterable, Sequence, Tuple

from .rings import Matrix, Ring

__all__ = [
    "Matroid",
    "from_lines",
    "load_matroid",
    "catalog",
    "catalog_names",
    "line_of",
    "incidence_matrix",
    "point_label",
    "parse_points",
    "format_line",
]

_EXTRA_LABELS = {"α": 10, "β": 11, "γ": 12, "a": 10, "b": 11, "c": 12}
_LABELS = "0123456789αβγ"


def point_label(i: int) -> str:
    return _LABELS[i] if 0 <= i <= 12 else str(i)


def parse_points(text: str) -> Tuple[int, ...]:
    """Parse "148γ" or "1,4,8,12" into a point tuple."""
    text = text.strip()
    if "," in text:
        return tuple(int(t) for t in text.split(","))
    out = []
    for ch in text:
        if ch in _EXTRA_LABELS:
            out.append(_EXTRA_LABELS[ch])
        elif ch.isdigit():
            out.append(int(ch))
        else:
            raise ValueError(f"bad point label {ch!r} in {text!r}")
    return tuple(out)


def format_line(line: Iterable[int]) -> str:
    return "".join(point_label(i) for i in line)


@dataclass(frozen=True)
class Matroid:
    n: int
    lines: Tuple[Tuple[int, ...], ...]  # nontrivial lines, each sorted; sorted
    name: str = ""

    @property
    def rank(self) -> int:
        if self.n <= 2:
            return 2
        full = tuple(range(1, self.n + 1))
        return 2 if self.lines == (full,) else 3

    # the line lists are computed once per matroid: like `Graph.blocks`,
    # they live in the instance dict, outside the fields that == and hash see
    @cached_property
    def trivial_lines(self) -> Tuple[Tuple[int, int], ...]:
        covered = set()
        for L in self.lines:
            covered.update(combinations(L, 2))
        return tuple(p for p in combinations(range(1, self.n + 1), 2)
                     if p not in covered)

    @cached_property
    def all_lines(self) -> Tuple[Tuple[int, ...], ...]:
        """X(m): nontrivial and trivial lines together, lexicographic."""
        return tuple(sorted(self.lines + self.trivial_lines))

    def second_whitney(self) -> int:
        """dim A^2 = sum over lines of (|X| - 1); row count of any d_lambda."""
        return sum(len(X) - 1 for X in self.all_lines)

    def __repr__(self):
        label = self.name or f"matroid(n={self.n})"
        return f"{label}[n={self.n}, rank {self.rank}, lines {[format_line(L) for L in self.lines]}]"


def from_lines(n: int, nontrivial_lines: Iterable[Sequence[int]], name: str = "") -> Matroid:
    lines = sorted(tuple(sorted(set(L))) for L in nontrivial_lines)
    for L in lines:
        if len(L) < 3:
            raise ValueError(f"nontrivial line {L} has fewer than 3 points")
        if L[0] < 1 or L[-1] > n:
            raise ValueError(f"line {L} out of range 1..{n}")
    for A, B in combinations(lines, 2):
        if len(set(A) & set(B)) >= 2:
            raise ValueError(f"lines {A} and {B} share two points")
    return Matroid(n, tuple(lines), name)


def line_of(m: Matroid, i: int, j: int):
    """Closure of {i,j}: the unique nontrivial line through both, else {i,j}."""
    if i == j or not (1 <= i <= m.n and 1 <= j <= m.n):
        raise ValueError(f"bad point pair ({i},{j})")
    for L in m.lines:
        if i in L and j in L:
            return L
    return tuple(sorted((i, j)))


def incidence_matrix(m: Matroid, lines: Iterable[Sequence[int]], ring: Ring) -> Matrix:
    """0/1 point-line incidence matrix; one row per line, in the given order."""
    all_x = set(m.all_lines)
    rows = []
    for L in lines:
        key = tuple(sorted(L))
        if key not in all_x:
            raise ValueError(f"{key} is not a line of {m.name or m}")
        rows.append([ring.one if j in key else ring.zero
                     for j in range(1, m.n + 1)])
    return Matrix.from_rows(ring, rows, width=m.n)


def load_matroid(path) -> Matroid:
    with open(path) as fh:
        data = json.load(fh)
    return from_lines(data["n"], data["lines"], data.get("name", ""))


_CATALOG_FILES = {
    "braid-K4": "braid-K4.json",
    "nonfano": "nonfano.json",
    "deletedB3": "deletedB3.json",
    "olive-samansky": "olive-samansky.json",
    "hessian": "hessian.json",
}


def catalog_names() -> list:
    return sorted(_CATALOG_FILES) + ["pencil-<n>"]


@lru_cache(maxsize=None)
def catalog(name: str) -> Matroid:
    if name.startswith("pencil-"):
        n = int(name.split("-", 1)[1])
        if n < 3:
            raise ValueError("pencil needs n >= 3")
        return from_lines(n, [range(1, n + 1)], name)
    fname = _CATALOG_FILES.get(name)
    if fname is None:
        raise ValueError(f"unknown matroid {name!r}; try one of {catalog_names()}")
    data = json.loads(resources.files("resonance_lab.fixtures").joinpath(fname).read_text())
    return from_lines(data["n"], data["lines"], data["name"])
