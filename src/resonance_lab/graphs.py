"""Graphs on matroid ground sets: blocks, cone vertices, neighborliness.

Blocks are maximal cliques (Bron-Kerbosch with pivoting; n stays tiny here).
A graph is neighborly for a matroid when its clique structure is closed
against the matroid's lines; two readings of that are exposed, see
`is_neighborly`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from .matroid import Matroid, format_line, parse_points

__all__ = ["Graph", "from_blocks", "parse_graph", "is_neighborly"]

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Graph:
    n: int
    edges: FrozenSet[Edge]  # each edge a sorted pair

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]) -> "Graph":
        es = set()
        for e in edges:
            i, j = sorted(e)
            if not (1 <= i < j <= n):
                raise ValueError(f"bad edge {(i, j)} for n={n}")
            es.add((i, j))
        return cls(n, frozenset(es))

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    @cached_property
    def _adjacency(self) -> Dict[int, FrozenSet[int]]:
        """The neighbors of every vertex, from one pass over the edges."""
        adj: Dict[int, Set[int]] = {v: set() for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return {v: frozenset(nb) for v, nb in adj.items()}

    def neighbors(self, v: int) -> frozenset:
        return self._adjacency.get(v, frozenset())

    def is_clique(self, points: Iterable[int]) -> bool:
        pts = sorted(set(points))
        return all((a, b) in self.edges for a, b in combinations(pts, 2))

    @cached_property
    def blocks(self) -> Tuple[Tuple[int, ...], ...]:
        """Maximal cliques, sorted; isolated vertices appear as singletons."""
        adj = self._adjacency
        out = []

        def bron_kerbosch(r, p, x):
            if not p and not x:
                out.append(tuple(sorted(r)))
                return
            pivot = max(p | x, key=lambda u: len(adj[u] & p))
            for v in sorted(p - adj[pivot]):
                bron_kerbosch(r | {v}, p & adj[v], x & adj[v])
                p = p - {v}
                x = x | {v}

        bron_kerbosch(set(), set(range(1, self.n + 1)), set())
        return tuple(sorted(out))

    @cached_property
    def cone_vertices(self) -> Tuple[int, ...]:
        return tuple(v for v, nb in self._adjacency.items()
                     if len(nb) == self.n - 1)

    def x_gamma(self, m: Matroid) -> Tuple[Tuple[int, ...], ...]:
        """Nontrivial lines of m that are not cliques of this graph."""
        if m.n != self.n:
            raise ValueError("ground-set size mismatch")
        return tuple(X for X in m.lines if not self.is_clique(X))

    def __repr__(self):
        return f"Graph({'|'.join(format_line(b) for b in self.blocks)})"


def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> Graph:
    """Graph whose edge set is the union of cliques on the given blocks."""
    edges = []
    for b in blocks:
        edges.extend(combinations(sorted(set(b)), 2))
    return Graph.from_edges(n, edges)


def parse_graph(text: str, n: int) -> Graph:
    """Parse block notation like "127|3|4|5|6" (α, β, γ = 10, 11, 12)."""
    return from_blocks(n, [parse_points(part) for part in text.split("|")])


def is_neighborly(graph: Graph, m: Matroid, mode: str = "clique-closure") -> bool:
    """Whether the graph respects the matroid's lines.

    clique-closure (default): for every line X and every i in X, if X - {i}
    is a clique then X is a clique.  strict-block: for every line X and every
    block S, |X ∩ S| >= |X| - 1 forces X ⊆ S.  The first is the reading all
    the worked examples satisfy; the literal second one rejects some of them.
    """
    if m.n != graph.n:
        raise ValueError("ground-set size mismatch")
    if mode == "clique-closure":
        for X in m.all_lines:
            if graph.is_clique(X):
                continue
            for i in X:
                rest = [j for j in X if j != i]
                if graph.is_clique(rest):
                    return False
        return True
    if mode == "strict-block":
        for X in m.all_lines:
            xs = set(X)
            for S in graph.blocks:
                if len(xs & set(S)) >= len(X) - 1 and not xs <= set(S):
                    return False
        return True
    raise ValueError(f"unknown mode {mode!r}")
