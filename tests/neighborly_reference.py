"""Brute-force reference for the neighborly partition enumeration.

Builds the graph of every (cone set, set partition) pair, Bell(n + 1) of
them, and keeps the neighborly ones with `is_neighborly`.  This is the
unpruned walk: cone sets by size, then in `itertools.combinations` order,
partitions of the other points in `set_partitions` order, first occurrence
of each edge set kept.  It shares no code with the pruned walk in
`neighborly._partition_walk` beyond `Graph` and `is_neighborly`.
"""

import itertools
from functools import lru_cache
from typing import Iterator, List

from resonance_lab.graphs import Graph, is_neighborly
from resonance_lab.matroid import Matroid
from resonance_lab.neighborly import (DEFAULT_ELEMENT_CAP, _k_has_pair,
                                      set_partitions)
from resonance_lab.rings import Ring


def partition_graphs(n: int) -> Iterator[Graph]:
    """Every cone-set-and-partition graph on 1..n, duplicates included."""
    verts = list(range(1, n + 1))
    for size in range(n + 1):
        for cone in itertools.combinations(verts, size):
            rest = [v for v in verts if v not in cone]
            for blocks in set_partitions(rest):
                edges = set()
                for b in blocks:
                    edges.update(itertools.combinations(b, 2))
                for c in cone:
                    edges.update(tuple(sorted((c, v))) for v in verts if v != c)
                yield Graph.from_edges(n, edges)


def dedup(graphs) -> List[Graph]:
    """First occurrence of each edge set, in order."""
    out, seen = [], set()
    for g in graphs:
        if g.edges not in seen:
            seen.add(g.edges)
            out.append(g)
    return out


@lru_cache(maxsize=None)
def reference_candidates(m: Matroid) -> tuple:
    """Distinct neighborly partition graphs, in first-occurrence order."""
    return tuple(g for g in dedup(partition_graphs(m.n)) if is_neighborly(g, m))


def reference_enumeration(m: Matroid, ring: Ring, full_support: bool = False,
                          cap: int = DEFAULT_ELEMENT_CAP) -> List[Graph]:
    """What `enumerate_neighborly(m, ring, True, full_support, cap)` returned
    when it filtered the unpruned walk."""
    return [g for g in reference_candidates(m)
            if not (full_support and g.cone_vertices)
            and _k_has_pair(g, m, ring, cap)]
