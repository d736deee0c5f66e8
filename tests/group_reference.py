"""Reference grouping of scan points, one weight at a time.

`group_by_graph` checks every (lambda, eta) pair with `osalg.pair_graph`,
which evaluates a_lambda ∧ a_eta through `Ring` arithmetic and raises
ValueError unless the wedge vanishes and eta is not parallel to lambda, and
groups the points by the pair's graph.  It shares nothing with the table
gathers of `oracle._group_by_graph`, so the scan's groups can be held to
it group for group.
"""

from resonance_lab.osalg import pair_graph


def group_by_graph(found, m, ring):
    """Groups of the points of `found`, (lambda, eta) pairs in report
    order, keyed by the graph of the pair and sorted by its repr."""
    by_graph = {}
    for lam, eta in found:
        g = pair_graph(lam, eta, m, ring)
        by_graph.setdefault(g.edges, (g, []))[1].append(lam)
    ordered = sorted(by_graph.values(), key=lambda t: repr(t[0]))
    return tuple((g, tuple(pts)) for g, pts in ordered)
