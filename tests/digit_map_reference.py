"""Reference digit maps and candidate order for the scans, one entry at a
time.

`k_rows` projects the Z_Gamma(lambda) rows onto K through `Ring.sum` and
`Ring.mul`, and `digit_map` splits each entry into its base-p digits in a
Python loop.  They share nothing with the digit-wise matmuls of
`oracle._restrict` or the numpy digit split of `_kernels.build_digit_map`
beyond the exact row builders, so the scans' maps can be held to them
entry for entry.  `projective_points` lists the projective
candidates with `itertools`, independently of the index arithmetic of
`_kernels.decode_candidates`, and `frobenius_image` applies x -> x^p in
`Ring` arithmetic, independently of the kernel's Frobenius table.
"""

import itertools
from typing import List

import numpy as np

from resonance_lab import _kernels
from resonance_lab.neighborly import zgamma_rows
from resonance_lab.rings import IntegersModN


def k_rows(lam, graph, m, ring, kb) -> List[tuple]:
    """Rows of the Z_Gamma(lambda) system projected onto K: each ambient
    row r becomes (r . b for b in kb), so the kernel is in K-coordinates."""
    return [tuple(ring.sum(ring.mul(row[i], b[i]) for i in range(m.n))
                  for b in kb) for row in zgamma_rows(lam, graph, m, ring)]


def digit_map(system_rows, basis, ring, ncols):
    """(L, nrows, ncols) laid out as `_kernels.build_digit_map` lays it out:
    column (i, t) holds the base-p digits of the flattened rows for the
    basis vector i scaled by x^t."""
    if isinstance(ring, IntegersModN):
        p, kext = ring.n, 1
    else:
        p, kext, _ = _kernels.field_params(ring)
    cols, nrows = [], -1
    for b in basis:
        for t in range(kext):
            rows = system_rows(tuple(ring.mul(p ** t, x) for x in b))
            if nrows < 0:
                nrows = len(rows)
            col = []
            for r in rows:
                for e in r:
                    v = int(e)
                    for _ in range(kext):
                        col.append(v % p)
                        v //= p
            cols.append(col)
    L = np.array(cols, dtype=np.int64).reshape(
        len(cols), nrows * ncols * kext).T
    return L, nrows, ncols


def component_map(graph, m, ring, kb):
    """The reference digit map of a component scan over K = span(kb)."""
    return digit_map(lambda lam: k_rows(lam, graph, m, ring, kb), kb, ring,
                     len(kb))


def canon(vec, ring) -> tuple:
    """Canonical projective representative: first nonzero coordinate one."""
    lead = next((x for x in vec if x != ring.zero), None)
    if lead is None:
        return tuple(vec)
    u = ring.inv(lead)
    return tuple(ring.mul(u, x) for x in vec)


def projective_points(q, dim) -> List[tuple]:
    """Every projective representative of (Z/q)^dim in candidate order: by
    the position of the leading one, then lexicographically in the
    coordinates after it."""
    return [(0,) * lead + (1,) + rest for lead in range(dim)
            for rest in itertools.product(range(q), repeat=dim - 1 - lead)]


def frobenius_image(v, ring) -> tuple:
    """v with every coordinate raised to the p-th power in Ring arithmetic."""
    out = []
    for x in v:
        y = ring.one
        for _ in range(ring.p):
            y = ring.mul(y, x)
        out.append(y)
    return tuple(out)
