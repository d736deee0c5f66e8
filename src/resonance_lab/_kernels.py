"""Hot scan loops: batched nullity of candidate-indexed system matrices.

For the scans, the map from a candidate weight to its system matrix is
linear over the prime field in the base-p digits of the candidate's
coordinates.  Each scan therefore precomputes one integer digit matrix L by
evaluating the exact reference row builder on unit digit inputs; a candidate
then costs a small matmul, batched over blocks of candidates in numpy, plus
a Gaussian elimination through the ring's add/mul/neg/inv lookup tables.
Candidates are indexed by projective representative (first nonzero
coordinate one), ordered by the position of that leading one and then
lexicographically in the remaining coordinates.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from .rings import ExtensionField, PrimeField, Ring

__all__ = [
    "backend_name",
    "field_params",
    "projective_total",
    "lead_offsets",
    "decode_candidate",
    "projective_points",
    "build_digit_map",
    "scan_nullities",
]


def backend_name() -> str:
    """Name of the scan kernel, recorded alongside benchmark results."""
    return "numpy"


def field_params(ring: Ring) -> Tuple[int, int, int]:
    """(p, extension degree, q) for a finite field."""
    if isinstance(ring, PrimeField):
        return ring.p, 1, ring.p
    if isinstance(ring, ExtensionField):
        return ring.p, ring.k, ring.cardinality
    raise ValueError(f"scan kernels need a finite field, not {ring.spec}")


def projective_total(q: int, dim: int) -> int:
    """Number of projective representatives (first nonzero coordinate = 1)."""
    return (q ** dim - 1) // (q - 1)


def lead_offsets(q: int, dim: int) -> np.ndarray:
    """offsets[i] = first candidate index whose leading coordinate is i."""
    offs = np.zeros(dim + 1, dtype=np.int64)
    for i in range(dim):
        offs[i + 1] = offs[i] + q ** (dim - 1 - i)
    return offs


def decode_candidate(g: int, q: int, dim: int) -> tuple:
    """Coordinate encodings of the g-th projective representative."""
    offs = lead_offsets(q, dim)
    lead = int(np.searchsorted(offs, g, side="right")) - 1
    rem = g - int(offs[lead])
    coords = [0] * dim
    coords[lead] = 1
    for j in range(dim - 1 - lead):
        coords[dim - 1 - j] = rem % q
        rem //= q
    return tuple(coords)


def projective_points(q: int, dim: int) -> Iterator[tuple]:
    """Every projective representative in candidate order:
    ``list(projective_points(q, dim))[g] == decode_candidate(g, q, dim)``."""
    for lead in range(dim):
        head = (0,) * lead + (1,)
        for rest in itertools.product(range(q), repeat=dim - 1 - lead):
            yield head + rest


def build_digit_map(system_rows: Callable[[tuple], Sequence[Sequence[int]]],
                    basis: Sequence[tuple], ring: Ring
                    ) -> Tuple[np.ndarray, int, int]:
    """Digit matrix of the candidate -> system-matrix map.

    Column (i, t) holds the base-p digits of the flattened matrix the exact
    row builder produces for the basis vector i scaled by x^t, which pins the
    kernels to the reference implementation entry for entry.
    """
    p, kext, _ = field_params(ring)
    dim = len(basis)
    cols: List[np.ndarray] = []
    nrows = ncols = -1
    for i in range(dim):
        for t in range(kext):
            scalar = p ** t  # the encoding of x^t
            lam = tuple(ring.mul(scalar, x) for x in basis[i])
            rows = system_rows(lam)
            if nrows < 0:
                nrows = len(rows)
                ncols = len(rows[0]) if rows else 0
            col = np.zeros(nrows * ncols * kext, dtype=np.int64)
            pos = 0
            for r in rows:
                for e in r:
                    v = int(e)
                    for _ in range(kext):
                        col[pos] = v % p
                        v //= p
                        pos += 1
            cols.append(col)
    if not cols:
        raise ValueError("empty basis: nothing to scan")
    L = np.stack(cols, axis=1)
    return L, nrows, ncols


def scan_nullities(L: np.ndarray, ring: Ring, dim: int, nrows: int, ncols: int,
                   start: int, stop: int) -> np.ndarray:
    """Nullity of the system matrix for projective candidates start..stop-1."""
    p, kext, q = field_params(ring)
    offs = lead_offsets(q, dim)
    add, mul, neg, inv = _tables_for(ring)
    out = np.zeros(stop - start, dtype=np.uint8)
    if stop <= start:
        return out
    _scan_numpy(L, dim, kext, p, q, nrows, ncols, offs,
                add, mul, neg, inv, start, stop, out)
    return out


_TABLE_CACHE: dict = {}


def _tables_for(ring: Ring):
    key = ring.spec
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = ring.tables()
    return _TABLE_CACHE[key]


def _scan_numpy(L, dim, kext, p, q, nrows, ncols, offs,
                add, mul, neg, inv, start, stop, out, block: int = 4096):
    pw = p ** np.arange(kext, dtype=np.int64)
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        gs = np.arange(lo, hi, dtype=np.int64)
        lead = np.searchsorted(offs, gs, side="right") - 1
        rem = gs - offs[lead]
        B = hi - lo
        coords = np.zeros((B, dim), dtype=np.int64)
        coords[np.arange(B), lead] = 1
        for pos in range(dim - 1, 0, -1):
            m = pos > lead
            if m.any():
                coords[m, pos] = rem[m] % q
                rem[m] //= q
        digits = ((coords[:, :, None] // pw) % p).reshape(B, dim * kext)
        mdig = (digits @ L.T) % p
        mats = (mdig.reshape(B, nrows * ncols, kext) @ pw).reshape(
            B, nrows, ncols).astype(np.int16)
        for b in range(B):
            out[lo - start + b] = ncols - _rank_tables(mats[b], add, mul, neg, inv)


def _rank_tables(M, add, mul, neg, inv) -> int:
    R, C = M.shape
    rank = 0
    for c in range(C):
        piv = -1
        for i in range(rank, R):
            if M[i, c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != rank:
            M[[rank, piv]] = M[[piv, rank]]
        f = inv[M[rank, c]]
        if f != 1:
            M[rank] = mul[f, M[rank]]
        below = M[rank + 1:, c]
        nz = np.nonzero(below)[0]
        if nz.size:
            idx = nz + rank + 1
            facs = M[idx, c]
            M[idx] = add[M[idx], neg[mul[facs[:, None], M[rank][None, :]]]]
        rank += 1
        if rank == R:
            break
    return rank
