"""Hot scan loops: batched elimination of candidate-indexed system matrices.

For the scans, the map from a candidate weight to its system matrix is
linear over the prime field in the base-p digits of the candidate's
coordinates (over Z/p^k: linear over Z/p^k in the coordinates themselves,
read as one base-p^k digit each).  Each scan therefore precomputes one
integer digit matrix L, `build_digit_map`, from the system's integer
coefficients: every entry the scans eliminate is a 0/±1 combination of the
candidate's coordinates, read off the matroid's lines and the graph's
edges, and an integer coefficient acts on each base-p digit on its own, so
L is the coefficient matrix mod p tensored with the k x k identity, with
no `Ring` arithmetic at all.  A block of candidates then costs one matmul
(exact at these sizes) and one elimination of the whole (B, R, C) block at
once, whose steps are numpy operations on all B matrices with ring
arithmetic through add/mul lookup tables plus negmul = -(a*b).

Every candidate lies in the kernel of its own system, so every nullity is
at least 1: d_lambda lambda = 0 because a_lambda ^ a_lambda = 0, and a
component's system at c = (c_i) is M_K(c) = rows(lambda) K^T with lambda =
sum c_i K_i, so M_K(c) c = rows(lambda) lambda = 0 as lambda lies in
Z_Gamma(lambda).  `scan_nullities` checks this once per call on the
nonzero digit rows (`_check_self_kernel`; a digit row that is zero is
zero at every candidate) and raises `ValueError` otherwise.  Almost no
candidate is resonant, so the scan certifies nullity 1 on a sketch first:
S M(lambda), with S a fixed r1 x R matrix over F_p for the R nonzero rows
and r1 = C - 1 + e a few rows more than a nullity-1 system of C columns
needs (a random combination of the rows keeps the rank of such a system
with high probability; Cheung, Kwok & Lau, "Fast matrix rank algorithms
and applications", J. ACM 60(5), 2013).  The rows of S M(lambda) are
combinations of those of M(lambda), so nullity(S M) >= nullity(M) >= 1
and a sketch nullity of 1 proves nullity 1; only the candidates whose
sketch nullity is at least 2 are eliminated again on all R rows.  The
nullities are therefore the same for every S, and S changes only how many
candidates take the second stage; rows that repeat or combine others cost
elimination work but change no nullity.

Over F_{p^k} the field scan also eliminates only one candidate per orbit of
the Frobenius sigma(x) = x^p.  Every system the scans build has its
coefficients in F_p (d_lambda is integer-linear in lambda, and a component's
K is the RREF kernel of a 0/1 matrix), so M(sigma lambda) = sigma(M(lambda))
and both have the same rank.  `scan_nullities` checks this on the digit map
once per call (L commutes with the k x k F_p matrix of sigma) and raises
`ValueError` otherwise.  sigma maps a candidate with leading one to another
(`_encode_candidates` numbers it, the inverse of `decode_candidates`); each
candidate copies the nullity of the least index of its orbit at or after
the window's start, so any window stays exact.  Prime fields
have sigma = 1 and eliminate every candidate.

Fields and Z/p^k are both finite chain rings: every nonzero element is a
unit times p^v, and a field is the case k = 1 with maximal ideal 0.  One
elimination, `_block_length`, serves both: it walks the columns once,
pivots on an entry of least valuation v in each, clears the column in the
other rows with the exact quotients b // p^v and leaves p^(k - v) times
the scaled pivot row in its place (Howell's saturation row, zero over a
field).  The row module has length sum (k - v) over the columns, so the
kernel has p^(k*C - length) elements; over a field the length is the rank.
`scan_nullities` returns C - length for projective candidates;
`scan_lengths` returns the length for every tuple of (Z/p^k)^dim.  A plain
pivot on the first nonzero entry would be wrong there, since over Z4 the
row (2, 1) spans 4 elements, not 2.  `_min_valuations` gives the least
valuation of each tuple's coordinates, which fixes the length of the
parallel locus's row module.

The weights a scan reports need an explicit partner, and every ring gets
it the same way: `_systems` builds the (B, R, n) stack of their systems,
and one elimination of the stack returns (K, valid), a (B, n, n) stack of
generators and its row mask.  Over F_q, `echelon_kernels` takes one
reduced row echelon form, whose valid rows are `rings.kernel_field`'s
basis.  Over Z/N, `_smith_kernels` replays the integer Smith form of
[M | N*I] step by step on trailing blocks, then `rings.howell_form` in
lockstep; it keeps the column transform mod N, and hands each matrix
whose own entries outgrow a bound back to `kernel_modn` before an int64
product could overflow, while the rest of the stack goes on; row c of
K[b] is the `kernel_modn` generator with pivot column c.

Candidates are numbered in one of two orders, with one decoder each.
Tuples of (Z/q)^dim follow `itertools.product` order: tuple g has the
base-q digits of g as coordinates, most significant first
(`_product_digits`).  Projective candidates are the representatives with
first nonzero coordinate one, ordered by the position i of that leading
one and then lexicographically; candidate g with its lead at i is the
product-order tuple g - offs[i] + q^(dim-1-i), where offs[i] counts the
candidates leading before i (`decode_candidates`).  Every scan, carrier
decode and exhaustive walk of the package goes through these two.
Z/N for composite N splits into its prime-power factors by the Chinese
remainder theorem; the caller scans each factor and joins the answers.
"""

from __future__ import annotations

import random
from typing import Tuple

import numpy as np

from .rings import (ExtensionField, IntegersModN, Matrix, PrimeField, Ring,
                    _unit_to_divisor, kernel_modn, prime_power_factors)

__all__ = [
    "backend_name",
    "field_params",
    "projective_total",
    "decode_candidates",
    "build_digit_map",
    "ring_product",
    "projective_canon",
    "scan_nullities",
    "echelon_kernels",
    "chain_params",
    "scan_lengths",
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


def chain_params(ring: Ring) -> Tuple[int, int]:
    """(p, k) for Z/p^k."""
    if isinstance(ring, IntegersModN):
        factors = prime_power_factors(ring.n)
        if len(factors) == 1:
            return factors[0]
    raise ValueError(f"chain ring kernels need Z/p^k, not {ring.spec}")


def projective_total(q: int, dim: int) -> int:
    """Number of projective representatives (first nonzero coordinate = 1)."""
    return (q ** dim - 1) // (q - 1)


def build_digit_map(coeffs: np.ndarray,
                    ring: Ring) -> Tuple[np.ndarray, int, int]:
    """Digit matrix of the candidate -> system-matrix map, as (L, nrows,
    ncols), from the integer coefficient tensor C = coeffs of shape (nrows,
    ncols, n): entry (r, j) of the system at lambda is sum_i C[r, j, i]
    lambda_i.

    Row (r, j, t') and column (i, t) of L hold digit t' of entry (r, j) of
    the system at x^t e_i.  An integer coefficient c acts on each base-p
    digit of an element on its own, as c mod p (the argument of
    `oracle._restrict`), so that digit is (C[r, j, i] mod p) [t' = t]: L is
    (C mod p) ⊗ I_k.  Z/N counts as modulus N with extension degree 1: one
    column per coordinate, holding the coefficients mod N.  A tensor with
    no coordinates (n = 0) raises `ValueError`.
    """
    if isinstance(ring, IntegersModN):
        p, kext = ring.n, 1
    else:
        p, kext, _ = field_params(ring)
    C = np.asarray(coeffs, dtype=np.int64)
    nrows, ncols, n = C.shape
    if not n:
        raise ValueError("a system of no coordinates: nothing to scan")
    return (np.kron(C.reshape(nrows * ncols, n) % p,
                    np.eye(kext, dtype=np.int64)), nrows, ncols)


def ring_product(A: np.ndarray, B: np.ndarray, ring: Ring) -> np.ndarray:
    """A @ B over a finite field or Z/p^k, through the ring's add and mul
    tables: A (R, n) and B (n, D) hold element encodings, n >= 1.  One mul
    gather builds every product A[r, i] * B[i, d], and n - 1 add gathers
    sum them over i; the (R, D) result has the tables' dtype."""
    add, mul = _chain_tables_for(ring)[:2]
    terms = mul[np.asarray(A, dtype=np.intp)[:, :, None],
                np.asarray(B, dtype=np.intp)[None, :, :]]  # (R, n, D)
    out = terms[:, 0]
    for i in range(1, terms.shape[1]):
        out = add[out, terms[:, i]]
    return out


def projective_canon(P: np.ndarray, ring: Ring) -> np.ndarray:
    """Each row of P over a finite field scaled so that its first nonzero
    entry is one; zero rows stay zero."""
    tables = _chain_tables_for(ring)
    mul, inv = tables[1], tables[4]  # unit is inv over a field
    lead = P[np.arange(P.shape[0]), (P != 0).argmax(1)]
    return mul[inv[lead][:, None], P]


def decode_candidates(gs: np.ndarray, q: int, dim: int) -> np.ndarray:
    """Coordinate encodings of the projective candidates gs, one int64 row
    each.  Candidate g with its leading one at position i is the
    `itertools.product`-order tuple number g - offs[i] + q^(dim-1-i), where
    offs[i] = q^(dim-1) + ... + q^(dim-i) counts the candidates that lead
    at an earlier position: the tuples that lead at i are exactly those
    numbered q^(dim-1-i) .. 2 q^(dim-1-i) - 1 in product order."""
    place, offs = _projective_offsets(q, dim)
    lead = np.searchsorted(offs, gs, side="right") - 1
    return _product_digits(gs - offs[lead] + place[lead], q, dim)


def _encode_candidates(coords: np.ndarray, q: int, dim: int) -> np.ndarray:
    """Candidate numbers of the projective points coords (first nonzero
    coordinate one), the inverse of `decode_candidates`."""
    place, offs = _projective_offsets(q, dim)
    lead = (coords != 0).argmax(1)
    return coords @ place - place[lead] + offs[lead]


def _projective_offsets(q: int, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """place[i] = q^(dim-1-i), the product-order weight of coordinate i,
    and offs[i], the number of candidates that lead before position i."""
    place = q ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    return place, np.concatenate(([0], np.cumsum(place)))


def _projective_walk(q: int, dim: int):
    """The projective candidates of (F_q)^dim in order, one int64 row each,
    decoded `_BLOCK` at a time: a walk that stops early decodes at most one
    block beyond the candidates it visits."""
    total = projective_total(q, dim)
    for lo in range(0, total, _BLOCK):
        gs = np.arange(lo, min(lo + _BLOCK, total), dtype=np.int64)
        yield from decode_candidates(gs, q, dim)


def _product_digits(gs: np.ndarray, q: int, dim: int) -> np.ndarray:
    """The tuples gs of (Z/q)^dim in `itertools.product` order, most
    significant coordinate first, one int64 row each."""
    return (gs[:, None] // q ** np.arange(dim - 1, -1, -1, dtype=np.int64)) % q


def scan_nullities(L: np.ndarray, ring: Ring, dim: int, nrows: int, ncols: int,
                   start: int, stop: int) -> np.ndarray:
    """Nullity of the system matrix for projective candidates start..stop-1.

    `nrows` is the nominal row count, the one `build_digit_map` returns.
    Each row's block of L, reshaped to one vector, gives that row as a
    linear function of the candidate's digits; only the nonzero digit rows
    are eliminated, since a zero one is zero at every candidate.  An
    all-zero map gives nullity `ncols` for every candidate without any
    block.

    Every candidate lies in the kernel of its own system, M(lambda) lambda
    = 0, so its nullity is at least 1.  This holds for both callers:
    d_lambda lambda = 0 because a_lambda ^ a_lambda = 0, and a component
    system at c is M_K(c) = rows(lambda) K^T with lambda = sum c_i K_i, so
    M_K(c) c = rows(lambda) lambda = 0 as lambda lies in Z_Gamma(lambda).
    That premise is checked once per call on the nonzero digit rows
    (`_check_self_kernel`), and the elimination runs in two stages.  With
    R nonzero digit rows and r1 = ncols - 1 + e < R rows (e = 3 over F2, 2
    over F3 and F4, 1 otherwise), a fixed r1 x R matrix S over F_p, drawn
    from `random.Random(0)`, gives the sketch S M(lambda): S has F_p
    entries, and an F_p combination of digit rows is the same combination
    of the F_q entries, so S times the digit rows is again a digit map.
    Every candidate is eliminated on the sketch, and only those whose
    sketch nullity is at least 2 again on all R rows.  This is exact for
    every S, and for rows that repeat or combine others: the rows of
    S M(lambda) are combinations of those of M(lambda), so
    nullity(S M(lambda)) >= nullity(M(lambda)) >= 1, and a sketch nullity
    of 1 proves nullity 1.  S changes only how many candidates reach the
    second stage (almost none are resonant).  A sketch nullity of 0 would
    contradict the premise and raises `ValueError`.  When r1 >= R all R
    rows are eliminated once.

    Over F_q = F_{p^k} only one candidate per Frobenius orbit is
    eliminated.  Let sigma(x) = x^p act on each coordinate, and Phi be the
    k x k F_p matrix of sigma on one coordinate's digits.  The block of L
    for an entry e and a basis vector i is the F_p matrix of the linear map
    a -> M(a b_i)[e]; if every such block commutes with Phi (mod p), then
    M(sigma lambda) = sigma(M(lambda)) entry by entry, and since sigma is a
    field automorphism, rank M(sigma lambda) = rank M(lambda).  The check
    runs once per call and raises `ValueError` when it fails.  It holds for
    every caller: d_lambda is integer-linear in lambda, and a component
    system is integer-linear in lambda = sum c_i K_i projected onto the
    rows K_i of `k_gamma`, whose entries lie in F_p, so every entry is
    c -> c * (an element of F_p) and F_p is fixed by sigma.  The sketch
    keeps this, as S has F_p entries.  sigma keeps a leading one a leading
    one at the same position, so it permutes the candidates.  Each
    candidate g takes as representative the least index >= start of its
    orbit g, sigma g, ..., sigma^(k-1) g; that index is at most g, so its
    nullity is known by the time g's block fills in.  Only the candidates
    that are their own representative are eliminated, and orbit members
    before `start` do not count, so any window is exact on its own.  Over
    a prime field sigma is the identity and every candidate is its own
    representative.
    """
    p, kext, q = field_params(ring)
    width = L.shape[1]
    frob = _frobenius(L, ring, dim)
    rows = L.reshape(nrows, ncols * kext * width)
    rows = rows[rows.any(1)]
    nrows = rows.shape[0]
    if nrows == 0:
        return np.full(stop - start, ncols, dtype=np.uint8)
    _check_self_kernel(rows, ring, dim, ncols)
    r1 = ncols - 1 + (3 if q == 2 else 2 if q <= 4 else 1)
    sketched = r1 < nrows
    if sketched:
        rng = random.Random(0)
        S = np.array([[rng.randrange(p) for _ in range(nrows)]
                      for _ in range(r1)], dtype=np.int64)
        first = S @ rows % p
    else:
        first = rows
    tables = _chain_tables_for(ring)
    Lt1, Lt = (r.reshape(-1, width).T.astype(np.float64)
               for r in (first, rows))
    out = np.zeros(stop - start, dtype=np.uint8)
    for lo in range(start, stop, _BLOCK):
        hi = min(lo + _BLOCK, stop)
        gs = np.arange(lo, hi, dtype=np.int64)
        coords = decode_candidates(gs, q, dim)
        rep, image = gs, coords
        for _ in range(kext - 1):
            image = frob[image]
            g = _encode_candidates(image, q, dim)
            rep = np.where((g >= start) & (g < rep), g, rep)
        own = np.flatnonzero(rep == gs)
        digits = _digits(coords[own], p, kext)
        nul = ncols - _block_length(
            _digit_systems(digits, Lt1, ring, ncols), *tables)
        if not nul.all():
            raise ValueError("a candidate is missing from the kernel of its "
                             "own system")
        if sketched:
            redo = np.flatnonzero(nul >= 2)
            if redo.size:
                nul[redo] = ncols - _block_length(
                    _digit_systems(digits[redo], Lt, ring, ncols), *tables)
        out[lo - start + own] = nul
        out[lo - start:hi - start] = out[rep - start]
    return out


def _digit_systems(digits: np.ndarray, Lt: np.ndarray, ring: Ring,
                   ncols: int) -> np.ndarray:
    """The (B, R, ncols) systems over F_q of the candidates whose base-p
    digits are the float64 rows of `digits`, through the transposed digit
    map Lt (digits, R * ncols * k): one matmul, then each entry's k digits
    joined into its encoding."""
    p, kext, _ = field_params(ring)
    B, R = digits.shape[0], Lt.shape[1] // (ncols * kext)
    # float64 matmuls run in BLAS and stay exact: an entry of the product is
    # a sum of dim * kext digit products, each at most (p - 1)**2, far from
    # 2**53; the narrowest integer type holding that bound takes the % p
    dt = np.min_scalar_type((p - 1) ** 2 * digits.shape[1])
    mdig = ((digits @ Lt).astype(dt) % p).astype(
        _chain_tables_for(ring)[0].dtype, copy=False).reshape(
            B, R * ncols, kext)
    mats = mdig[:, :, 0].copy()
    for t in range(1, kext):
        mats += mdig[:, :, t] * (p ** t)
    return mats.reshape(B, R, ncols)


def _digits(coords: np.ndarray, p: int, kext: int) -> np.ndarray:
    """The base-p digits of the F_q encodings coords (B, dim), as float64
    rows (B, dim * kext), each coordinate's digits least significant
    first."""
    pw = p ** np.arange(kext, dtype=np.int64)
    coords = np.asarray(coords, dtype=np.int64)
    B, dim = coords.shape
    return (coords[:, :, None] // pw % p).reshape(
        B, dim * kext).astype(np.float64)


def _systems(L: np.ndarray, ring: Ring, coords: np.ndarray,
             ncols: int) -> np.ndarray:
    """The (B, R, ncols) system matrices, through the digit map L of
    `build_digit_map`, of the weights whose coordinate encodings are the
    rows of coords: the scan kernel's digit product over F_q, one integer
    product mod N over Z/N."""
    if isinstance(ring, IntegersModN):
        return (coords @ L.T % ring.n).reshape(
            len(coords), L.shape[0] // ncols, ncols)
    p, kext, _ = field_params(ring)
    return _digit_systems(_digits(coords, p, kext), L.T.astype(np.float64),
                          ring, ncols)


def echelon_kernels(M: np.ndarray,
                    ring: Ring) -> Tuple[np.ndarray, np.ndarray]:
    """`rings.kernel_field` of every matrix of the (B, R, C) stack M over a
    finite field, from one reduced row echelon form of the whole stack.

    Returns (K, valid), with valid (B, C) true at the columns of M[b] that
    hold no pivot.  For such a column f, K[b, f] is the vector that
    `kernel_field` builds for f: one at f, minus the RREF row's entry f at
    each pivot column, zero elsewhere; K[b][valid[b]] is kernel_field(M[b])
    vector for vector, and the rows of K at pivot columns are zero.  The
    reduced row echelon form of a matrix is unique, so the basis does not
    depend on how the pivots are found; like `rings.rref_field`, each
    matrix pivots on the first row at or below its next pivot row that is
    nonzero in the column, scales it to a leading one and clears the column
    in every other row, all matrices of the stack in one step per column,
    through the ring's tables.
    """
    add, mul, neg, inv = _ring_tables(ring)
    M = np.array(M, dtype=np.intp)
    B, R, C = M.shape
    rows = np.arange(R)
    nxt = np.zeros(B, dtype=np.intp)  # next pivot row of each matrix
    pivot_row = np.full((B, C), -1, dtype=np.intp)
    for c in range(C):
        cand = (M[:, :, c] != 0) & (rows >= nxt[:, None])
        b = np.flatnonzero(cand.any(1))
        if not b.size:
            continue
        i, r = cand[b].argmax(1), nxt[b]
        M[b, i], M[b, r] = M[b, r], M[b, i]
        piv = mul[inv[M[b, r, c]][:, None], M[b, r]]
        f = M[b, :, c]
        f[np.arange(b.size), r] = 0
        M[b] = add[M[b], neg[mul[f[:, :, None], piv[:, None, :]]]]
        M[b, r] = piv
        pivot_row[b, c] = r
        nxt[b] += 1
    valid = pivot_row < 0
    K = np.zeros((B, C, C), dtype=neg.dtype)
    # K[b, f, pc] = -(entry f of the RREF row that holds pivot column pc)
    b, pc = np.nonzero(~valid)
    K[b, :, pc] = neg[M[b, pivot_row[b, pc]]]
    K[~valid] = 0
    K[:, np.arange(C), np.arange(C)] = valid
    return K, valid


def _check_self_kernel(rows: np.ndarray, ring: Ring, dim: int,
                       ncols: int) -> None:
    """Raise `ValueError` unless M(lambda) lambda = 0 for every candidate
    lambda, where M is the system whose nonzero digit rows are `rows`.

    With digits d_u of lambda = sum d_u eps_u (u = (i, t), eps_u = x^t at
    coordinate i), M(lambda) lambda = sum_{u, v} d_u d_v B(u, v) with
    B(u, v) = M(eps_u) eps_v, an F_p-quadratic form in the digits.  Every
    coefficient of a polynomial of degree below p in each variable is read
    off its values on F_p (over F_2, d^2 = d and the form is multilinear),
    so the form vanishes identically iff B(u, u) = 0 and B(u, v) + B(v, u)
    = 0 for u < v.  Checking the nonzero digit rows suffices: a zero row
    is zero at every candidate, so its entry of M(lambda) lambda is 0."""
    if ncols != dim:
        raise ValueError(f"a system with {ncols} columns cannot have its "
                         f"{dim}-coordinate candidate in its kernel")
    p, kext, _ = field_params(ring)
    add, mul = _chain_tables_for(ring)[:2]
    width = dim * kext
    pw = p ** np.arange(kext, dtype=np.int64)
    # entries[row, u, j]: M(eps_u)[row, j] as an element of F_q
    entries = (rows.reshape(-1, ncols, kext, width)
               * pw[:, None]).sum(2).transpose(0, 2, 1)
    # B[row, u, v] with v = (j, s): M(eps_u)[row, j] x^s
    B = mul[entries[..., None], pw].reshape(-1, width, width)
    diag = np.arange(width)
    if B[:, diag, diag].any() or add[B, B.transpose(0, 2, 1)].any():
        raise ValueError("the system does not have each candidate in its "
                         "own kernel: M(lambda) lambda is not zero")


def _frobenius(L: np.ndarray, ring: Ring, dim: int) -> np.ndarray:
    """The table of x -> x^p on F_q, once the digit map L of `dim` basis
    vectors is checked to commute with it: L . Phi = Phi . L (mod p) on
    every (entry, basis vector) block of k x k digits, with Phi[t_out,
    t_in] the digit t_out of sigma(x^t_in).  Raises `ValueError` if not."""
    p, kext, q = field_params(ring)
    mul = _chain_tables_for(ring)[1]
    elems = np.arange(q, dtype=np.int64)
    frob = elems
    for _ in range(p - 1):
        frob = mul[frob, elems].astype(np.int64)
    if kext > 1:
        pw = p ** np.arange(kext, dtype=np.int64)
        phi = frob[pw][None, :] // pw[:, None] % p
        blocks = L.reshape(-1, kext, dim * kext)  # (entry, t_out, (i, t_in))
        left = (blocks.reshape(-1, kext) @ phi).reshape(blocks.shape)
        if ((left - phi @ blocks) % p).any():
            raise ValueError(
                f"the digit map does not commute with the Frobenius of "
                f"F_{q}: its coefficients are not all in F_{p}")
    return frob


def scan_lengths(L: np.ndarray, ring: Ring, dim: int, nrows: int, ncols: int,
                 start: int, stop: int) -> np.ndarray:
    """Length of the row module of the system matrix over Z/p^k for the
    tuples start..stop-1 of (Z/p^k)^dim in `itertools.product` order; the
    kernel has p^(k*ncols - length) elements."""
    chain_params(ring)  # raises unless ring is Z/p^k
    q = ring.n
    tables = _chain_tables_for(ring)
    Lt = L.T.astype(np.int64)
    out = np.zeros(stop - start, dtype=np.uint8)
    for lo in range(start, stop, _CHAIN_BLOCK):
        hi = min(lo + _CHAIN_BLOCK, stop)
        coords = _product_digits(np.arange(lo, hi, dtype=np.int64), q, dim)
        # an integer matmul: these blocks are too small to gain from BLAS,
        # whose first call would allocate its buffers
        mats = ((coords @ Lt) % q).reshape(
            hi - lo, nrows, ncols).astype(tables[0].dtype)
        out[lo - start:hi - start] = _block_length(mats, *tables)
    return out


def _min_valuations(ring: Ring, dim: int) -> np.ndarray:
    """Least p-adic valuation of the coordinates of every tuple of
    (Z/p^k)^dim, in the order of `scan_lengths` (k for the zero tuple):
    a uint8 broadcast minimum of `val` over the (q,)*dim grid."""
    val = _chain_tables_for(ring)[3]
    out = val
    for _ in range(dim - 1):
        out = np.minimum.outer(out, val)
    return out.ravel()


def _smith_kernels(mats: np.ndarray, ring: IntegersModN
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """`kernel_modn` of every matrix of the (B, R, n) int stack mats, as
    (K, valid): row c of K[b] is the generator of kernel_modn(mats[b]) with
    its pivot in column c, where valid[b, c], so the valid rows are its
    list.  The Smith form of every [M | N*I] is replayed step by step.

    U is not kept, and V keeps only its first n rows, the ones
    `kernel_modn` reads; they sit under A in W = [A; V], so one column
    operation on W acts on both (a column step acts on each row of V on its
    own).  Step t runs passes of the `smith_normal_form` loop body on the
    trailing block W[:, t:, t:]: the first pass in place on the whole
    stack, each later one on the matrices that must repeat step t, gathered
    and written back.  A pass is the reference's: the row-major first least
    |entry| of A's trailing block as pivot, the two swaps and the sign fix
    (a negation of row t, which commutes with the column swap), the row
    quotient steps (each reads the unchanged row t), the column quotient
    steps (each reads column t, which none of them changes; numpy's //
    floors like Python's), then another pass on remainders, or the fix-up
    that adds the first row holding an entry the pivot does not divide and
    another pass, or step t + 1.

    The trailing block is enough.  When step t begins, rows and columns
    < t of A are zero apart from the finished pivots; every swap, step and
    fix-up of step t or later reads and writes only rows and columns >= t
    (the fix-up adds a row that is zero before column t), so those entries
    of A, and the columns < t of V, never change again.  Each matrix thus
    runs exactly its reference sequence of passes.  [M | N*I] has full row
    rank, so no trailing block of A is zero, the pivots fill the diagonal,
    and the generators are the nonzero columns of V[:, R:] mod N; one call
    of `_howell_forms` reduces those of the whole stack.

    The hand-offs are unchanged too.  The bound is checked before every
    pass on the block that pass reads.  V is read only mod N and never
    feeds A or the pivots, so an entry of V past `_SMITH_BOUND` reduces V
    mod N.  A matrix with an entry of A's block past it goes to
    `kernel_modn` on its own, each row at its pivot column, and that block
    becomes an identity, which no later pass changes.  Outside the block
    A holds only finished pivots, each checked by the pass that chose it,
    so the test sees every entry of A a whole-matrix test would, before the
    same passes; and a matrix's passes read only its own entries, so the
    matrices handed off are those that overflow when replayed alone.
    """
    (B, R, n), N = mats.shape, ring.n
    W = np.zeros((B, R + n, n + R), dtype=np.int64)
    W[:, :R, :n] = mats
    W[:, :R, n:] = N * np.eye(R, dtype=np.int64)
    W[:, R:, :n] = np.eye(n, dtype=np.int64)
    gone = np.zeros(B, dtype=bool)  # the matrices that outgrew the bound
    every = np.arange(B)
    for t in range(R):
        pos, w = every, W[:, t:, t:]  # a view: the first pass is in place
        while pos.size:
            a, v, s = w[:, :R - t], w[:, R - t:], np.arange(pos.size)
            if np.abs(v).max() > _SMITH_BOUND:
                v %= N  # column steps commute with reduction mod N
            mag = np.abs(a)
            if mag.max() > _SMITH_BOUND:
                # per-matrix maxima only here, so bounded stacks never pay them
                over = mag.max((1, 2)) > _SMITH_BOUND
                gone[pos[over]] = True
                a[over] = mag[over] = np.eye(*a.shape[1:], dtype=np.int64)
            key = mag.reshape(pos.size, -1).view(np.uint64)
            key -= np.uint64(1)  # |a| - 1, so that 0 wraps to the top
            best = key.argmin(1)
            piv = (key[s, best] + np.uint64(1)).view(np.int64)[:, None, None]
            bi, bj = np.divmod(best, a.shape[2])
            sign = np.where(a[s, bi, bj] < 0, -1, 1)[:, None]
            a[s, bi], a[s, 0] = a[s, 0], a[s, bi] * sign
            w[s, :, 0], w[s, :, bj] = w[s, :, bj], w[s, :, 0]
            a[:, 1:] -= a[:, 1:, :1] // piv * a[:, :1]
            w[:, :, 1:] -= w[:, :, :1] * (a[:, :1, 1:] // piv)
            again = a[:, 1:, 0].any(1) | a[:, 0, 1:].any(1)
            # the fix-up looks at clean passes; a pivot of one divides all
            look = np.flatnonzero(~again & (piv[:, 0, 0] > 1))
            stain = (a[look, 1:, 1:] % piv[look]).any(2)
            hit = stain.any(1)
            fix = look[hit]
            if fix.size:
                a[fix, 0] += a[fix, 1 + stain[hit].argmax(1)]
                again[fix] = True
            if pos is not every:
                W[pos, t:, t:] = w
            pos = pos[again]
            w = W[pos, t:, t:]
    G = W[:, R:, R:].transpose(0, 2, 1) % N  # the generators, as rows
    G[gone] = 0
    K = _howell_forms(G, N)
    for b in np.flatnonzero(gone).tolist():
        for row in kernel_modn(Matrix.from_rows(ring, mats[b].tolist(),
                                                width=n)):
            K[b, np.flatnonzero(row)[0]] = row
    return K, K.any(2)


def _howell_forms(G: np.ndarray, N: int) -> np.ndarray:
    """`rings.howell_form` of every generator list G[b] over Z/N, replayed
    in lockstep on the whole (B, m, n) array G.

    Row c of the (B, n, n) result holds the form's row with its pivot in
    column c, and zeros where no row has it; the nonzero rows of out[b], in
    order, are howell_form(G[b], N) row for row.  The reference drops
    all-zero rows, so lists of different lengths pad with zero rows, and a
    zero row in the pool is inert: it is never selected and keeps the order
    of the others.  Per column c, as in the reference: the rows nonzero at c
    leave the pool in pool order; the first is the pivot and each later one
    merges into it through the same (g, s, t) of `_gcdex`, its cleared row
    going to the end of the pool; the pivot is scaled by `_unit_to_divisor`
    of its entry and its saturation row (N/d) * pivot goes last.  Both
    come from tables over Z/N (`_howell_tables`).  Each column puts back
    at most as many rows as it takes out of the pool, so the pool keeps its
    m slots: one scatter moves the nonzero rows to the front, in order.  The
    entries above the pivots are then reduced in reverse pivot order, which
    is not canonical: the 5005/81 pin of pencil-5/Z6 depends on it.  Every
    product stays below N^2, exact in int64 for N < 2^31.
    """
    P = np.asarray(G, dtype=np.int64) % N
    B, m, n = P.shape
    out = np.zeros((B, n, n), dtype=np.int64)
    if m == 0:
        return out
    gst, unit = _howell_tables(N)
    for c in range(n):
        sel = P[:, :, c] != 0
        if not sel.any():
            continue
        piv = np.zeros((B, n), dtype=np.int64)
        has = np.zeros(B, dtype=bool)
        cleared = np.zeros_like(P)
        for j in np.flatnonzero(sel.any(0)).tolist():
            act = sel[:, j]
            merge = np.flatnonzero(act & has)
            if merge.size:
                x, y = piv[merge], P[merge, j]
                a, b = x[:, c], y[:, c]
                g, s, t = gst[:, a, b]
                piv[merge] = (s[:, None] * x + t[:, None] * y) % N
                cleared[merge, j] = ((a // g)[:, None] * y
                                     - (b // g)[:, None] * x) % N
            first = act & ~has
            piv[first] = P[first, j]
            has |= act
        piv = unit[piv[:, c]][:, None] * piv % N
        d = np.where(has, piv[:, c], N)
        extra = (N // d)[:, None] * piv % N  # the saturation row
        out[:, c] = piv
        P[sel] = 0
        pool = np.concatenate((P, cleared, extra[:, None]), axis=1)
        i, r = np.nonzero(pool.any(2))  # by matrix, then in pool order
        P = np.zeros_like(P)
        P[i, np.arange(i.size) - np.searchsorted(i, i)] = pool[i, r]
    for c in reversed(range(n)):
        d = out[:, c, c]
        if not d.any():
            continue
        q = out[:, :c, c] // np.where(d > 0, d, 1)[:, None]
        out[:, :c] = (out[:, :c] - q[:, :, None] * out[:, c, None, :]) % N
    return out


def _gcdex_arrays(a: np.ndarray, b: np.ndarray):
    """`rings._gcdex` elementwise: (g, s, t) with s*a + t*b = g = gcd(a, b),
    by the same recurrence, each pair frozen once its remainder is zero."""
    r0, r1 = a.copy(), b.copy()
    s0, s1 = np.ones_like(a), np.zeros_like(a)
    t0, t1 = np.zeros_like(a), np.ones_like(a)
    while True:
        live = r1 != 0
        if not live.any():
            break
        q = r0 // np.where(live, r1, 1)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - q * r1, r1)
        s0, s1 = np.where(live, s1, s0), np.where(live, s0 - q * s1, s1)
        t0, t1 = np.where(live, t1, t0), np.where(live, t0 - q * t1, t1)
    sign = np.where(r0 < 0, -1, 1)
    return r0 * sign, s0 * sign, t0 * sign


_HOWELL_TABLES: dict = {}


def _howell_tables(N: int) -> Tuple[np.ndarray, np.ndarray]:
    """The (3, N, N) table of `_gcdex(a, b)` and the table of
    `_unit_to_divisor(a, N)` over Z/N, built on first use for each N: its
    3 N^2 entries are at most 3/N times the N^n weights that a Z/N scan of
    n >= 3 points walks."""
    if N not in _HOWELL_TABLES:
        a, b = np.divmod(np.arange(N * N, dtype=np.int64), N)
        gst = np.stack(_gcdex_arrays(a, b)).reshape(3, N, N)
        unit = np.array([_unit_to_divisor(x, N) for x in range(N)],
                        dtype=np.int64)
        _HOWELL_TABLES[N] = gst, unit
    return _HOWELL_TABLES[N]


# the Smith replay multiplies entries by quotients no larger than them:
# entries within 2^31 keep every product of the next round below 2^62, and
# each of its sums below 2^63
_SMITH_BOUND = 2 ** 31
_BLOCK = 4096
# each column step of the elimination rewrites every column right of it
# through intp table indices; blocks of 256 keep those Z/p^k temporaries
# within a few hundred kB, where one block of 4096 raised the modn-scan
# benchmark's peak RSS from 43.4 to 47.0 MB
_CHAIN_BLOCK = 256
_TABLE_CACHE: dict = {}
_RING_TABLES: dict = {}


def _ring_tables(ring: Ring):
    """`ring.tables()`, (add, mul, neg, inv), built once per ring spec."""
    if ring.spec not in _RING_TABLES:
        _RING_TABLES[ring.spec] = ring.tables()
    return _RING_TABLES[ring.spec]


def _chain_tables_for(ring: Ring):
    """(add, mul, negmul, val, unit, shift, lead, k) for a finite field or
    Z/p^k, with negmul[a, b] = -(a * b).

    val[a] is the valuation of a (k for a = 0), unit[a] a unit with
    unit[a] * a = p^val[a] (unit[0] = 0), shift[v, a] = a // p^v and
    lead[a] = unit[a]^-1 - p^(k - val[a]) (lead[0] = 0).  A field is the
    case k = 1 with maximal ideal 0: val is 1 on 0 and 0 elsewhere,
    unit = inv, shift = [identity, zeros] and lead is the identity.
    """
    if ring.spec not in _TABLE_CACHE:
        add, mul, neg, inv = _ring_tables(ring)
        elems = np.arange(add.shape[0])
        if isinstance(ring, IntegersModN):
            p, k = chain_params(ring)
            # int64, not uint8: p^(k - val) below exceeds 255 once q > 256
            val = sum((elems % p ** v == 0).astype(np.int64)
                      for v in range(1, k + 1))
            shift = elems // p ** np.arange(k + 1)[:, None]
            u = shift[val, elems]  # a = u * p^val[a] with u a unit
            unit = inv[u]
            lead = np.where(val < k, (u - p ** (k - val)) % ring.n, 0)
        else:
            k = 1
            val, unit, lead = elems == 0, inv, elems
            shift = [elems, 0 * elems]
        _TABLE_CACHE[ring.spec] = (
            add, mul, neg[mul], np.asarray(val, dtype=np.uint8),
            np.asarray(unit, dtype=mul.dtype),
            np.asarray(shift, dtype=mul.dtype),
            np.asarray(lead, dtype=mul.dtype), k)
    return _TABLE_CACHE[ring.spec]


def _block_length(M, add, mul, negmul, val, unit, shift, lead,
                  k) -> np.ndarray:
    """Lengths of the row modules of the B matrices of M (B, R, C) over a
    finite field or Z/p^k, eliminated together in place; over a field the
    length is the rank.

    Column by column, each matrix pivots on a row r whose entry a = M[r, c]
    has the least valuation v in the column; y = unit[a] * row r has
    y[c] = p^v.  Every other row b loses shift[v, b[c]] * y, which zeroes
    b[c] since p^v divides it.  Row r loses lead[a] * y; as row r is
    unit[a]^-1 * y, this leaves p^(k - v) * y (Howell's saturation row),
    zero in column c, and zero altogether over a field, where k = 1 and
    p = 0 in F_q.  The step is exact: the module is spanned by y and the
    other new rows, so each element is s + mu * y with s zero in column c,
    and it vanishes there iff p^(k - v) divides mu.  The new rows thus span
    the elements of the module that vanish in column c, the column's image
    is the ideal (p^v) of length k - v, and the length is sum (k - v) over
    the columns.  A column without a pivot has v = k and y = 0 and changes
    nothing.  Over a field the multipliers are the column itself: shift[0]
    and lead are the identity, and a column without a pivot is zero.
    """
    B, R, C = M.shape
    q = add.shape[0]
    addf, negmulf = add.ravel(), negmul.ravel()
    every = np.arange(B)
    length = np.zeros(B, dtype=np.int64)
    for c in range(C):
        col = M[:, :, c]
        V = val[col]
        r = V.argmin(1)
        v = V[every, r]
        length += k - v
        a = col[every, r]
        y = mul[unit[a][:, None], M[every, r, c + 1:]]
        if k == 1:  # the shift gather slowed the field scans by a fifth
            f = col.astype(np.intp)
        else:
            f = shift[v[:, None], col].astype(np.intp)
            f[every, r] = lead[a]
        # fy first, so that only one intp temporary of the block is alive
        fy = negmulf[f[:, :, None] * q + y[:, None, :]]
        M[:, :, c + 1:] = addf[M[:, :, c + 1:].astype(np.intp) * q + fy]
    return length
