"""Exact scalar and matrix arithmetic over Q, F_p, F_{p^k} and Z/N.

Scalars are stored canonically: reduced ``Fraction`` over Q, residues in
``[0, N)`` over Z/N and F_p, and base-p integer encodings of polynomial
residues over extension fields.  All elimination is exact with deterministic
smallest-index pivoting, so every basis is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Ring",
    "Rationals",
    "PrimeField",
    "ExtensionField",
    "IntegersModN",
    "make_ring",
    "prime_power_factors",
    "Matrix",
    "minors2",
    "is_parallel",
    "are_dependent",
    "is_zero_divisor",
    "rank_field",
    "kernel_field",
    "rref_field",
    "kernel_modn",
    "howell_form",
    "smith_normal_form",
]


# ---------------------------------------------------------------------------
# polynomial helpers for extension fields (coefficients packed base p)

def _poly_deg(a: int, p: int) -> int:
    d = -1
    while a:
        a //= p
        d += 1
    return d


def _poly_coeffs(a: int, p: int) -> List[int]:
    out = []
    while a:
        out.append(a % p)
        a //= p
    return out


def _poly_add(a: int, b: int, p: int) -> int:
    out, shift = 0, 1
    while a or b:
        out += ((a + b) % p) * shift
        a, b, shift = a // p, b // p, shift * p
    return out


def _poly_neg(a: int, p: int) -> int:
    out, shift = 0, 1
    while a:
        out += ((p - a % p) % p) * shift
        a, shift = a // p, shift * p
    return out


def _poly_mul(a: int, b: int, p: int) -> int:
    ca, cb = _poly_coeffs(a, p), _poly_coeffs(b, p)
    if not ca or not cb:
        return 0
    out = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb):
                out[i + j] = (out[i + j] + x * y) % p
    enc, shift = 0, 1
    for c in out:
        enc += c * shift
        shift *= p
    return enc


def _poly_divmod(a: int, b: int, p: int) -> Tuple[int, int]:
    """Polynomial long division of encodings over F_p; b != 0."""
    db = _poly_deg(b, p)
    lead_b = _poly_coeffs(b, p)[-1]
    inv_lead = pow(lead_b, -1, p)
    q = 0
    while True:
        da = _poly_deg(a, p)
        if da < db:
            return q, a
        shift = da - db
        coeff = (_poly_coeffs(a, p)[-1] * inv_lead) % p
        term = coeff * p**shift
        q = _poly_add(q, term, p)
        a = _poly_add(a, _poly_neg(_poly_mul(term, b, p), p), p)


def _poly_mulmod(a: int, b: int, mod: int, p: int) -> int:
    return _poly_divmod(_poly_mul(a, b, p), mod, p)[1]


def _is_irreducible(m: int, p: int, k: int) -> bool:
    """Brute-force irreducibility of a monic degree-k encoding over F_p."""
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for f in range(p**d, 2 * p**d):  # monic of degree d
            if _poly_divmod(m, f, p)[1] == 0:
                return False
    return True


def _least_irreducible(p: int, k: int) -> int:
    for m in range(p**k, 2 * p**k):
        if _is_irreducible(m, p, k):
            return m
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _poly_str(enc: int, p: int) -> str:
    if enc == 0:
        return "0"
    parts = []
    for i, c in enumerate(_poly_coeffs(enc, p)):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            parts.append(x if c == 1 else f"{c}{x}")
    return " + ".join(reversed(parts))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def prime_power_factors(n: int) -> List[Tuple[int, int]]:
    """(p, k) for each prime power p^k exactly dividing n >= 1, ascending."""
    out = []
    f = 2
    while n > 1:
        if f * f > n:
            f = n
        k = 0
        while n % f == 0:
            n //= f
            k += 1
        if k:
            out.append((f, k))
        f += 1
    return out


# ---------------------------------------------------------------------------
# rings

class Ring:
    """Common interface; concrete rings fill in the arithmetic."""

    kind: str
    spec: str
    characteristic: int
    cardinality: int | None  # None = infinite
    is_field: bool

    def coerce(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def inv(self, a):
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def is_zero_divisor(self, a) -> bool:
        """True iff some nonzero element annihilates a (0 counts)."""
        raise NotImplementedError

    def sum(self, xs: Iterable):
        acc = self.zero
        for x in xs:
            acc = self.add(acc, x)
        return acc

    def combine(self, coeffs: Sequence, vectors: Sequence[Sequence], n: int) -> tuple:
        """sum_i coeffs[i] * vectors[i] in R^n, skipping zero coefficients."""
        acc = [self.zero] * n
        for c, v in zip(coeffs, vectors):
            if c != self.zero:
                acc = [self.add(x, self.mul(c, y)) for x, y in zip(acc, v)]
        return tuple(acc)

    def coerce_vector(self, xs: Sequence) -> tuple:
        return tuple(self.coerce(x) for x in xs)

    def elements(self):
        if self.cardinality is None:
            raise ValueError(f"{self.spec} is infinite")
        return range(self.cardinality)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return self.spec


class Rationals(Ring):
    kind = "rationals"
    spec = "Q"
    characteristic = 0
    cardinality = None
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, float):
            raise TypeError("no floating point: pass int, Fraction or 'a/b'")
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible in Q")
        return 1 / a

    def is_unit(self, a):
        return a != 0

    def is_zero_divisor(self, a):
        return a == 0


class _TableMixin:
    """numpy lookup tables shared by the scan kernels (finite rings only)."""

    def tables(self):
        """(add, mul, neg, inv) in the smallest unsigned dtype holding q - 1."""
        q = self.cardinality
        dt = np.min_scalar_type(q - 1)
        add = np.empty((q, q), dtype=dt)
        mul = np.empty((q, q), dtype=dt)
        neg = np.empty(q, dtype=dt)
        inv = np.zeros(q, dtype=dt)
        for a in range(q):
            neg[a] = self.neg(a)
            for b in range(q):
                add[a, b] = self.add(a, b)
                mul[a, b] = self.mul(a, b)
            if self.is_unit(a):
                inv[a] = self.inv(a)
        return add, mul, neg, inv


class PrimeField(_TableMixin, Ring):
    kind = "prime-field"
    is_field = True
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.spec = f"F{p}"
        self.characteristic = p
        self.cardinality = p

    def coerce(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in {self.spec}")
        return pow(a, -1, self.p)

    def is_unit(self, a):
        return a % self.p != 0

    def is_zero_divisor(self, a):
        return a % self.p == 0


class ExtensionField(_TableMixin, Ring):
    """F_{p^k} as F_p[x]/(modulus); elements are base-p encodings in [0, p^k)."""

    kind = "extension-field"
    is_field = True
    zero = 0
    one = 1

    def __init__(self, p: int, k: int, modulus: int | None = None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 2:
            raise ValueError("extension degree must be >= 2")
        if modulus is None:
            modulus = _least_irreducible(p, k)
        else:
            if _poly_deg(modulus, p) != k or _poly_coeffs(modulus, p)[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not _is_irreducible(modulus, p, k):
                raise ValueError(
                    f"modulus {_poly_str(modulus, p)} is reducible over F{p}")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.spec = f"F{p}^{k}:{modulus}"
        self.characteristic = p
        self.cardinality = p**k
        q = self.cardinality
        # eager q x q tables keep element ops table-driven and O(1)
        self._mul = [[_poly_mulmod(a, b, modulus, p) for b in range(q)]
                     for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            if self._inv[a]:
                continue
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    self._inv[b] = a
                    break

    def coerce(self, x):
        x = int(x)
        if 0 <= x < self.cardinality:
            return x
        if x < 0 and -self.p < x:  # small negative ints mean -1 etc. in F_p
            return (x % self.p)
        raise ValueError(
            f"{x} is not a canonical {self.spec} encoding (0..{self.cardinality - 1})")

    def add(self, a, b):
        return _poly_add(a, b, self.p)

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return _poly_neg(a, self.p)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible in {self.spec}")
        return self._inv[a]

    def is_unit(self, a):
        return a != 0

    def is_zero_divisor(self, a):
        return a == 0

    def embed(self, base: Ring, a):
        """Image of a base-ring element; only the prime subfield embeds."""
        if isinstance(base, PrimeField) and base.p == self.p:
            return a
        if base == self:
            return a
        raise ValueError(f"no embedding of {base.spec} into {self.spec}")

    def __repr__(self):
        return f"F{self.cardinality} = F{self.p}[x]/({_poly_str(self.modulus, self.p)})"


class IntegersModN(_TableMixin, Ring):
    kind = "integers-mod-n"
    is_field = False
    zero = 0
    one = 1

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("modulus must be >= 2")
        self.n = n
        self.spec = f"Z{n}"
        self.characteristic = n
        self.cardinality = n

    def coerce(self, x):
        return int(x) % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def inv(self, a):
        if gcd(a, self.n) != 1:
            raise ZeroDivisionError(f"{a} is not a unit in {self.spec}")
        return pow(a, -1, self.n)

    def is_unit(self, a):
        return gcd(a % self.n, self.n) == 1

    def is_zero_divisor(self, a):
        a %= self.n
        return a == 0 or gcd(a, self.n) > 1

    def annihilator_elements(self, a):
        """Nonzero r with r*a = 0, ascending."""
        a %= self.n
        step = self.n // gcd(a, self.n)
        return [r for r in range(step, self.n, step)] if step < self.n else []


@lru_cache(maxsize=None)
def make_ring(spec: str) -> Ring:
    """Parse a ring spec: "Q", "F<p>", "F<q>", "F<p>^<k>[:modulus]", "Z<N>"."""
    s = spec.strip()
    if s in ("Q", "q"):
        return Rationals()
    if s.startswith("Z") or s.startswith("z"):
        try:
            n = int(s[1:])
        except ValueError:
            raise ValueError(f"bad ring spec {spec!r}") from None
        return IntegersModN(n)
    if s.startswith("F") or s.startswith("f"):
        body = s[1:]
        modulus = None
        if ":" in body:
            body, mod_s = body.split(":", 1)
            modulus = int(mod_s)
        if "^" in body:
            p_s, k_s = body.split("^", 1)
            p, k = int(p_s), int(k_s)
        else:
            q = int(body)
            if q < 2:
                raise ValueError(f"{q} is not a prime power")
            # the least factor of q above 1 is prime
            p = next((f for f in range(2, isqrt(q) + 1) if q % f == 0), q)
            k = 0
            m = q
            while m > 1:
                if m % p:
                    raise ValueError(f"{q} is not a prime power")
                m //= p
                k += 1
        if k == 1:
            if modulus is not None:
                raise ValueError("modulus only applies to extension fields")
            return PrimeField(p)
        return ExtensionField(p, k, modulus)
    raise ValueError(f"bad ring spec {spec!r}")


# ---------------------------------------------------------------------------
# vectors and pairwise minors

def minors2(xi: Sequence, nu: Sequence, ring: Ring) -> list:
    """All 2x2 minors xi_i*nu_j - xi_j*nu_i in pair order (1,2),(1,3),...,(n-1,n)."""
    if len(xi) != len(nu):
        raise ValueError("length mismatch")
    return [
        ring.sub(ring.mul(xi[i], nu[j]), ring.mul(xi[j], nu[i]))
        for i, j in combinations(range(len(xi)), 2)
    ]


def is_parallel(xi: Sequence, nu: Sequence, ring: Ring) -> bool:
    n = len(xi)
    if n != len(nu):
        raise ValueError("length mismatch")
    for i in range(n):
        if xi[i] == ring.zero and nu[i] == ring.zero:
            continue
        for j in range(i + 1, n):
            if ring.sub(ring.mul(xi[i], nu[j]), ring.mul(xi[j], nu[i])) != ring.zero:
                return False
    return True


def are_dependent(xi: Sequence, nu: Sequence, ring: Ring) -> bool:
    """True iff some r != 0 annihilates every 2x2 minor of [xi|nu].

    Such an r always yields a nontrivial relation a*xi + b*nu = 0: either r
    kills both vectors, or (-r*nu_i)*xi + (r*xi_i)*nu = 0 for an index i
    where r misses one of them.  Over a domain this degenerates to the
    parallel test.
    """
    ms = minors2(xi, nu, ring)
    if isinstance(ring, IntegersModN):
        g = ring.n
        for m in ms:
            g = gcd(g, m)
        return g > 1
    if ring.is_field:
        return all(m == ring.zero for m in ms)
    raise ValueError(f"unsupported ring {ring.spec} for dependence test")


def is_zero_divisor(r, ring: Ring) -> bool:
    return ring.is_zero_divisor(ring.coerce(r))


# ---------------------------------------------------------------------------
# matrices

@dataclass(frozen=True)
class Matrix:
    ring: Ring
    rows: Tuple[tuple, ...]
    width: int = -1  # column count, needed when rows is empty

    @classmethod
    def from_rows(cls, ring: Ring, rows: Iterable[Sequence], width: int = -1) -> "Matrix":
        return cls(ring, tuple(ring.coerce_vector(r) for r in rows), width)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        if self.rows:
            return len(self.rows[0])
        return self.width if self.width >= 0 else 0


def rref_field(M: Matrix) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form over a field; returns (nonzero rows, pivot cols)."""
    R = M.ring
    if not R.is_field:
        raise ValueError(f"{R.spec} is not a field")
    rows = [list(r) for r in M.rows]
    nr, nc = len(rows), M.ncols
    pivots: List[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != R.zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = R.inv(rows[r][c])
        rows[r] = [R.mul(scale, x) for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != R.zero:
                f = rows[i][c]
                rows[i] = [R.sub(x, R.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows[:r], pivots


def rank_field(M: Matrix) -> int:
    return len(rref_field(M)[1])


def kernel_field(M: Matrix) -> List[tuple]:
    """Deterministic echelon basis of the right null space over a field."""
    R = M.ring
    rows, pivots = rref_field(M)
    nc = M.ncols
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [R.zero] * nc
        v[f] = R.one
        for i, pc in enumerate(pivots):
            v[pc] = R.neg(rows[i][f])
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# integer Smith normal form and Z/N kernels

def _gcdex(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a,b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(rows: Sequence[Sequence[int]]) -> Tuple[list, list, list]:
    """Smith normal form over Z.

    Returns (D, U, V) with U*A*V = D, U and V unimodular, D diagonal with
    d_1 | d_2 | ... .  Textbook elimination with minimal-pivot selection;
    entries are Python ints so nothing overflows.
    """
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    n = len(A[0]) if A else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, f):
        A[dst] = [x + f * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + f * y for x, y in zip(U[dst], U[src])]

    def addmul_col(dst, src, f):
        for row in A:
            row[dst] += f * row[src]
        for row in V:
            row[dst] += f * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        # minimal nonzero entry of the trailing block as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if A[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                addmul_row(i, t, -(A[i][t] // A[t][t]))
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j]:
                addmul_col(j, t, -(A[t][j] // A[t][t]))
                if A[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new smaller pivot candidates
        # divisibility fix-up: pivot must divide the whole trailing block
        stained = False
        for i in range(t + 1, m):
            if any(A[i][j] % A[t][t] for j in range(t + 1, n)):
                addmul_row(t, i, 1)
                stained = True
                break
        if stained:
            continue
        t += 1
    D = [[A[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    return D, U, V


def _unit_to_divisor(a: int, n: int) -> int:
    """Unit u mod n with u*a = gcd(a, n) mod n."""
    a %= n
    d = gcd(a, n)
    if d == n:  # a = 0
        return 1
    m = n // d
    b = (a // d) % m
    u = pow(b, -1, m) if m > 1 else 1
    while gcd(u, n) != 1:
        u += m
    return u % n


def howell_form(rows: Iterable[Sequence[int]], n_mod: int) -> List[tuple]:
    """Howell form of the row module of `rows` over Z/n_mod.

    Pivots divide N and the form is closed under the leading-zero multiples
    (N/pivot)*row, so reduction against it decides membership
    (`howell_contains`).  It is not canonical: entries above the pivots are
    reduced in reverse pivot order, so a later reduction can push an entry
    back out of [0, pivot).  The rows (1,1,0), (0,1,1), (0,0,2) and (1,0,1),
    (0,1,1), (0,0,2) span the same module over Z4, yet their first rows come
    out as (1,0,3) and (1,0,1); equal forms are not a test of equal modules.
    """
    N = n_mod
    ncols = None
    pool: List[List[int]] = []
    for r in rows:
        rr = [x % N for x in r]
        ncols = len(rr) if ncols is None else ncols
        if len(rr) != ncols:
            raise ValueError("ragged rows")
        if any(rr):
            pool.append(rr)
    if ncols is None:
        return []
    finished: List[Tuple[int, List[int]]] = []  # (pivot col, row)
    for c in range(ncols):
        sel = [r for r in pool if r[c]]
        pool = [r for r in pool if not r[c]]
        if not sel:
            continue
        piv = sel[0]
        for r in sel[1:]:
            a, b = piv[c], r[c]
            g, s, t = _gcdex(a, b)
            merged = [(s * x + t * y) % N for x, y in zip(piv, r)]
            cleared = [((a // g) * y - (b // g) * x) % N for x, y in zip(piv, r)]
            piv = merged
            if any(cleared):
                pool.append(cleared)
        u = _unit_to_divisor(piv[c], N)
        piv = [(u * x) % N for x in piv]
        d = piv[c]
        extra = [((N // d) * x) % N for x in piv]
        if any(extra):
            pool.append(extra)
        finished.append((c, piv))
    # reduce entries above each pivot into [0, pivot)
    out = [row for _, row in finished]
    for i in reversed(range(len(out))):
        c, d = finished[i][0], out[i][finished[i][0]]
        for j in range(i):
            q = out[j][c] // d
            if q:
                out[j] = [(x - q * y) % N for x, y in zip(out[j], out[i])]
    return [tuple(r) for r in out]


def kernel_modn(M: Matrix) -> List[tuple]:
    """Howell-form generators of {x : M x = 0 over Z/N} (see `howell_form`:
    the form is not canonical).

    Route: integer lift of M augmented by N*I, Smith normal form, integer
    kernel basis read off the column transform, projected back mod N and
    Howell-reduced.
    """
    R = M.ring
    if not isinstance(R, IntegersModN):
        raise ValueError(f"kernel_modn needs a Z/N matrix, got {R.spec}")
    N = R.n
    m, n = M.nrows, M.ncols
    if m == 0:
        return howell_form([[int(i == j) for j in range(n)] for i in range(n)], N)
    aug = [list(M.rows[i]) + [N if j == i else 0 for j in range(m)] for i in range(m)]
    D, U, V = smith_normal_form(aug)
    r = sum(1 for i in range(min(m, n + m)) if D[i][i])
    gens = []
    for j in range(r, n + m):
        col = [V[i][j] % N for i in range(n)]  # first n coords only
        if any(col):
            gens.append(col)
    return howell_form(gens, N)


def howell_contains(gens: Sequence[Sequence[int]], vec: Sequence[int], n_mod: int) -> bool:
    """Whether `vec` lies in the Z/n_mod row module spanned by Howell `gens`.

    Reduction against a Howell form is complete: a vector belongs to the
    module iff successive pivot cancellations drive it to zero.
    """
    N = n_mod
    v = [x % N for x in vec]
    for row in gens:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        if v[c] % row[c]:
            return False
        t = v[c] // row[c]
        if t:
            v = [(x - t * y) % N for x, y in zip(v, row)]
    return not any(v)
