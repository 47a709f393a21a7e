"""Exact linear algebra over the coefficient fields.

Two elimination kernels, and only this module picks between them:
`SpanBuilder.insert` is exact incremental RREF over any field (`rref`,
`nullspace`, `solve` and `ModSpan` run on it), and `_mod_rref` is batch numpy
RREF mod p of an integer matrix (`rank_big` over a prime field, and each
prime of `rank_kernel_int`).  Integer arrays stay exact for every p: they are
reduced mod p first, and elimination runs in int64 only when (p-1)**2 + p <
2**63, a product only when max_i |a_i|_1 * max|b| < 2**63; Python ints
otherwise.  Over Q the modular rank is certified: independence mod p proves
rank >= r, and exactly verified kernel vectors prove the corank.

`homology_dims` is the one homology routine: Ext, Tor, the derived
functors, the standard-filtration test and homotopy Hom all hand it the
dimensions and differentials of a complex and read dim H_k off the ranks.
"""

import warnings
from bisect import bisect
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from .fields import QQ, PrimeField

# Primes just below 2**15.5 so that p**2 stays far inside int64 during
# vectorized elimination.
_MOD_PRIMES = (46337, 46327, 46309, 46307, 46301, 46279, 46273, 46271, 46261,
               46237, 46229, 46219, 46199, 46187, 46183, 46181, 46171, 46153)
# The field of `ModSpan`, built once: each construction tests primality.
_MOD_FIELD = PrimeField(_MOD_PRIMES[0])


def rref(rows, field=QQ):
    """Reduced row echelon form. Returns (rref_rows, pivot_columns).

    `rows` is a list of equal-length lists over `field`; the input is not
    mutated.  The rows go through one `SpanBuilder`; RREF is unique, so the
    insertion order does not change the result.
    """
    span = SpanBuilder(len(rows[0]) if rows else 0, field)
    for row in rows:
        if span.dim == span.ncols:
            break
        span.insert(row)
    return span.rows, span.pivots


def rank(rows, field=QQ):
    return len(rref(rows, field)[1])


def homology_dims(dims, diffs, field=QQ, max_deg=None):
    """[dim H_k for k in 0..max_deg] of a complex of finite-dimensional spaces.

    dims[k] is the dimension of term k and diffs[k] the matrix (list of rows)
    between terms k and k-1, in either direction, since only its rank is
    read: dim H_k = dims[k] - rank diffs[k] - rank diffs[k+1].  A missing,
    None or empty matrix counts as zero, and so does a term past `dims`.
    `max_deg` defaults to the last term.
    """
    n = len(dims) if max_deg is None else max_deg + 1
    ranks = [rank(diffs[k], field) if k < len(diffs) and diffs[k] else 0
             for k in range(n + 1)]
    return [(dims[k] if k < len(dims) else 0) - ranks[k] - ranks[k + 1]
            for k in range(n)]


def _kernel_from_rref(red, pivots, ncols, field=QQ):
    """Right kernel basis from an RREF, one vector per free column."""
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [field.zero] * ncols
        v[f] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.neg(red[i][f])
        basis.append(v)
    return basis


def nullspace(rows, ncols, field=QQ):
    """Basis of the right kernel {v : rows @ v = 0} (list of vectors)."""
    red, pivots = rref(rows, field)
    return _kernel_from_rref(red, pivots, ncols, field)


def solve(rows, rhs, field=QQ):
    """One solution x of rows @ x = rhs, or None if inconsistent.

    `rhs` may be a single vector or a list of columns (matrix as columns);
    the return value matches the shape.
    """
    single = rhs and not isinstance(rhs[0], list)
    cols = [list(rhs)] if single else [list(c) for c in rhs]
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref([list(r) + [c[i] for c in cols]
                        for i, r in enumerate(rows)], field)
    if pivots and pivots[-1] >= ncols:  # a pivot on the right-hand side
        return None
    sols = [[field.zero] * ncols for _ in cols]
    for i, c in enumerate(pivots):
        for j, x in enumerate(sols):
            x[c] = red[i][ncols + j]
    return sols[0] if single else sols


class SpanBuilder:
    """Incrementally maintained RREF basis of a span of vectors."""

    def __init__(self, ncols, field=QQ):
        self.ncols = ncols
        self.field = field
        self.rows = []      # reduced rows, each with a unit leading entry
        self.pivots = []    # pivot column of each row

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residue of vec after reduction against the current basis."""
        f = self.field
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return v

    def insert(self, vec):
        """Add vec to the span; returns True if the dimension grew."""
        f = self.field
        v = self.reduce(vec)
        for p in range(self.ncols):
            if not f.is_zero(v[p]):
                inv = f.inv(v[p])
                if not f.eq(inv, f.one):
                    v = [f.mul(inv, x) for x in v]
                for i, row in enumerate(self.rows):
                    c = row[p]
                    if not f.is_zero(c):
                        self.rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(row, v)]
                at = bisect(self.pivots, p)
                self.rows.insert(at, v)
                self.pivots.insert(at, p)
                return True
        return False


# ---------------------------------------------------------------------------
# Certified modular rank/kernel for integer matrices over Q.
# ---------------------------------------------------------------------------

def _as_int_array(mat):
    """An integer matrix as int64, or as Python ints if an entry exceeds int64.

    A non-integer entry raises TypeError, where int64 would truncate it.
    """
    if not (isinstance(mat, np.ndarray) and mat.dtype.kind in "iu"):
        mat = np.array(mat, dtype=object)
        if not all(isinstance(x, (int, np.integer)) for x in mat.flat):
            raise TypeError("an integer matrix is needed")
    try:
        return np.asarray(mat, dtype=np.int64)
    except OverflowError:
        return np.array(mat, dtype=object)


def _mod_rref(mat, p):
    """RREF mod p of an integer matrix (rows or array), exact for every p.

    Returns (rank, pivcols, reduced).  Entries are reduced mod p first; the
    elimination runs in int64 when (p-1)**2 + p < 2**63 bounds every
    intermediate, and over Python ints otherwise.
    """
    m = (_as_int_array(mat) % p).astype(
        np.int64 if (p - 1) ** 2 + p < 2 ** 63 else object, copy=False)
    nrows, ncols = m.shape
    piv = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if len(others):
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        piv.append(c)
        r += 1
    return r, tuple(piv), m[:r]


def _rat_reconstruct(a, m):
    """Rational n/d with n*inv(d) = a (mod m), |n|, d <= sqrt(m/2), or None."""
    a %= m
    if a == 0:
        return Fraction(0)
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r1 == 0 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1) if s1 > 0 else Fraction(-r1, -s1)


def rank_kernel_int(int_rows, ncols):
    """Exact (rank, kernel_basis) of an integer matrix, certified.

    Strategy: modular RREF gives a rank lower bound that is exact over Q
    whenever the reconstructed kernel verifies (independence mod p implies
    independence over Q; `ncols - rank` exactly verified kernel vectors give
    the matching upper bound).  The RREF coefficients of the free columns are
    CRT-combined prime by prime and rationally reconstructed after each one;
    the first reconstruction that verifies is returned.  A plain Fraction
    elimination is the last resort, and it warns.
    """
    if len(int_rows) == 0:
        return 0, _kernel_from_rref([], [], ncols)
    a = _as_int_array(int_rows)
    best = None  # (rank, pivcols) of the primes being combined
    for p in _MOD_PRIMES:
        r, piv, red = _mod_rref(a, p)
        # A prime can only lose rank or move pivots right; keep the best.
        if best is None or r > best[0] or (r == best[0] and piv < best[1]):
            best = (r, piv)
            free = sorted(set(range(ncols)) - set(piv))
            res, m = red[:, free].astype(object), p
        elif (r, piv) == best:
            t = ((red[:, free] - res) * pow(m, -1, p)) % p
            res, m = res + m * t, m * p
        else:
            continue
        kern = _reconstruct_kernel(res, m, piv, free, ncols)
        if kern is not None and _verifies(a, kern):
            return r, kern
    warnings.warn(f"rank_kernel_int: modular certification of a "
                  f"{len(int_rows)}x{ncols} matrix failed at all "
                  f"{len(_MOD_PRIMES)} primes; using Fraction elimination",
                  RuntimeWarning, stacklevel=2)
    red, piv = rref(a.tolist(), QQ)
    return len(piv), _kernel_from_rref(red, piv, ncols)


def _reconstruct_kernel(res, m, piv, free, ncols):
    """Kernel vectors from CRT residues `res[i, j]` of the RREF entries in
    pivot row i and free column free[j]; None if any entry fails."""
    red = [[QQ.zero] * ncols for _ in piv]
    for (i, j), x in np.ndenumerate(res):
        q = _rat_reconstruct(int(x), m)
        if q is None:
            return None
        red[i][free[j]] = q
    return _kernel_from_rref(red, piv, ncols)


def _verifies(a, kern):
    """Exact test of a @ v == 0 for every vector v in `kern` at once.

    `a` is an int64 matrix, or an object matrix of Python ints when an
    entry exceeds int64.  The kernel vectors are cleared of denominators
    into the rows of W, and a @ W.T is formed by `_exact_product`.
    """
    if not kern:
        return True
    w = []
    for v in kern:
        den = lcm(*(x.denominator for x in v))
        w.append([x.numerator * (den // x.denominator) for x in v])
    return bool((_exact_product(a, np.array(w, dtype=object).T) == 0).all())


def _max_abs(a):
    return max(int(a.max()), -int(a.min()))


def _exact_product(a, b):
    """a @ b for nonempty integer arrays, exact: in int64 when
    max_i |a_i|_1 * max|b| < 2**63 bounds every partial sum, over Python
    ints otherwise."""
    # ncols * max|a| caps the row 1-norms; the exact maximum is taken only
    # where the int64 sums behind it cannot overflow.
    row_l1 = _max_abs(a) * a.shape[1]
    if row_l1 < 2 ** 63:
        row_l1 = int(np.abs(a).sum(axis=1).max())
    if max(row_l1, 1) * _max_abs(b) < 2 ** 63:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return a.astype(object) @ b.astype(object)


# ---------------------------------------------------------------------------
# Dense matrix helpers (list-of-rows over a field).
# ---------------------------------------------------------------------------

def zeros(nrows, ncols, field=QQ):
    return [[field.zero] * ncols for _ in range(nrows)]


def eye(n, field=QQ):
    m = zeros(n, n, field)
    for i in range(n):
        m[i][i] = field.one
    return m


def mat_mul(a, b, field=QQ):
    """Product of list-of-rows matrices; shapes (m x k) @ (k x n)."""
    if not a:
        return []
    k = len(a[0])
    n = len(b[0]) if b else 0
    out = zeros(len(a), n, field)
    for i, row in enumerate(a):
        oi = out[i]
        for t in range(k):
            c = row[t]
            if field.is_zero(c):
                continue
            bt = b[t]
            for j in range(n):
                if not field.is_zero(bt[j]):
                    oi[j] = field.add(oi[j], field.mul(c, bt[j]))
    return out


def mat_vec(a, v, field=QQ):
    out = []
    for row in a:
        s = field.zero
        for c, x in zip(row, v):
            if not field.is_zero(c) and not field.is_zero(x):
                s = field.add(s, field.mul(c, x))
        out.append(s)
    return out


def mat_transpose(a, ncols=None):
    if not a:
        return [[] for _ in range(ncols)] if ncols else []
    return [list(col) for col in zip(*a)]


def mat_is_zero(a, field=QQ):
    return all(field.is_zero(x) for row in a for x in row)


def mat_eq(a, b, field=QQ):
    if len(a) != len(b):
        return False
    return all(len(ra) == len(rb) and all(field.eq(x, y) for x, y in zip(ra, rb))
               for ra, rb in zip(a, b))


def frac_mod(x, p):
    """Image of a Fraction (or int) in Z/p; None if the denominator dies."""
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            return None
        return (x.numerator * pow(x.denominator, -1, p)) % p
    return x % p


class ModSpan(SpanBuilder):
    """Row space mod p = `_MOD_PRIMES[0]`, used to certify linear
    independence over Q.

    Vectors independent mod p are independent over Q, so a greedy scan that
    inserts exact vectors whenever their reduction enlarges this span builds
    a certified independent family.
    """

    def __init__(self, ncols):
        super().__init__(ncols, _MOD_FIELD)

    def insert(self, vec):
        """vec: dense list of rationals; True if the span mod p grew.  False
        also when a denominator dies mod p; the caller may fall back."""
        p = self.field.p
        v = [frac_mod(x, p) for x in vec]
        return None not in v and super().insert(v)


def rank_big(mat, field=QQ):
    """Rank of a possibly large integer matrix (rows or array; over a prime
    field, rows of residues): `_mod_rref` over a prime field,
    `rank_kernel_int`'s certified modular rank over Q."""
    if len(mat) == 0:
        return 0
    if isinstance(field, PrimeField):
        return _mod_rref(mat, field.p)[0]
    return rank_kernel_int(mat, len(mat[0]))[0]
