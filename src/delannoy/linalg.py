"""Exact linear algebra over the coefficient fields.

Small systems go through a dense Fraction (or prime-field) row reduction.
Large integer matrices over the rationals go through a modular fast path that
is certified exact: independence mod p proves rank >= r over Q, and the
claimed corank is proved by exact integer verification of reconstructed
kernel vectors.  No result is returned on probabilistic evidence alone.
"""

import warnings
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from .fields import QQ, PrimeField

# Primes just below 2**15.5 so that p**2 stays far inside int64 during
# vectorized elimination.
_MOD_PRIMES = (46337, 46327, 46309, 46307, 46301, 46279, 46273, 46271, 46261,
               46237, 46229, 46219, 46199, 46187, 46183, 46181, 46171, 46153)


def rref(rows, field=QQ):
    """Reduced row echelon form. Returns (rref_rows, pivot_columns).

    `rows` is a list of equal-length lists over `field`; the input is not
    mutated.  Pivots prefer entries that are exactly +-1 to limit coefficient
    growth over the rationals.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    one, minus_one = field.one, field.neg(field.one)
    for c in range(ncols):
        if r == len(mat):
            break
        pick = None
        for i in range(r, len(mat)):
            if not field.is_zero(mat[i][c]):
                if pick is None:
                    pick = i
                if field.eq(mat[i][c], one) or field.eq(mat[i][c], minus_one):
                    pick = i
                    break
        if pick is None:
            continue
        mat[r], mat[pick] = mat[pick], mat[r]
        inv = field.inv(mat[r][c])
        if not field.eq(inv, one):
            mat[r] = [field.mul(inv, x) for x in mat[r]]
        row_r = mat[r]
        for i in range(len(mat)):
            if i != r and not field.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def rank(rows, field=QQ):
    return len(rref(rows, field)[1])


def nullspace(rows, ncols, field=QQ):
    """Basis of the right kernel {v : rows @ v = 0} (list of vectors)."""
    red, pivots = rref(rows, field)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.neg(red[i][f])
        basis.append(v)
    return basis


def solve(rows, rhs, field=QQ):
    """One solution x of rows @ x = rhs, or None if inconsistent.

    `rhs` may be a single vector or a list of columns (matrix as columns);
    the return value matches the shape.
    """
    single = rhs and not isinstance(rhs[0], list)
    cols = [list(rhs)] if single else [list(c) for c in rhs]
    if not rows:
        if any(not field.is_zero(x) for c in cols for x in c):
            return None
        sol = [[] for _ in cols]
        return sol[0] if single else sol
    ncols = len(rows[0])
    aug = [list(r) + [c[i] for c in cols] for i, r in enumerate(rows)]
    red, pivots = rref(aug, field)
    for row in red:
        if all(field.is_zero(x) for x in row[:ncols]) and any(
                not field.is_zero(x) for x in row[ncols:]):
            return None
    sols = []
    for j in range(len(cols)):
        x = [field.zero] * ncols
        for i, c in enumerate(pivots):
            if c < ncols:
                x[c] = red[i][ncols + j]
        sols.append(x)
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
                v = [f.mul(inv, x) for x in v]
                for i, row in enumerate(self.rows):
                    c = row[p]
                    if not f.is_zero(c):
                        self.rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(row, v)]
                self.rows.append(v)
                self.pivots.append(p)
                order = sorted(range(len(self.pivots)), key=lambda i: self.pivots[i])
                self.rows = [self.rows[i] for i in order]
                self.pivots = [self.pivots[i] for i in order]
                return True
        return False

    def contains(self, vec):
        return all(self.field.is_zero(x) for x in self.reduce(vec))


# ---------------------------------------------------------------------------
# Certified modular rank/kernel for integer matrices over Q.
# ---------------------------------------------------------------------------

def _to_int_rows(rows, field):
    """Scale each row by the lcm of denominators; returns list of int lists."""
    out = []
    for r in rows:
        den = 1
        for x in r:
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
        out.append([int(x * den) if isinstance(x, Fraction) else int(x) * den
                    for x in r])
    return out


def _mod_rref(mat, p):
    """RREF of an int64 numpy matrix mod p. Returns (rank, pivcols, reduced)."""
    m = np.array(mat, dtype=np.int64) % p
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
    if not int_rows:
        basis = [[Fraction(0)] * ncols for _ in range(ncols)]
        for i in range(ncols):
            basis[i][i] = Fraction(1)
        return 0, basis
    try:
        a = np.array(int_rows, dtype=np.int64)
    except OverflowError:  # an entry beyond int64: keep exact Python ints
        a = np.array(int_rows, dtype=object)
    best = None  # (rank, pivcols) of the primes being combined
    for p in _MOD_PRIMES:
        r, piv, red = _mod_rref(a % p if a.dtype == object else a, p)
        # A prime can only lose rank or move pivots right; keep the best.
        if best is None or r > best[0] or (r == best[0] and piv < best[1]):
            best = (r, piv)
            pivset = set(piv)
            free = [c for c in range(ncols) if c not in pivset]
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
    red, piv = rref([[Fraction(x) for x in row] for row in int_rows], QQ)
    pivset = set(piv)
    kern = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(piv):
            v[c] = -red[i][f]
        kern.append(v)
    return len(piv), kern


def _reconstruct_kernel(res, m, piv, free, ncols):
    """Kernel vectors from CRT residues `res[i, j]` of the RREF entries in
    pivot row i and free column free[j]; None if any entry fails."""
    kern = []
    for j, f in enumerate(free):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(piv):
            q = _rat_reconstruct(int(res[i, j]), m)
            if q is None:
                return None
            v[c] = -q
        kern.append(v)
    return kern


def _verifies(a, kern):
    """Exact test of a @ v == 0 for every vector v in `kern` at once.

    `a` is an int64 matrix, or an object matrix of Python ints when an
    entry exceeds int64.  The kernel vectors are cleared of denominators
    into the rows of W; a @ W.T runs in int64 only when max_i |a_i|_1 *
    max|W| < 2**63 bounds every partial sum, and over Python ints otherwise.
    """
    if not kern:
        return True
    w = []
    for v in kern:
        den = 1
        for x in v:
            den = lcm(den, x.denominator)
        w.append([x.numerator * (den // x.denominator) for x in v])
    wmax = max(abs(x) for row in w for x in row)
    # ncols * max|a| caps the row 1-norms; the exact maximum is taken only
    # where the int64 sums behind it cannot overflow.
    row_l1 = max(int(a.max()), -int(a.min())) * a.shape[1]
    if row_l1 < 2 ** 63:
        row_l1 = int(np.abs(a).sum(axis=1).max())
    if row_l1 * wmax < 2 ** 63:
        prod = a @ np.array(w, dtype=np.int64).T
    else:
        prod = a.astype(object) @ np.array(w, dtype=object).T
    return bool((prod == 0).all())


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


def column_space_basis(a, field=QQ):
    """Basis of the column space, as a list of columns."""
    if not a or not a[0]:
        return []
    cols = mat_transpose(a)
    sb = SpanBuilder(len(a), field)
    basis = []
    for c in cols:
        if sb.insert(c):
            basis.append(list(c))
    return basis


def frac_mod(x, p):
    """Image of a Fraction (or int) in Z/p; None if the denominator dies."""
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            return None
        return (x.numerator * pow(x.denominator, -1, p)) % p
    return x % p


class ModSpan:
    """Row space mod p, used to certify linear independence over Q.

    Vectors independent mod p are independent over Q, so a greedy scan that
    inserts exact vectors whenever their reduction enlarges this span builds
    a certified independent family.
    """

    def __init__(self, ncols, p=46337):
        self.p = p
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots = []

    @property
    def dim(self):
        return len(self.pivots)

    def insert(self, vec):
        """vec: dense list of field elements; True if the span mod p grew."""
        p = self.p
        v = np.zeros(self.ncols, dtype=np.int64)
        for i, x in enumerate(vec):
            m = frac_mod(x, p)
            if m is None:
                return False  # unusable reduction; caller may fall back
            v[i] = m
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                v = (v - v[c] * row) % p
        nz = np.nonzero(v)[0]
        if len(nz) == 0:
            return False
        c = int(nz[0])
        v = (v * pow(int(v[c]), -1, p)) % p
        self.rows = np.vstack([self.rows, v])
        self.pivots.append(c)
        return True


def rank_big(rows, field=QQ):
    """Rank of a possibly large matrix; certified modular path over Q."""
    if isinstance(field, PrimeField):
        if field.p > 46337:
            return rank(rows, field)
        r, _, _ = _mod_rref([[x % field.p for x in row] for row in rows], field.p)
        return r
    if not rows:
        return 0
    return rank_kernel_int(_to_int_rows(rows, field), len(rows[0]))[0]
