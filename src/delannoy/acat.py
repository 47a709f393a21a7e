"""Karoubi-level structure of the two matrix categories.

An object is an ambient formal sum of S(R^(n))'s together with an idempotent
matrix cutting out a summand; the measure tag selects the category (mu1: the
semisimple one, mu2: the additive non-semisimple one).  Everything here is
rank-based linear algebra over the path span: no idempotent is ever split
into sub-idempotents.

Hom dimensions take one route over every field: the trace of the cut
operator H -> idem_y o H o idem_x, an integer contraction of the idempotents'
diagonal blocks against a structure table.  Over F_p the trace is certified
either by p exceeding the span dimension or by both idempotents lifting to
idempotents over Z, so a hom dimension is the same over Q and over every F_p.
The tables are built per (part sizes, measure) and take one of two routes.
Under mu2, on parts of size at most `_CHARACTER_MAX_SIZE`, a table is
chi_t H chi_s^T: two character tables of the Schwartz spaces and the 0/1
hom-dimension pattern H of the indecomposables.  It is exact because the
trace sees the two matrices only modulo the radical (`_trace_table` gives
the argument); the rule that gives the characters is checked against the
structure constants on every size pair of that window.  Every other table
is the join of that measure's structure constants (`_trace_join`).  The
cut's diagonal always reads the structure constants, as two dense sides per
part pair (`_block_diagonal`).

Hom spaces also take one route: `hom_space` scans the cut images once into
one span (mod p over Q, exact over F_p) and keeps the span's pivot keys with
the basis, and `coords_in_basis` solves the square system on those keys and
checks the residual exactly.  The scan takes first the keys on which the
cut's diagonal is nonzero, read off the same structure constants as the
trace, so a key is composed only when it is likely to join the basis.  The
trace terms are contracted once per hom space and give both the dimension
and the part pairs on which the diagonal is read: those whose term is
nonzero.  Each read builds its two sides afresh and keeps nothing.

e_lambda is written down as path words, one block per letter (D or UR at b,
D or RU at w), and down_map, up_map and ud_map as e_lambda's words followed
by R, by U, or by one of UR, RU, D.  Every coefficient is 1 over every
field, so no path scan and no composition builds them.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .fields import QQ, PrimeField
from .linalg import ModSpan, SpanBuilder, _max_abs, rank_big, solve
from .paths import RIGHT, UP, delannoy, enumerate_paths, path_m, path_n
# `_pair_index` is no longer called here; it stays bound because
# perfbench/selftest.py checks that the tracer rebinds it in this module.
from .schwartz import (MU2, PermMatrix, _pair_arrays, _pair_index,  # noqa: F401
                       _path_pos, compose, identity, tensor, tensor_object)
from .weights import (BLACK, WHITE, black_tail, enumerate_weights,
                      hom_dim_pattern)


# Integer contractions run in int64 only under a proven bound below this.
_INT64_LIMIT = 2 ** 63


@dataclass(frozen=True)
class AObject:
    """A summand of a formal sum of Schwartz spaces, cut by an idempotent."""

    measure: int
    ambient: tuple
    idem: PermMatrix

    @property
    def field(self):
        return self.idem.field

    def validate(self):
        if compose(self.idem, self.idem, self.measure) != self.idem:
            raise ValueError("defining matrix is not idempotent")
        return self

    @cached_property
    def identity_cut(self):
        """Whether the cut is the identity, decided once per object."""
        return self.idem == identity(self.ambient, self.idem.field)

    @cached_property
    def lifted(self):
        """The idempotent lifted to integers, {key: int} (see
        `_integer_entries`); once per object, so once per weight and field
        for the interned `indecomposable`s."""
        return _integer_entries(self.idem)

    @cached_property
    def diag_blocks(self):
        """The diagonal part-blocks of the lifted idempotent, once per object:
        diag_blocks[part] = (ids, coeffs, norm), with ids the int64 path ids
        (`_path_pos`) of the block's nonzero entries, coeffs their integer
        values (int64, or Python ints when one does not fit) and norm the
        sum of their absolute values."""
        parts = {}
        for (tp, sp, path), c in self.lifted.items():
            if tp == sp:
                parts.setdefault(tp, []).append((path, c))
        out = {}
        for part, items in parts.items():
            pos = _path_pos(self.ambient[part], self.ambient[part])
            values = [c for _, c in items]
            norm = sum(map(abs, values))
            out[part] = (np.array([pos[path] for path, _ in items],
                                  dtype=np.int64),
                         np.array(values, dtype=np.int64
                                  if max(map(abs, values)) < _INT64_LIMIT
                                  else object),
                         norm)
        return out

    @cached_property
    def lifts_over_z(self):
        """Whether the integer lift of the idempotent is idempotent over Z,
        decided once per object (`_idempotent_over_z`)."""
        return self.identity_cut or _idempotent_over_z(
            self.measure, self.ambient, self.lifted.items())


@dataclass
class HomSpace:
    """A basis of a cut hom space and its pivot keys: the basis restricted
    to `pivots` is an invertible dim x dim matrix."""

    basis: list
    dim: int
    pivots: list


# The path-word block of one weight letter: the pair (y_i, x_i) is shared
# (D) or consecutive, y first at a black letter (UR), x first at a white one.
_BLOCKS = {BLACK: ("UR", "D"), WHITE: ("RU", "D")}


def _cut_matrix(lam, field, last=("",)):
    """The one-part matrix with coefficient 1 on each path word of e_lambda
    (one `_BLOCKS` block per letter) followed by each step in `last`; its
    keys come in `enumerate_paths` order when `last` does."""
    words = ["".join(blocks) + step
             for blocks in product(*(_BLOCKS[c] for c in lam))
             for step in last]
    return PermMatrix((path_m(words[0]),), (path_n(words[0]),),
                      {(0, 0, w): field.one for w in words}, field)


@lru_cache(maxsize=1024)
def e_lambda(lam, field=QQ):
    """The idempotent cutting the weight-lam summand out of S(R^(n)).

    Indicator of the configurations with y_i <= x_i at black letters,
    x_i <= y_i at white letters, and interlacing y_i < x_{i+1}, x_i < y_{i+1}.
    The interlacing puts pair i below pair i + 1, so each pair is
    consecutive on the line and its path block is D, or UR (black) or RU
    (white): 2^|lam| words (`_cut_matrix`).  Built once per (weight, field)
    and shared, as a matrix is immutable.
    """
    return _cut_matrix(lam, field)


@lru_cache(maxsize=1024)
def indecomposable(lam, measure=MU2, field=QQ):
    """The indecomposable object cut out of S(R^(l(lam))) by e_lambda.

    Built once per (weight, measure, field) and shared, so its identity
    flag, integer lift and diagonal blocks are computed once per process.
    """
    return AObject(measure, (len(lam),), e_lambda(lam, field))


def schwartz_object(n, measure=MU2, field=QQ):
    """The full Schwartz space S(R^(n)) (identity idempotent)."""
    return AObject(measure, (n,), identity((n,), field))


def tensor_objects(x, y):
    if x.measure != y.measure:
        raise ValueError("measure mismatch")
    ambient, _ = tensor_object(x.ambient, y.ambient)
    return AObject(x.measure, ambient, tensor(x.idem, y.idem))


# ---------------------------------------------------------------------------
# Hom spaces.
# ---------------------------------------------------------------------------

def _span_keys(x, y):
    keys = []
    for tp, st in enumerate(y.ambient):
        for sp, ss in enumerate(x.ambient):
            for p in enumerate_paths(ss, st):
                keys.append((tp, sp, p))
    return keys


def _check_same_setting(x, y):
    if x.measure != y.measure:
        raise ValueError("measure mismatch")
    if x.field != y.field:
        raise ValueError("field mismatch")


# Join rows of the expanded trace table accumulated at once.
_JOIN_CHUNK = 1 << 16


def _join_keys(delta, gamma, n_span):
    """The join key delta * n_span + gamma of the trace join's rows, in
    int32 when every key fits."""
    dtype = np.int32 if n_span * n_span <= np.iinfo(np.int32).max \
        else np.int64
    return delta.astype(dtype) * n_span + gamma


# Part sizes up to which `_trace_table` reads a mu2 table off the characters:
# the sizes on which tests/test_structure_constants.py compares every trace
# table with its structure-constant oracle, since the block rule of
# `_characters` is checked there and not proven.
_CHARACTER_MAX_SIZE = 4


def _path_characters(path):
    """{lam: chi(path, lam)} for an (n, n) path, over the weights lam whose
    value is nonzero: the block rule of `_characters`, one sum per prefix
    ending at a diagonal cut."""
    cuts, balance = [0], 0
    for i, step in enumerate(path, 1):
        balance += (step != UP) - (step != RIGHT)
        if not balance:
            cuts.append(i)
    sums = [{"": 1}] + [{} for _ in cuts[1:]]
    for j in range(1, len(cuts)):
        for i in range(j):
            block = path[cuts[i]:cuts[j]]
            # (-1)^(m - d): the m source points less the d shared ones
            sign = -1 if block.count(RIGHT) % 2 else 1
            letters = [c for c, end in ((BLACK, RIGHT), (WHITE, UP))
                       if block[-1] != end]
            for lam, v in sums[i].items():
                for c in letters:
                    sums[j][lam + c] = sums[j].get(lam + c, 0) + sign * v
    return sums[-1]


@lru_cache(maxsize=8)
def _characters(n):
    """The mu2 character table chi_n of S(R^(n)), an int64 array over the
    (n, n) paths beta (`enumerate_paths` order) by the weights lam of length
    <= n (`enumerate_weights` order).

    chi_n[beta, lam] is the trace of C_beta on the multiplicity space of
    M_lam in S(R^(n)) = sum over lam of M_lam^C(n-1, |lam|-1).  A diagonal
    cut of beta is a position where the prefix has as many R-or-D steps as
    U-or-D steps; cutting beta at k-1 of its interior diagonal cuts gives k
    blocks.  A block with m source points and d D-steps has sign
    (-1)^(m-d); it may carry the letter b unless its last step is R, and w
    unless its last step is U.  chi_n[beta, lam] sums, over the cuts of beta
    into |lam| blocks, the product of each block's sign and whether it may
    carry its letter of lam.  So chi_0 = [[1]], chi_n[beta, ""] = 0 for
    n >= 1, and chi_n[D^n, lam] = C(n-1, |lam|-1).
    """
    col = {lam: i for i, lam in enumerate(enumerate_weights(n))}
    paths = enumerate_paths(n, n)
    out = np.zeros((len(paths), len(col)), dtype=np.int64)
    for row, path in enumerate(paths):
        for lam, v in _path_characters(path).items():
            out[row, col[lam]] = v
    return out


@lru_cache(maxsize=64)
def _trace_table(s_t, s_src, mu):
    """Structure table for operator traces on the matrix span under mu.

    Returns U: U[beta, alpha] is, for the paths with ids beta and alpha
    (`_path_pos`), the trace of X -> C_beta o X o C_alpha on the span of
    matrices from the size-s_src part to the size-s_t part.  Traces of the
    cut operators are bilinear contractions of this dense int64 table
    against the diagonal idempotent blocks.

    Under mu2 with both sizes at most `_CHARACTER_MAX_SIZE`, U is
    chi_t H chi_s^T (`_character_trace`): chi the character tables
    (`_characters`), H[a][b] = dim Hom(M_b, M_a) (`hom_dim_pattern`).  This
    is exact.  Write B = C_beta in End(S_t), A = C_alpha in End(S_s) and
    L_B R_A for X -> B o X o A.  Its trace vanishes when B lies in the
    radical, as L_B is then nilpotent and commutes with R_A (likewise for
    A), so it depends on B and A modulo the radicals only.  S_t is the sum
    over a of M_a (x) k^(m_a), and End(M_a) = k, so End(S_t)/rad is the sum
    over a of Mat(m_a).  On Hom(M_b, M_a) (x) Hom(k^(m_b), k^(m_a)), L_B R_A
    acts as id (x) (B_a o - o A_b), with B_a and A_b the images of B and A
    in Mat(m_a) and Mat(m_b), so its trace is the sum over (a, b) of
    dim Hom(M_b, M_a) * tr B_a * tr A_b, and tr B_a = chi_t[beta, a].  The
    block rule that gives chi is checked, not proven: the window is the
    sizes on which the tests compare every table with the oracle.

    Every other table (mu1, mu3, mu4, or a size above the window) is the
    structure-constant join, `_trace_join`.
    """
    if mu == MU2 and max(s_t, s_src) <= _CHARACTER_MAX_SIZE:
        return _character_trace(s_t, s_src)
    return _trace_join(s_t, s_src, mu)


def _character_trace(s_t, s_src):
    """chi_t H chi_s^T over the character tables (`_characters`), with
    H[a][b] = dim Hom(M_b, M_a) (`hom_dim_pattern`): the mu2 trace table
    that `_trace_table` reads inside its size window."""
    pattern = np.array([[hom_dim_pattern(b, a)
                         for b in enumerate_weights(s_src)]
                        for a in enumerate_weights(s_t)], dtype=np.int64)
    return _characters(s_t) @ pattern @ _characters(s_src).T


def _trace_join(s_t, s_src, mu):
    """`_trace_table(s_t, s_src, mu)` from the structure constants: U[beta,
    alpha] is the sum over paths delta, gamma between the parts of
    c_mu(gamma; beta, delta) * c_mu(delta; gamma, alpha).

    The rows of `_pair_arrays(s_t, s_src, s_src, mu)` are sorted by their
    join key (`_join_keys`) on (delta, gamma), and the rows of
    `_pair_arrays(s_t, s_t, s_src, mu)` are expanded over their matches
    there, a bounded number of joined rows at a time.
    """
    n_span = delannoy(s_src, s_t)
    beta, delta1, gamma1, c1 = _pair_arrays(s_t, s_t, s_src, mu)
    key1 = _join_keys(delta1, gamma1, n_span)
    gamma2, alpha, delta2, c2 = _pair_arrays(s_t, s_src, s_src, mu)
    key2 = _join_keys(delta2, gamma2, n_span)
    order = np.argsort(key2)
    alpha, key2, c2 = alpha[order], key2[order], c2[order]
    # the permutation is one int64 per row: freed before the expansion
    del order
    n_beta, n_alpha = delannoy(s_t, s_t), delannoy(s_src, s_src)
    lo = np.searchsorted(key2, key1, "left")
    counts = np.searchsorted(key2, key1, "right") - lo
    ends = np.cumsum(counts)
    total = int(counts.sum())
    # every entry of U is a sum of at most `total` products c1 * c2
    if total and _max_abs(c1) * _max_abs(c2) * total >= _INT64_LIMIT:
        raise OverflowError(f"trace table ({s_t}, {s_src}) under mu{mu} "
                            "may exceed int64")
    table = np.zeros(n_beta * n_alpha, dtype=np.int64)
    start = 0
    while start < len(counts):
        # rows start..stop-1 expand to at most _JOIN_CHUNK joined rows
        # (or to the matches of the one row start)
        begin = int(ends[start] - counts[start])
        stop = max(start + 1, int(np.searchsorted(ends, begin + _JOIN_CHUNK,
                                                  "right")))
        n = counts[start:stop]
        i1 = np.repeat(np.arange(start, stop), n)
        i2 = (np.repeat(lo[start:stop] - (ends[start:stop] - n), n)
              + np.arange(begin, int(ends[stop - 1])))
        np.add.at(table, beta[i1].astype(np.int64) * n_alpha + alpha[i2],
                  c1[i1].astype(np.int64) * c2[i2])
        start = stop
    return table.reshape(n_beta, n_alpha)


def _integer_entries(m):
    """The entries of m as Python ints: a prime-field entry c as its
    symmetric residue (c - p when 2c > p), a rational one only if integral."""
    f = m.field
    if isinstance(f, PrimeField):
        return {k: c - f.p if 2 * c > f.p else c for k, c in m.entries.items()}
    if any(c.denominator != 1 for c in m.entries.values()):
        raise ValueError("idempotent has a non-integral entry")
    return {k: c.numerator for k, c in m.entries.items()}


def _idempotent_over_z(measure, ambient, entries):
    """Whether the integer matrix with these (key, value) entries is
    idempotent over Z; each object asks this once (`AObject.lifts_over_z`)."""
    lift = PermMatrix(ambient, ambient,
                      {k: QQ.of_int(c) for k, c in entries}, QQ)
    try:
        AObject(measure, ambient, lift).validate()
    except ValueError:
        return False
    return True


def _trace_terms(x, y):
    """The trace of the cut P: H -> idem_y o H o idem_x split by part pair,
    {(tp, sp): term}, over the diagonal part-blocks of both lifted
    idempotents (`AObject.diag_blocks`).

    A term is yc @ block @ xc with block = `_trace_table(s_t, s_src,
    mu)`[rows, cols], exact: in int64 when sum|yc| * sum|xc| * D(s_src,
    s_t)**2 < 2**63 bounds every partial sum, in Python ints otherwise.  A
    table entry sums one product of two constants in {0, 1, -1} per pair
    (delta, gamma) (`_trace_join`; the character route gives the same
    table), so it is at most D(s_src, s_t)**2.  `hom_dim` sums the
    terms; `hom_space` hands them to `_cut_diagonal`, which reads the
    diagonal only where a term is nonzero.
    """
    mu = x.measure
    out = {}
    for tp, (rows, yc, y_norm) in y.diag_blocks.items():
        for sp, (cols, xc, x_norm) in x.diag_blocks.items():
            s_t, s_src = y.ambient[tp], x.ambient[sp]
            block = _trace_table(s_t, s_src, mu)[rows[:, None], cols]
            if y_norm * x_norm * delannoy(s_src, s_t) ** 2 < _INT64_LIMIT:
                out[tp, sp] = int(yc @ block @ xc)
            else:
                out[tp, sp] = int(yc.astype(object) @ block.astype(object)
                                  @ xc.astype(object))
    return out


def hom_dim(x, y):
    """dim Hom(x, y), the rank of P: H -> idem_y o H o idem_x on the path span.

    One route for every field.  P is idempotent, so its rank is its trace,
    the sum of `_trace_terms`: integer contractions of the idempotents'
    diagonal part-blocks (lifted to integer entries) against the trace
    table of the objects' measure, one per pair of parts.  Under mu2 on
    parts of size at most `_CHARACTER_MAX_SIZE` that table is read off the
    character tables, exactly (`_trace_table`); otherwise it is the join of
    the structure constants.  Both routes give the same integer table, so
    the certificate below holds for either.  Over Q the trace is the rank.
    Over F_p it is certified one of two ways:

    * p > n_keys: rank = trace mod p, as rank and trace agree mod p and
      0 <= rank <= n_keys < p, where n_keys = sum of D(s_src, s_t) over the
      part pairs is the dimension of the path span;
    * p <= n_keys: both lifts are idempotent over Z, so P is an integer
      idempotent, Z^n = im P + ker P, and its rank is the same over F_p as
      over Q.  Otherwise ValueError.
    """
    return _hom_dim_terms(x, y)[0]


def _hom_dim_terms(x, y):
    """(`hom_dim(x, y)`, the `_trace_terms` it summed), so that `hom_space`
    contracts each part pair once; the terms are None when no contraction
    ran (an empty span, or two identity cuts)."""
    _check_same_setting(x, y)
    n_keys = sum(delannoy(s_src, s_t) for s_t in y.ambient
                 for s_src in x.ambient)
    if not n_keys:
        return 0, None
    if x.identity_cut and y.identity_cut:
        return n_keys, None
    terms = _trace_terms(x, y)
    total = sum(terms.values())
    f = x.field
    if not isinstance(f, PrimeField):
        return total, terms
    if f.p > n_keys:
        return total % f.p, terms
    if not (x.lifts_over_z and y.lifts_over_z):
        raise ValueError(f"hom dimension over GF({f.p}) is not certified: "
                         "an idempotent does not lift to one over Z")
    return total, terms


def _block_diagonal(s_t, s_src, y_block, x_block, mu):
    """The diagonal of the cut on one part block, indexed by path id delta.

    For the key C_delta from the size-s_src part to the size-s_t part, the
    coefficient of C_delta in idem_y o C_delta o idem_x, with y_beta and
    x_alpha the entries of the diagonal blocks of idem_y and idem_x
    (`AObject.diag_blocks`, (ids, coeffs, norm) each), is
    P[delta] = sum_gamma A[delta, gamma] * B[delta, gamma], with
    A = sum_beta y_beta c(gamma; beta, delta) and
    B = sum_alpha x_alpha c(delta; gamma, alpha),
    the per-key term of the trace `hom_dim` sums.  A and B are dense
    D x D arrays over the D = D(s_src, s_t) paths delta and gamma, filled
    from the structure constants under mu: A from the rows of
    `_pair_arrays(s_t, s_t, s_src, mu)` of y's betas (rows are sorted by
    beta, so they are read by ranges), B from the rows of
    `_pair_arrays(s_t, s_src, s_src, mu)` of x's alphas (by a mask).

    Exact: each (beta, delta, gamma) is one row with constant +1 or -1, so
    |A| <= |y|_1 and |B| <= |x|_1, the blocks' norms, and every partial sum
    of P is at most D * |y|_1 * |x|_1.  The arrays are int64 when that is
    below 2**63, Python ints otherwise.  `hom_space`'s source is M_nu with
    |nu| <= 3 in the engine, so D <= D(3, 7) = 575: two transient arrays
    of at most 330,625 entries, none kept after the call.
    """
    n_span = delannoy(s_src, s_t)
    b_ids, b_coeffs, y_norm = y_block
    a_ids, a_coeffs, x_norm = x_block
    dtype = np.int64 if n_span * y_norm * x_norm < _INT64_LIMIT else object
    beta, delta1, gamma1, c1 = _pair_arrays(s_t, s_t, s_src, mu)
    lo = np.searchsorted(beta, b_ids, "left")
    n = np.searchsorted(beta, b_ids, "right") - lo
    rows1 = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(int(n.sum()))
    a = np.zeros((n_span, n_span), dtype=dtype)
    np.add.at(a, (delta1[rows1], gamma1[rows1]),
              np.repeat(b_coeffs.astype(dtype), n) * c1[rows1].astype(dtype))
    gamma2, alpha, delta2, c2 = _pair_arrays(s_t, s_src, s_src, mu)
    wx = np.zeros(delannoy(s_src, s_src), dtype=dtype)
    wx[a_ids] = a_coeffs
    used = np.zeros(len(wx), dtype=bool)
    used[a_ids] = True
    rows2 = np.flatnonzero(used[alpha])
    b = np.zeros((n_span, n_span), dtype=dtype)
    np.add.at(b, (delta2[rows2], gamma2[rows2]),
              wx[alpha[rows2]] * c2[rows2].astype(dtype))
    return np.einsum("ij,ij->i", a, b)


def _cut_diagonal(x, y, terms):
    """The diagonal of the cut P: H -> idem_y o H o idem_x over the integer
    lifts on the part pairs whose trace term in terms (`_trace_terms(x, y)`)
    is nonzero, as {key: P_kk} over the keys with P_kk != 0; P_kk is the
    coefficient of C_key in P(C_key), read off the diagonal part-blocks of
    both idempotents (`_block_diagonal`, one per read pair).  A skipped
    pair's entries sum to its term 0, so the values still sum to the trace
    `hom_dim` computes."""
    out = {}
    for (tp, sp), term in terms.items():
        if not term:
            continue
        s_t, s_src = y.ambient[tp], x.ambient[sp]
        diag = _block_diagonal(s_t, s_src, y.diag_blocks[tp],
                               x.diag_blocks[sp], x.measure)
        paths = enumerate_paths(s_src, s_t)
        for i in np.flatnonzero(diag).tolist():
            out[(tp, sp, paths[i])] = int(diag[i])
    return out


def _apply_cut(h, x, y):
    return compose(y.idem, compose(h, x.idem, x.measure), x.measure)


def hom_space(x, y):
    """A basis of {H : idem_y o H o idem_x = H}, with the keys it is solved on.

    Candidates idem_y o C_key o idem_x are scanned once into one span:
    modulo a prime over Q (independence mod p implies independence over Q),
    exact over F_p.  The keys whose diagonal entry P_kk (the coefficient of
    C_key in its own image, `_cut_diagonal`) is nonzero in the field come
    first, in key order, then every other key in key order.  P_kk != 0
    implies a nonzero image and d = sum_k P_kk; typically exactly d keys
    have P_kk != 0 and their images are independent, so the scan composes
    2d times.  d and the per-pair trace terms come from one contraction
    (`_hom_dim_terms`, `hom_dim`'s route and certificate), and the diagonal
    is read only on part pairs whose term is nonzero, so a key whose pair's
    term cancels to 0 comes later, in key order.  The order only decides
    which keys are cut first, never whether the basis is complete.  The
    scan stops once the exactly known dimension d is reached, so the basis
    is certified complete.  The span's pivot keys are kept as `pivots`: the basis
    restricted to them is an invertible d x d matrix (a minor invertible mod
    p is invertible over Q).  If the prime misses d over Q, one exact span
    runs over the nonzero images already computed, with a RuntimeWarning; a
    scan that still misses d raises.
    """
    d, terms = _hom_dim_terms(x, y)
    if d == 0:
        return HomSpace([], 0, [])
    keys = _span_keys(x, y)
    f = x.field
    if d == len(keys):
        basis = [PermMatrix(x.ambient, y.ambient, {k: f.one}, f) for k in keys]
        return HomSpace(basis, d, keys)
    key_pos = {k: i for i, k in enumerate(keys)}

    def vector(h):
        vec = [f.zero] * len(keys)
        for key, v in h.entries.items():
            vec[key_pos[key]] = v
        return vec

    lead = {k for k, v in _cut_diagonal(x, y, terms).items()
            if not f.is_zero(f.of_int(v))}
    prime = isinstance(f, PrimeField)
    span = SpanBuilder(len(keys), f) if prime else ModSpan(len(keys))
    images, basis = [], []
    order = ([k for k in keys if k in lead]
             + [k for k in keys if k not in lead])
    for k in order:
        h = _apply_cut(PermMatrix(x.ambient, y.ambient, {k: f.one}, f), x, y)
        if h.is_zero():
            continue
        images.append(h)
        if span.insert(vector(h)):
            basis.append(h)
            if len(basis) == d:
                return HomSpace(basis, d, [keys[c] for c in span.pivots])
    if not prime:
        warnings.warn(f"hom_space: the modular scan of {len(keys)} keys "
                      f"missed dimension {d}; using an exact span",
                      RuntimeWarning, stacklevel=2)
        span, basis = SpanBuilder(len(keys), f), []
        for h in images:
            if len(basis) < d and span.insert(vector(h)):
                basis.append(h)
        if len(basis) == d:
            return HomSpace(basis, d, [keys[c] for c in span.pivots])
    raise RuntimeError("hom basis construction failed to reach the rank")


def coords_in_basis(h, space):
    """Coordinates of a matrix in the basis of a HomSpace; exact and verified.

    The d x d system on the pivot keys is invertible, so it has exactly one
    solution; the residual h - sum c_j b_j is then checked to vanish on
    every key, and ValueError is raised if it does not.
    """
    f = h.field
    basis = space.basis
    sol = solve([[b.get(*k) for b in basis] for k in space.pivots],
                [h.get(*k) for k in space.pivots], f)
    residual = dict(h.entries)
    for c, b in zip(sol, basis):
        if f.is_zero(c):
            continue
        for k, v in b.entries.items():
            residual[k] = f.sub(residual.get(k, f.zero), f.mul(c, v))
    if not all(f.is_zero(v) for v in residual.values()):
        raise ValueError("matrix not in span of basis")
    return sol


# ---------------------------------------------------------------------------
# Krull-Schmidt multiplicities.
# ---------------------------------------------------------------------------

def _pattern_sources(nu, max_len):
    """The weights lam of length <= max_len with Hom(M_lam, M_nu) != 0: the
    at most four nonzeros of row nu of the hom-dimension pattern, one per
    kind of `gen_kind` (nu, nu w, and for nu = kappa b also kappa, kappa w)."""
    cands = {nu, nu + WHITE}
    if nu:
        cands |= {nu[:-1], nu[:-1] + WHITE}
    return [lam for lam in cands
            if len(lam) <= max_len and hom_dim_pattern(lam, nu)]


def _pattern_inverse(h, max_len):
    """The c with A c = h in the closed form of `multiplicities`; h maps
    every weight of length <= max_len to an integer."""
    out = {}
    for lam in h:
        kappa, n = black_tail(lam)
        out[lam] = (sum((-1) ** (n - i) * h[kappa + BLACK * i]
                        for i in range(n + 1))
                    + sum((-1) ** k * h[lam + WHITE * k]
                          for k in range(1, max_len - len(lam) + 1)))
    return out


def multiplicities(x, check=True):
    """The multiset of indecomposable summands of x (weights -> counts).

    On the weights of length <= L = max(x.ambient) the counts c solve
    A c = h, with h(nu) = dim Hom(x, M_nu) and A[nu][lam] =
    `hom_dim_pattern(lam, nu)`.  A is unimodular and its inverse has a
    closed form: for lam = kappa b^n (`black_tail`),

        c_lam = sum_{i=0..n} (-1)^(n-i) h(kappa b^i)
                + sum_{k=1..L-|lam|} (-1)^k h(lam w^k)

    (`_pattern_inverse`).  The hom dimensions are integers over every field,
    so no count wraps modulo the characteristic.  A c = h is checked exactly
    on every call (each row of A has at most four nonzeros,
    `_pattern_sources`), and a negative count raises; with `check`, the
    counts are also cross-checked against dim Hom(M_nu, x).
    """
    if x.measure != MU2:
        raise ValueError("multiplicities are computed in the second category")
    if not x.ambient:
        return {}
    max_len = max(x.ambient)
    f = x.field
    h = {nu: hom_dim(x, indecomposable(nu, MU2, f))
         for nu in enumerate_weights(max_len)}
    counts = _pattern_inverse(h, max_len)
    for nu, h_nu in h.items():
        row = sum(counts[lam] for lam in _pattern_sources(nu, max_len))
        if row != h_nu:
            raise ValueError(f"hom system not solved at {nu!r} (upstream bug)")
    if any(c < 0 for c in counts.values()):
        raise ValueError("negative multiplicity (upstream bug)")
    out = {lam: c for lam, c in counts.items() if c}
    if check:
        for nu in h:
            expect = sum(c * hom_dim_pattern(nu, lam)
                         for lam, c in out.items())
            got = hom_dim(indecomposable(nu, MU2, f), x)
            if got != expect:
                raise ValueError(f"hom cross-check failed at {nu!r}")
    return out


def theta_mult(x):
    """Multiplicity of the unit object in x (the semisimplification value)."""
    return multiplicities(x, check=False).get("", 0)


# ---------------------------------------------------------------------------
# The degenerate ideal.
# ---------------------------------------------------------------------------

def degenerate_quotient_dim(n, measure=MU2, field=QQ):
    """dim End(S(R^(n))) / (morphisms factoring through S(R^(n-1)))."""
    if n < 1:
        raise ValueError("need n >= 1")
    beta, alpha, gamma, c = _pair_arrays(n, n - 1, n, measure)
    # one row per (beta, alpha) with a nonzero entry, one column per gamma
    pair = beta.astype(np.int64) * delannoy(n, n - 1) + alpha
    new = np.ones(len(pair), dtype=bool)
    np.not_equal(pair[1:], pair[:-1], out=new[1:])
    mat = np.zeros((int(new.sum()), delannoy(n, n)), dtype=np.int64)
    mat[np.cumsum(new) - 1, gamma] = c
    return delannoy(n, n) - rank_big(mat, field)


# ---------------------------------------------------------------------------
# Generator maps between indecomposables.
# ---------------------------------------------------------------------------

# down_map(lam) = e_lam o push o e_{lam w} and up_map(lam) = e_{lam b} o pull
# o e_lam, with push and pull omitting the last coordinate.  Under mu2 the
# middle point left free by the omission ranges over the closed ray up from
# the other side's last point; the open ray, unbounded above, has measure 0,
# so the point sits on that last point, above all the others.  The other
# middle points integrate to 1 exactly on e_lam's pattern.

def down_map(lam, field=QQ):
    """The distinguished map M_{lam w} -> M_lam (nonzero, unique up to scalar):
    e_lambda's words followed by R, the source's last point."""
    return _cut_matrix(lam, field, ("R",))


def up_map(lam, field=QQ):
    """The distinguished map M_lam -> M_{lam b}: e_lambda's words followed
    by U, the target's last point."""
    return _cut_matrix(lam, field, ("U",))


def ud_map(lam, field=QQ):
    """The composite M_{lam w} -> M_lam -> M_{lam b}: e_lambda's words
    followed by the two last points in either order or shared."""
    return _cut_matrix(lam, field, ("UR", "RU", "D"))
