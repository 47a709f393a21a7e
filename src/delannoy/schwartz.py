"""The measure calculus on Schwartz spaces of Aut(R, <).

Objects are formal direct sums of spaces S(R^(n)) (increasing n-tuples);
morphisms are invariant matrices expanded over the Delannoy-path basis.
Composition integrates over the middle object with respect to one of the
four invariant measures; the tensor product is measure-independent.

The four measures are pinned down by their values on powers I^(k) of open
intervals: mu1 gives (-1)^k for every open interval; mu2 gives (-1)^k for
intervals bounded above and 0 otherwise; mu3 mirrors mu2 (bounded below);
mu4 takes the value 1 on the full line itself and is otherwise forced by the
fibration rule, see `gap_measure`.

Composition reads its structure constants per size triple and measure.
`_pair_arrays` builds them once as numpy arrays over path ids (indexes into
`enumerate_paths`), one row per constant nonzero under the measure, each
+1 or -1; `_pair_index` serves them as rows (beta, alpha) -> {gamma: c},
each built on first use, so callers index it with `[]`.  A path's id is the
sum of its steps' rank offsets (the Delannoy numbers of the completions
that start with a smaller letter), so `_pair_arrays` folds the ids of beta
and alpha directly, one gamma length at a time and one row gather from a
small offset table per slot, into one int64 key per row that carries the
sign in its low bit; one in-place sort orders them all.

The tensor product needs no coordinates: a joint orbit of two entries is an
interleaving of their paths' steps (`paths.interleavings`), and the table
`_STEP` maps each interleaving step to its letters in the target orbit, the
source orbit and the joint path.

A `PermMatrix` is immutable once built; it groups its entries for
`compose` on first use and keeps them (`PermMatrix._operands`), so a matrix
composed many times converts its coefficients once.
"""

import sys
from functools import lru_cache

import numpy as np

from .fields import QQ, PrimeField
from .paths import (DIAG, RIGHT, UP, delannoy, enumerate_paths, interleavings,
                    path_m, path_n, reflect)

MU1, MU2, MU3, MU4 = 1, 2, 3, 4
MEASURES = (MU1, MU2, MU3, MU4)

BOUNDED = "bounded"
UNBOUNDED_ABOVE = "above"
UNBOUNDED_BELOW = "below"
FULL_LINE = "full"

# Middle objects larger than this are refused; composition cost grows
# exponentially in the middle size, and every verification window in the
# engine stays below the cap.  This is a safety rail, not a tuning knob.
MAX_MIDDLE = 8


def gap_measure(measure, kind, k):
    """The measure of I^(k) for an open interval I of the given kind.

    k = 0 is the empty product (a point), measure 1.  The mu1/mu2/mu3 values
    on interval powers are (-1)^k when the interval is measured at all (mu2
    needs bounded above, mu3 bounded below).  For mu4 only mu4(R) = 1 is
    given directly; the rest follows from the fibration rule
    mu(Y) = mu(F) mu(X) applied to dropping the last (or first) coordinate
    of I^(k):
      - bounded I: the fiber (x_{k-1}, sup I) is bounded, so each step
        contributes -1 and mu4(I^(k)) = (-1)^k;
      - I unbounded above: the fiber (x_{k-1}, oo) has mu4 = 0, so every
        power has mu4 = 0 (and mirrored for unbounded below, dropping the
        first coordinate instead);
      - the full line: for k >= 2 the fiber (x_{k-1}, oo) again kills the
        value, leaving mu4(R^(k)) = 0 despite mu4(R) = 1.
    """
    if k == 0:
        return 1
    sign = -1 if k % 2 else 1
    if measure == MU1:
        return sign
    if measure == MU2:
        return sign if kind in (BOUNDED, UNBOUNDED_BELOW) else 0
    if measure == MU3:
        return sign if kind in (BOUNDED, UNBOUNDED_ABOVE) else 0
    if measure == MU4:
        if kind == BOUNDED:
            return sign
        if kind == FULL_LINE and k == 1:
            return 1
        return 0
    raise ValueError(f"unknown measure {measure}")


def _int_value(c):
    if isinstance(c, int):
        return c
    if getattr(c, "denominator", None) == 1:
        return c.numerator
    return None


class PermMatrix:
    """A morphism between formal sums of S(R^(n))'s.

    `source` and `target` are tuples of part sizes; `entries` maps
    (target part index, source part index, path) to a nonzero coefficient,
    where the path key runs between the source part (right steps) and the
    target part (up steps).  Absent keys are zero.  The constructor also
    takes the entries as an iterable of (key, coefficient) items, read once;
    a later item with an earlier key replaces its value.  Over F_p an entry
    is kept as its residue in [0, p), so equal matrices have equal entries.

    A matrix is immutable: nothing changes `entries` after construction,
    which is what makes it hashable and lets it keep the grouped operands
    `compose` reads (see `_operands`).
    """

    __slots__ = ("source", "target", "entries", "field", "_groups")

    def __init__(self, source, target, entries, field=QQ):
        self.source = tuple(source)
        self.target = tuple(target)
        self.field = field
        p = field.p if isinstance(field, PrimeField) else None
        clean = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for (ti, si, path), c in items:
            if p is not None:
                c %= p
            if field.is_zero(c):
                continue
            if path_m(path) != self.source[si] or path_n(path) != self.target[ti]:
                raise ValueError(f"path {path!r} does not fit parts "
                                 f"{self.source[si]} -> {self.target[ti]}")
            clean[(ti, si, path)] = c
        self.entries = clean
        self._groups = None

    def _operands(self):
        """The entries grouped by source part and by target part.

        Returns (by_source, by_target) with by_source[si][ti] and
        by_target[ti][si] lists of (path, coefficient).  A coefficient is a
        Python int wherever the entry is one (every prime-field entry and
        every integral rational) and the field element otherwise.  Built on
        first use and kept with the matrix.
        """
        if self._groups is None:
            by_source, by_target = {}, {}
            for (ti, si, path), c in self.entries.items():
                v = _int_value(c)
                item = (path, c if v is None else v)
                by_source.setdefault(si, {}).setdefault(ti, []).append(item)
                by_target.setdefault(ti, {}).setdefault(si, []).append(item)
            self._groups = by_source, by_target
        return self._groups

    def get(self, ti, si, path):
        return self.entries.get((ti, si, path), self.field.zero)

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.entries)
        f = self.field
        for k, c in other.entries.items():
            out[k] = f.add(out.get(k, f.zero), c)
        return PermMatrix(self.source, self.target, out, f)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, c):
        f = self.field
        return PermMatrix(self.source, self.target,
                          {k: f.mul(c, v) for k, v in self.entries.items()}, f)

    def __eq__(self, other):
        if not isinstance(other, PermMatrix):
            return NotImplemented
        if ((self.source, self.target, self.field)
                != (other.source, other.target, other.field)):
            return False
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.source, self.target, self.field,
                     frozenset(self.entries.items())))

    def __repr__(self):
        return (f"PermMatrix({list(self.source)} -> {list(self.target)}, "
                f"{len(self.entries)} entries)")

    def _compatible(self, other):
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("object mismatch")
        if self.field != other.field:
            raise ValueError("field mismatch")


def identity(obj, field=QQ):
    entries = {}
    for i, n in enumerate(obj):
        entries[(i, i, "D" * n)] = field.one
    return PermMatrix(obj, obj, entries, field)


# ---------------------------------------------------------------------------
# Composition.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _middle_cells(r, k, measure):
    """Order types of a strictly increasing k-tuple relative to r fixed points,
    those of nonzero measure.

    Returns (pattern, c), read-only arrays with one row per cell: `pattern`
    is an int32 (cells x (2r + 1)) matrix whose rows alternate gap and pin
    counts (g0, p0, g1, p1, ..., gr), gaps holding any number of middle
    coordinates and pins at most one; `c` is the int8 vector of the cells'
    measures, each the product of gap_measure(measure, kind, g) over its
    gaps (pins are points of measure one), so +1 or -1.  A gap of measure
    zero prunes the recursion.
    """
    if r == 0:
        kinds = (FULL_LINE,)
    else:
        kinds = (UNBOUNDED_BELOW,) + (BOUNDED,) * (r - 1) + (UNBOUNDED_ABOVE,)
    patterns, signs = [], []
    pattern = [0] * (2 * r + 1)

    def rec(slot, remaining, c):
        # slots alternate gap 0, pin 0, gap 1, pin 1, ..., gap r
        if slot == 2 * r:  # the last gap takes what remains
            v = c * gap_measure(measure, kinds[r], remaining)
            if v:
                pattern[slot] = remaining
                patterns.append(tuple(pattern))
                signs.append(v)
                pattern[slot] = 0
            return
        if slot % 2 == 1:  # pin: holds zero or one middle coordinate
            rec(slot + 1, remaining, c)
            if remaining:
                pattern[slot] = 1
                rec(slot + 1, remaining - 1, c)
                pattern[slot] = 0
            return
        kind = kinds[slot // 2]
        rec(slot + 1, remaining, c)  # empty gap
        for g in range(1, remaining + 1):
            v = c * gap_measure(measure, kind, g)
            if v:
                pattern[slot] = g
                rec(slot + 1, remaining - g, v)
                pattern[slot] = 0

    rec(0, k, 1)
    del rec  # it refers to itself: drop it now, and its lists with it
    pat = np.array(patterns, dtype=np.int32).reshape(len(signs), 2 * r + 1)
    c = np.array(signs, dtype=np.int8)
    pat.flags.writeable = c.flags.writeable = False
    return pat, c


# Bound on the offset tables _pair_arrays builds at once (its `block` of
# slots), so they stay about a MB unless one slot's tables are larger.
_CHUNK = 1 << 16


@lru_cache(maxsize=None)
def _path_pos(m, n):
    """Path -> id over the (m, n) paths."""
    return {p: i for i, p in enumerate(enumerate_paths(m, n))}


def _delannoy_table(m, n):
    """D(j, k) at [j + 1, k + 1] for -1 <= j <= m and -1 <= k <= n, int32."""
    return np.array([[delannoy(j, k) for k in range(-1, n + 1)]
                     for j in range(-1, m + 1)], dtype=np.int32)


@lru_cache(maxsize=None)
def _pair_arrays(tgt_size, mid_size, src_size, measure):
    """Composition structure constants for one triple of part sizes under
    one measure, as arrays.

    Returns (beta, alpha, gamma, c): int32 path ids (beta among the
    (mid, tgt) paths, alpha among the (src, mid) paths, gamma among the
    (src, tgt) paths) and the int8 constants, one row per nonzero
    c(gamma; beta, alpha), sorted by (beta, alpha, gamma).  Composing a matrix
    supported on beta (middle -> target) with one supported on alpha
    (source -> middle) contributes c * product-of-coefficients to gamma.

    The gammas of each length r are paired with every middle-cell pattern
    of _middle_cells(r, mid, measure), and the ids of beta and alpha are
    folded slot by slot over that (gamma x pattern) grid.  At slot i a gap
    of g middle coordinates appends R^g to beta and U^g to alpha; then the
    pin takes the letter of gamma there, and the pattern uses or skips it.
    Used/skipped, a U pin (target only) gives beta D/U and alpha U/nothing,
    an R pin (source only) gives beta R/nothing and alpha D/R, and a D pin
    gives beta D/U and alpha D/R.

    The id of a path in `enumerate_paths` order (U < R < D) is a sum over
    its steps: a step with m' source and n' target steps left adds the
    number of completions that start with a smaller letter, 0 for U,
    D(m', n' - 1) for R and D(m', n' - 1) + D(m' - 1, n') for D.  Before
    slot i the middle points used depend only on the pattern, and the
    target and source points used only on gamma; so the slot's beta offset
    is one row of a table over (slot, target points left, whether the
    letter is a target point) and patterns, and its alpha offset one row of
    a table over (slot, source points left, whether it is a source point).
    The last gap adds nothing: its R steps in beta have no target step
    left, and U steps add 0.

    Every grid entry is its own row, with the pattern's measure +1 or -1 as
    its constant.  Each length's grid becomes one signed int64 key
    ((beta * n_alpha + alpha) * n_gamma + gamma) * 2 + (c > 0); the keys of
    all lengths are sorted in place, and c is read off the low bit.  No two
    entries share a (beta, alpha, gamma): gamma fixes the r points and
    which of them are target and which source points; beta fixes each
    middle point's place among the target points (which one it equals, or
    how many lie below it) and alpha its place among the source points, and
    with gamma the two give its place among all r points, that is its slot.
    So the three paths fix the pattern; a repeated key raises RuntimeError.
    """
    if mid_size > MAX_MIDDLE:
        raise ValueError(
            f"middle object R^({mid_size}) exceeds the composition window "
            f"(MAX_MIDDLE = {MAX_MIDDLE})")
    n_beta, n_alpha, n_gamma = (delannoy(mid_size, tgt_size),
                                delannoy(src_size, mid_size),
                                delannoy(src_size, tgt_size))
    if (max(n_beta, n_alpha, n_gamma) >= 2 ** 31
            or n_beta * n_alpha * n_gamma >= 2 ** 62):
        raise ValueError(f"size triple {(tgt_size, mid_size, src_size)} is "
                         f"too large for int32 path ids and int64 keys")
    # Rank offsets.  beta runs from the middle (its source) to the target,
    # alpha from the source to the middle; d_x[j + 1, k + 1] = D(j, k), and
    # run_beta[j + 1, k + 1] sums D(j', k) over j' <= j.
    d_beta = _delannoy_table(mid_size, tgt_size)
    run_beta = d_beta.cumsum(axis=0, dtype=np.int32)
    d_alpha = _delannoy_table(src_size, mid_size)
    t_left = np.arange(tgt_size + 1)[:, None]
    s_left = np.arange(src_size + 1)[:, None]
    gammas = enumerate_paths(src_size, tgt_size)
    by_len = {}
    for gid, g in enumerate(gammas):
        by_len.setdefault(len(g), []).append(gid)
    keys = []
    for r, gids in by_len.items():
        pat, cell = _middle_cells(r, mid_size, measure)
        if not len(cell):
            continue
        # at slot i (rows) of each pattern (columns): whether the pin is
        # used, and the middle points left once the gap is taken
        gap, used = pat[:, 0:2 * r:2].T, pat[:, 1::2].T
        after = mid_size - np.cumsum(gap + used, axis=0) + used
        # each gamma's row in a slot's tables: its letter bit (a target
        # point for beta, a source point for alpha) and the points left
        letters = np.frombuffer("".join(gammas[g] for g in gids).encode(),
                                dtype=np.uint8).reshape(len(gids), r)
        rows = []
        for bit, size in ((letters != ord(RIGHT), tgt_size),
                          (letters != ord(UP), src_size)):
            left = size - np.cumsum(bit, axis=1) + bit
            rows.append((bit * (size + 1) + left).T)
        b_row, a_row = rows
        beta = np.zeros((len(gids), len(cell)), dtype=np.int32)
        alpha = np.zeros_like(beta)
        # the slots whose tables are built at once: about 4 * _CHUNK table
        # entries (1 MB of int32), 2 * (tgt_size + src_size + 2) per pattern
        block = max(1, 4 * _CHUNK
                    // (2 * (tgt_size + src_size + 2) * len(cell)))
        for i0 in range(0, r, block):
            # Offset tables over (slot, letter bit, points left, pattern).
            # In beta the gap's R steps add D(j, n' - 1) for j from
            # after + gap down to after + 1, and a used pin is one more step
            # at j = after: an R, or a D if it is a target point, which adds
            # D(after - 1, n') too.  In alpha the gap's U steps add nothing,
            # and a source pin is an R step, or a D if used.
            u, a, g = (x[i0:i0 + block, None] for x in (used, after, gap))
            run = (run_beta[a + g + 1, t_left]
                   - run_beta[a + 1 - u, t_left])
            b_tab = np.concatenate((run, run + u * d_beta[a, t_left + 1]),
                                   axis=1)
            a_step = d_alpha[s_left + 1, a] + u * d_alpha[s_left, a + 1]
            a_tab = np.concatenate((np.zeros_like(a_step), a_step), axis=1)
            for k in range(len(b_tab)):
                beta += b_tab[k][b_row[i0 + k]]
                alpha += a_tab[k][a_row[i0 + k]]
            del run, b_tab, a_step, a_tab  # freed before the next ones
        key = beta.astype(np.int64)
        key *= n_alpha
        key += alpha
        del beta, alpha
        key *= n_gamma
        key += np.array(gids, dtype=np.int64)[:, None]
        key <<= 1
        key += cell > 0
        keys.append(key.ravel())
    key = np.concatenate(keys or [np.zeros(0, dtype=np.int64)])
    del keys
    key.sort()
    c = 2 * (key & 1).astype(np.int8) - 1
    key >>= 1
    if np.any(key[1:] == key[:-1]):
        raise RuntimeError(f"size triple {(tgt_size, mid_size, src_size)}: "
                           "two middle-cell patterns give one (beta, alpha, "
                           "gamma)")
    gamma = (key % n_gamma).astype(np.int32)
    key //= n_gamma
    alpha = (key % n_alpha).astype(np.int32)
    key //= n_alpha
    return key.astype(np.int32), alpha, gamma, c


class _PairRows(dict):
    """(beta, alpha) -> {gamma: c} for one size triple and measure, built on
    first use.

    A missing row is cut out of the sorted `_pair_arrays` and stored, so a
    row already built is a plain dict lookup.  Only `[]` builds rows: `get`,
    `in` and iteration see just the rows built so far.
    """

    __slots__ = ("_beta_pos", "_alpha_pos", "_gammas", "_beta_start",
                 "_alpha", "_gamma", "_c")

    def __init__(self, tgt_size, mid_size, src_size, measure):
        super().__init__()
        beta, self._alpha, self._gamma, self._c = _pair_arrays(
            tgt_size, mid_size, src_size, measure)
        self._beta_pos = _path_pos(mid_size, tgt_size)
        self._alpha_pos = _path_pos(src_size, mid_size)
        self._gammas = enumerate_paths(src_size, tgt_size)
        # The arrays are sorted by (beta, alpha, gamma): the rows of beta id b
        # are _beta_start[b]:_beta_start[b + 1], sorted by alpha.
        self._beta_start = beta.searchsorted(np.arange(
            len(self._beta_pos) + 1, dtype=beta.dtype)).tolist()

    def __missing__(self, key):
        b = self._beta_pos[key[0]]
        lo, hi = self._beta_start[b], self._beta_start[b + 1]
        a = self._alpha_pos[key[1]]  # int32 bounds: no cast of the column
        i, j = self._alpha[lo:hi].searchsorted(
            np.array((a, a + 1), np.int32)).tolist()
        lo, hi = lo + i, lo + j
        gammas = self._gammas
        row = dict(zip([gammas[g] for g in self._gamma[lo:hi].tolist()],
                       self._c[lo:hi].tolist()))
        self[key] = row
        return row


@lru_cache(maxsize=None)
def _pair_index(tgt_size, mid_size, src_size, measure):
    """Composition structure constants for one triple of part sizes under
    one measure.

    Maps (beta, alpha) -> {gamma -> c}, c = +1 or -1 (see `_pair_arrays`);
    a row is built from the arrays the first time it is indexed with `[]`,
    and an empty row is an empty dict.
    """
    return _PairRows(tgt_size, mid_size, src_size, measure)


def compose(bmat, amat, measure):
    """The product B*A with respect to the measure; B's source = A's target.

    B is read grouped by its source part and A by its target part, so each
    middle part pairs only the entries that meet there.  The products are
    summed in Python arithmetic, exact for ints and Fractions alike; over a
    prime field the integer sums are reduced once at the end.
    """
    if bmat.source != amat.target:
        raise ValueError("object mismatch: source of left factor != target of right")
    if bmat.field != amat.field:
        raise ValueError("field mismatch")
    f = bmat.field
    a_at_mid = amat._operands()[1]
    sums = {}
    for mi, b_at_tgt in bmat._operands()[0].items():
        a_at_src = a_at_mid.get(mi)
        if a_at_src is None:
            continue
        mid = bmat.source[mi]
        for ti, betas in b_at_tgt.items():
            tgt = bmat.target[ti]
            for si, alphas in a_at_src.items():
                rows = _pair_index(tgt, mid, amat.source[si], measure)
                acc = sums.setdefault((ti, si), {})
                for beta, bc in betas:
                    for alpha, ac in alphas:
                        per = rows[(beta, alpha)]
                        if not per:
                            continue
                        bac = bc * ac
                        for gamma, c in per.items():
                            acc[gamma] = acc.get(gamma, 0) + bac * c
    out = {(ti, si, gamma): v
           for (ti, si), acc in sums.items() for gamma, v in acc.items()}
    if f.characteristic:
        out = {k: f.of_int(v) for k, v in out.items()}
    return PermMatrix(amat.source, bmat.target, out, f)


def transpose(amat):
    """Swap source and target, reflecting every path across the diagonal."""
    entries = {(si, ti, reflect(p)): c
               for (ti, si, p), c in amat.entries.items()}
    return PermMatrix(amat.target, amat.source, entries, amat.field)


def trace(amat, measure):
    """Sum over diagonal parts of (all-diagonal coefficient) * mu(R^(n))."""
    if amat.source != amat.target:
        raise ValueError("object mismatch: trace needs an endomorphism")
    f = amat.field
    total = f.zero
    for i, n in enumerate(amat.source):
        c = amat.get(i, i, "D" * n)
        if not f.is_zero(c):
            total = f.add(total, f.mul(c, f.of_int(
                gap_measure(measure, FULL_LINE, n))))
    return total


# ---------------------------------------------------------------------------
# Tensor product.
# ---------------------------------------------------------------------------

def tensor_object(obj_a, obj_b):
    """Orbit decomposition of a product object.

    Parts are indexed by (part of a, part of b, orbit path), the orbit path
    being the path of (a-tuple, b-tuple) with a as target and b as source.
    Returns (parts tuple, index dict).
    """
    parts = []
    index = {}
    for ia, sa in enumerate(obj_a):
        for ib, sb in enumerate(obj_b):
            for delta in enumerate_paths(sb, sa):
                index[(ia, ib, delta)] = len(parts)
                parts.append(len(delta))
    return tuple(parts), index


# _LETTER[t][s]: the step of a point in the target (t) and/or source (s) tuple.
_LETTER = (("", RIGHT), (UP, DIAG))
_TGT, _SRC = {UP, DIAG}, {RIGHT, DIAG}
_POINT = ("", UP, RIGHT, DIAG)  # "": that path has no point at this step

# Step (p, q) of an interleaving of two entry paths -> its point's letters in
# dt (a- against b-targets), ds (a- against b-sources) and gamma (all targets
# against all sources).
_STEP = {(p, q): (_LETTER[p in _TGT][q in _TGT], _LETTER[p in _SRC][q in _SRC],
                  _LETTER[p in _TGT or q in _TGT][p in _SRC or q in _SRC])
         for p in _POINT for q in _POINT}


def tensor(amat, bmat):
    """Kronecker product, re-expanded over orbit parts of the product objects.

    Measure-independent.  Each step of an entry path is one point (U target,
    R source, D both), so the joint orbits of two entries are the
    interleavings of their steps, read off by `_STEP`; the entry at each is
    the product of the two coefficients.  Many pairs of entries share a
    joint path, so each path is interned (`sys.intern`): the product's keys
    hold one string per distinct path, freed with the last matrix using it.
    The walk feeds the matrix item by item, so the product is held once.
    """
    if amat.field != bmat.field:
        raise ValueError("field mismatch")
    f = amat.field
    src_parts, src_index = tensor_object(amat.source, bmat.source)
    tgt_parts, tgt_index = tensor_object(amat.target, bmat.target)

    def items():
        for (ta, sa, pa), ca in amat.entries.items():
            for (tb, sb, pb), cb in bmat.entries.items():
                coeff = f.mul(ca, cb)
                for walk in interleavings(pa, pb):
                    # the leading ("", "", "") keeps the empty walk unpackable
                    dt, ds, gamma = map("".join,
                                        zip(("", "", ""),
                                            *map(_STEP.__getitem__, walk)))
                    yield ((tgt_index[(ta, tb, dt)], src_index[(sa, sb, ds)],
                            sys.intern(gamma)), coeff)
    return PermMatrix(src_parts, tgt_parts, items(), f)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def matrix_to_json(amat):
    items = sorted(amat.entries.items())
    return {
        "source": list(amat.source),
        "target": list(amat.target),
        "entries": [{"ti": ti, "si": si, "path": p,
                     "coeff": amat.field.format(c)}
                    for (ti, si, p), c in items],
    }


def matrix_from_json(data, field=QQ):
    """Inverse of matrix_to_json; ValueError names the first malformed field."""
    def is_int(x):
        return isinstance(x, int) and not isinstance(x, bool)

    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    parts = {}
    for key in ("source", "target"):
        v = data.get(key)
        if not isinstance(v, list) or not all(is_int(x) and x >= 0 for x in v):
            raise ValueError(f"{key!r} must be a list of part sizes")
        parts[key] = v
    if not isinstance(data.get("entries"), list):
        raise ValueError("'entries' must be a list")
    entries = {}
    for k, e in enumerate(data["entries"]):
        if not isinstance(e, dict):
            raise ValueError(f"entries[{k}] must be an object")
        for key, part in (("ti", "target"), ("si", "source")):
            if not (is_int(e.get(key)) and 0 <= e[key] < len(parts[part])):
                raise ValueError(f"entries[{k}].{key} must index {part!r}")
        path = e.get("path")
        if not isinstance(path, str) or not set(path) <= set("URD"):
            raise ValueError(f"entries[{k}].path must be a string over U, R, D")
        coeff = e.get("coeff")
        try:
            c = field.parse(coeff) if isinstance(coeff, str) or is_int(coeff) \
                else None
        except (ValueError, ZeroDivisionError):
            c = None
        if c is None:
            raise ValueError(f"entries[{k}].coeff {coeff!r} is not an "
                             f"element of {field!r}")
        key = (e["ti"], e["si"], path)
        if key in entries:  # each earlier entry added one key, in order
            raise ValueError(f"entries[{k}] repeats the key of entries"
                             f"[{list(entries).index(key)}]")
        entries[key] = c
    return PermMatrix(tuple(parts["source"]), tuple(parts["target"]),
                      entries, field)
