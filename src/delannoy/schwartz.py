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
"""

from functools import lru_cache

from .fields import QQ
from .paths import (enumerate_paths, path_m, path_n, path_of_pair, reflect,
                    representative)

MU1, MU2, MU3, MU4 = 1, 2, 3, 4
MEASURES = (MU1, MU2, MU3, MU4)

# A measure and its image under reflecting the line (x -> -x).
MIRROR = {MU1: MU1, MU2: MU3, MU3: MU2, MU4: MU4}

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


class PermMatrix:
    """A morphism between formal sums of S(R^(n))'s.

    `source` and `target` are tuples of part sizes; `entries` maps
    (target part index, source part index, path) to a nonzero coefficient,
    where the path key runs between the source part (right steps) and the
    target part (up steps).  Absent keys are zero.
    """

    __slots__ = ("source", "target", "entries", "field")

    def __init__(self, source, target, entries, field=QQ):
        self.source = tuple(source)
        self.target = tuple(target)
        self.field = field
        clean = {}
        for (ti, si, path), c in entries.items():
            if field.is_zero(c):
                continue
            if path_m(path) != self.source[si] or path_n(path) != self.target[ti]:
                raise ValueError(f"path {path!r} does not fit parts "
                                 f"{self.source[si]} -> {self.target[ti]}")
            clean[(ti, si, path)] = c
        self.entries = clean

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
        if (self.source, self.target) != (other.source, other.target):
            return False
        keys = set(self.entries) | set(other.entries)
        f = self.field
        return all(f.eq(self.get(*k), other.get(*k)) for k in keys)

    def __hash__(self):
        return hash((self.source, self.target, frozenset(self.entries.items())))

    def __repr__(self):
        return (f"PermMatrix({list(self.source)} -> {list(self.target)}, "
                f"{len(self.entries)} entries)")

    def _compatible(self, other):
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("object mismatch")
        if self.field != other.field:
            raise ValueError("field mismatch")


def zero_matrix(source, target, field=QQ):
    return PermMatrix(source, target, {}, field)


def identity(obj, field=QQ):
    entries = {}
    for i, n in enumerate(obj):
        entries[(i, i, "D" * n)] = field.one
    return PermMatrix(obj, obj, entries, field)


# ---------------------------------------------------------------------------
# Composition.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _middle_cells(r, k):
    """Order types of a strictly increasing k-tuple relative to r fixed points.

    Returns tuples (pattern, cvec): `pattern` alternates gap and pin counts
    (g0, p0, g1, p1, ..., gr) with gaps holding any number of middle
    coordinates and pins at most one; `cvec` is the 4-vector of cell measures
    under the four measures (a gap of c coordinates contributes
    gap_measure(mu, kind, c), pins are points of measure one).
    """
    if r == 0:
        kinds = (FULL_LINE,)
    else:
        kinds = (UNBOUNDED_BELOW,) + (BOUNDED,) * (r - 1) + (UNBOUNDED_ABOVE,)
    results = []
    pattern = [0] * (2 * r + 1)

    def rec(slot, remaining, cvec):
        # slots alternate gap 0, pin 0, gap 1, pin 1, ..., gap r
        if slot == 2 * r:
            if remaining == 0:
                results.append((tuple(pattern), cvec))
                return
            kind = kinds[r]
            vec = tuple(a * gap_measure(mu, kind, remaining)
                        for a, mu in zip(cvec, MEASURES))
            if any(vec):
                pattern[slot] = remaining
                results.append((tuple(pattern), vec))
                pattern[slot] = 0
            return
        if slot % 2 == 1:  # pin: holds zero or one middle coordinate
            rec(slot + 1, remaining, cvec)
            if remaining:
                pattern[slot] = 1
                rec(slot + 1, remaining - 1, cvec)
                pattern[slot] = 0
            return
        i = slot // 2
        rec(slot + 1, remaining, cvec)  # empty gap
        kind = kinds[i]
        for c in range(1, remaining + 1):
            vec = tuple(a * gap_measure(mu, kind, c)
                        for a, mu in zip(cvec, MEASURES))
            if any(vec):
                pattern[slot] = c
                rec(slot + 1, remaining - c, vec)
                pattern[slot] = 0

    rec(0, k, (1, 1, 1, 1))
    return tuple(results)


@lru_cache(maxsize=None)
def _pair_index(tgt_size, mid_size, src_size):
    """Composition structure constants for one triple of part sizes.

    Maps (beta, alpha) -> {gamma -> (c1, c2, c3, c4)}: composing a matrix
    supported on beta (middle -> target) with one supported on alpha
    (source -> middle) contributes c_mu * product-of-coefficients to gamma.
    The component paths are assembled slotwise from the cell pattern: a
    middle coordinate in a gap is a lone source (resp. target) point for the
    left (resp. right) factor, and a pinned one collides with the fixed
    point when the latter belongs to the relevant tuple.
    """
    if mid_size > MAX_MIDDLE:
        raise ValueError(
            f"middle object R^({mid_size}) exceeds the composition window "
            f"(MAX_MIDDLE = {MAX_MIDDLE})")
    index = {}
    rs = "R", "RR", "RRR", "RRRR", "RRRRR", "RRRRRR", "RRRRRRR", "RRRRRRRR"
    us = "U", "UU", "UUU", "UUUU", "UUUUU", "UUUUUU", "UUUUUUU", "UUUUUUUU"
    for gamma in enumerate_paths(src_size, tgt_size):
        z, x = representative(gamma)
        zset, xset = set(z), set(x)
        r = len(zset | xset)
        # per pin: the step the left factor takes if the middle uses the pin
        # (or skips it), and likewise for the right factor
        pin_beta_used = ["D" if (v + 1) in zset else "R" for v in range(r)]
        pin_beta_skip = ["U" if (v + 1) in zset else "" for v in range(r)]
        pin_alpha_used = ["D" if (v + 1) in xset else "U" for v in range(r)]
        pin_alpha_skip = ["R" if (v + 1) in xset else "" for v in range(r)]
        for pattern, cvec in _middle_cells(r, mid_size):
            beta_parts, alpha_parts = [], []
            for i in range(r):
                g = pattern[2 * i]
                if g:
                    beta_parts.append(rs[g - 1])
                    alpha_parts.append(us[g - 1])
                if pattern[2 * i + 1]:
                    beta_parts.append(pin_beta_used[i])
                    alpha_parts.append(pin_alpha_used[i])
                else:
                    beta_parts.append(pin_beta_skip[i])
                    alpha_parts.append(pin_alpha_skip[i])
            g = pattern[2 * r]
            if g:
                beta_parts.append(rs[g - 1])
                alpha_parts.append(us[g - 1])
            beta = "".join(beta_parts)
            alpha = "".join(alpha_parts)
            slot = index.setdefault((beta, alpha), {})
            old = slot.get(gamma)
            slot[gamma] = (tuple(a + b for a, b in zip(old, cvec))
                           if old else cvec)
    for slot in index.values():
        for gamma in [g for g, v in slot.items() if not any(v)]:
            del slot[gamma]
    return index


def _int_value(c):
    if isinstance(c, int):
        return c
    if getattr(c, "denominator", None) == 1:
        return c.numerator
    return None


def compose(bmat, amat, measure):
    """The product B*A with respect to the measure; B's source = A's target."""
    if bmat.source != amat.target:
        raise ValueError("object mismatch: source of left factor != target of right")
    if bmat.field != amat.field:
        raise ValueError("field mismatch")
    f = bmat.field
    # integral rational matrices compose in plain int arithmetic
    fast = f == QQ
    if fast:
        b_items, a_items = [], []
        for k, c in bmat.entries.items():
            v = _int_value(c)
            if v is None:
                fast = False
                break
            b_items.append((k, v))
        if fast:
            for k, c in amat.entries.items():
                v = _int_value(c)
                if v is None:
                    fast = False
                    break
                a_items.append((k, v))
    if not fast:
        b_items = list(bmat.entries.items())
        a_items = list(amat.entries.items())
    a_by_mid = {}
    for (mi, si, alpha), c in a_items:
        a_by_mid.setdefault(mi, []).append((si, alpha, c))
    out = {}
    mi_idx = measure - 1
    if fast:
        for (ti, mi, beta), bc in b_items:
            hits = a_by_mid.get(mi)
            if not hits:
                continue
            tgt, mid = bmat.target[ti], bmat.source[mi]
            for si, alpha, ac in hits:
                per = _pair_index(tgt, mid, amat.source[si]).get((beta, alpha))
                if not per:
                    continue
                bac = bc * ac
                for gamma, cvec in per.items():
                    c = cvec[mi_idx]
                    if c:
                        key = (ti, si, gamma)
                        out[key] = out.get(key, 0) + bac * c
        # plain ints are valid rational coefficients; skip the boxing
        out = {k: v for k, v in out.items() if v}
        return PermMatrix(amat.source, bmat.target, out, f)
    for (ti, mi, beta), bc in b_items:
        hits = a_by_mid.get(mi)
        if not hits:
            continue
        for si, alpha, ac in hits:
            per = _pair_index(bmat.target[ti], bmat.source[mi],
                              amat.source[si]).get((beta, alpha))
            if not per:
                continue
            bac = f.mul(bc, ac)
            for gamma, cvec in per.items():
                c = cvec[mi_idx]
                if not c:
                    continue
                key = (ti, si, gamma)
                out[key] = f.add(out.get(key, f.zero), f.mul(bac, f.of_int(c)))
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


def _relabel(tup, mapping):
    return tuple(mapping[v] for v in tup)


def tensor(amat, bmat):
    """Kronecker product, re-expanded over orbit parts of the product objects.

    Measure-independent.  An entry of the result at a joint orbit is the
    product of the two component entries at the reconstructed component
    configurations.
    """
    if amat.field != bmat.field:
        raise ValueError("field mismatch")
    f = amat.field
    src_parts, src_index = tensor_object(amat.source, bmat.source)
    tgt_parts, tgt_index = tensor_object(amat.target, bmat.target)
    entries = {}
    for (ta, sa, pa), ca in amat.entries.items():
        ya, xa = representative(pa)
        pts_a = sorted(set(ya) | set(xa))
        la = len(pts_a)
        for (tb, sb, pb), cb in bmat.entries.items():
            yb, xb = representative(pb)
            pts_b = sorted(set(yb) | set(xb))
            lb = len(pts_b)
            coeff = f.mul(ca, cb)
            # every relative interleaving of the a-points with the b-points
            for walk in enumerate_paths(lb, la):
                map_a, map_b = {}, {}
                ia = ib = 0
                for pos, step in enumerate(walk, start=1):
                    if step in ("U", "D"):
                        map_a[pts_a[ia]] = pos
                        ia += 1
                    if step in ("R", "D"):
                        map_b[pts_b[ib]] = pos
                        ib += 1
                ya2, xa2 = _relabel(ya, map_a), _relabel(xa, map_a)
                yb2, xb2 = _relabel(yb, map_b), _relabel(xb, map_b)
                dt = path_of_pair(ya2, yb2)
                ds = path_of_pair(xa2, xb2)
                gamma = path_of_pair(tuple(sorted(set(ya2) | set(yb2))),
                                     tuple(sorted(set(xa2) | set(xb2))))
                key = (tgt_index[(ta, tb, dt)], src_index[(sa, sb, ds)], gamma)
                entries[key] = coeff
    return PermMatrix(src_parts, tgt_parts, entries, f)


# ---------------------------------------------------------------------------
# Projections.
# ---------------------------------------------------------------------------

def projection_matrices(n, i, field=QQ):
    """Push-forward and pull-back of coordinate omission R^(n) -> R^(n-1).

    1 <= i <= n names the omitted coordinate.  push is the (n-1) x n
    indicator of x = p(y); pull is its transpose.
    """
    if not 1 <= i <= n:
        raise ValueError("coordinate index out of range")
    entries = {}
    for gamma in enumerate_paths(n, n - 1):
        x_t, y_s = representative(gamma)
        if y_s[:i - 1] + y_s[i:] == x_t:
            entries[(0, 0, gamma)] = field.one
    push = PermMatrix((n,), (n - 1,), entries, field)
    return push, transpose(push)


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
        entries[(e["ti"], e["si"], path)] = c
    return PermMatrix(tuple(parts["source"]), tuple(parts["target"]),
                      entries, field)
