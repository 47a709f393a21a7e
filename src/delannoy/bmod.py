"""Finite modules over the combinatorial category of the indecomposables.

A module assigns a space V(lam) to each weight and structure maps
V(lam) -> V(lam + 'w') ("up") and V(lam + 'b') -> V(lam) ("down"), subject to
rows and columns being complexes: two consecutive ups vanish, as do two
consecutive downs.  The mixed composite up o down is the action of the third
distinguished morphism and is unconstrained.  Only the generator maps are
stored; nothing else is imposed, by the presentation of the category.  The
module-map linear algebra (hom, kernel, cokernel, sums, duals) is `rep`'s.
"""

from dataclasses import dataclass

from . import rep
from .fields import QQ
from .linalg import (SpanBuilder, eye, mat_is_zero, mat_mul, mat_transpose,
                     mat_vec, rank, zeros)
from .rep import Module, ModuleMap
from .weights import alternating_suffixes, sort_key

# Names the benchmark tracer patches by attribute; they are the rep functions.
kernel_bmap, hom_bmodules = rep.kernel, rep.hom
find_isomorphism = rep.find_isomorphism


class BModule(Module):
    """Arrows lam -> lam + 'w' (up) and lam + 'b' -> lam (down)."""

    @staticmethod
    def is_arrow(lam, mu):
        return mu == lam + "w" or lam == mu + "b"

    @classmethod
    def pairs(cls, weights):
        have = set(weights)
        out = []
        for lam in weights:
            if lam + "w" in have:
                out.append((lam, lam + "w"))
            if lam + "b" in have:
                out.append((lam + "b", lam))
        return out

    def up_matrix(self, lam):
        return self.matrix(lam, lam + "w")

    def down_matrix(self, lam):
        return self.matrix(lam + "b", lam)

    def check_relations(self):
        f = self.field
        for lam in self.dims:
            for kind, first, second in (
                    ("up", (lam, lam + "w"), (lam + "w", lam + "ww")),
                    ("down", (lam + "bb", lam + "b"), (lam + "b", lam))):
                if first in self.arrows and second in self.arrows and \
                        not mat_is_zero(mat_mul(self.arrows[second],
                                                self.arrows[first], f), f):
                    raise ValueError(f"{kind} o {kind} nonzero at {lam!r}")


def named_bmodule(kind, lam, field=QQ):
    """The named structural modules: S, Stan, Cost, P, I, Q."""
    if kind == "S":
        supp = {lam}
    elif kind == "Stan":
        supp = {lam, lam + "w"}
    elif kind == "Cost":
        supp = {lam, lam + "b"}
    elif kind == "P":
        if lam == "" or lam.endswith("w"):
            supp = {lam, lam + "w"}
        else:
            supp = {lam, lam + "w", lam[:-1], lam[:-1] + "w"}
    elif kind == "I":
        if lam == "" or lam.endswith("b"):
            supp = {lam, lam + "b"}
        else:
            supp = {lam, lam + "b", lam[:-1], lam[:-1] + "b"}
    elif kind == "Q":
        supp = {lam, lam + "w", lam + "b"}
    else:
        raise ValueError(f"unknown module kind {kind!r}")
    return BModule.full(supp, field)


def truncated_tilting(lam, max_len, field=QQ):
    """The tilting module truncated to weights of length <= max_len.

    Full module on {lam + w : w alternating}; the caller knows the margin
    max_len - len(lam) for certified-window checks.
    """
    if max_len < len(lam):
        raise ValueError("window shorter than the base weight")
    supp = {lam}
    room = max_len - len(lam)
    supp.update(lam + w for w in alternating_suffixes(room))
    return BModule.full(supp, field)


# ---------------------------------------------------------------------------
# Projective machinery and resolutions.
# ---------------------------------------------------------------------------

def projective_support(mu):
    if mu == "" or mu.endswith("w"):
        return (mu, mu + "w")
    return (mu, mu + "w", mu[:-1], mu[:-1] + "w")


def gen_kind(mu, nu):
    """The generator type of the 1-dim Hom between projectives mu -> nu."""
    if mu == nu:
        return "id"
    if mu == nu + "w":
        return "d"
    if nu == mu + "b":
        return "u"
    if mu.endswith("w") and nu == mu[:-1] + "b":
        return "ud"
    return None


def radical_vectors(m, lam):
    """Spanning vectors of rad(m)(lam): images of the non-identity actions."""
    vecs = []
    if lam.endswith("w"):
        base = lam[:-1]
        for col in mat_transpose(m.up_matrix(base), ncols=m.dim(base)):
            vecs.append(col)
    for col in mat_transpose(m.down_matrix(lam), ncols=m.dim(lam + "b")):
        vecs.append(col)
    return vecs


def top_lifts(m):
    """Lifts of a basis of m / rad m, as {lam: [vectors]}."""
    fld = m.field
    out = {}
    for lam in m.support:
        sb = SpanBuilder(m.dim(lam), fld)
        for v in radical_vectors(m, lam):
            sb.insert(v)
        lifts = []
        for j in range(m.dim(lam)):
            e = [fld.one if i == j else fld.zero for i in range(m.dim(lam))]
            if sb.insert(e):
                lifts.append(e)
        if lifts:
            out[lam] = lifts
    return out


def _generator_action(m, mu, kappa, v):
    """Image of v in V(kappa) under the category morphism mu -> kappa."""
    fld = m.field
    if kappa == mu:
        return v
    if kappa == mu + "w":
        return mat_vec(m.up_matrix(mu), v, fld)
    if mu.endswith("b") and kappa == mu[:-1]:
        return mat_vec(m.down_matrix(mu[:-1]), v, fld)
    if mu.endswith("b") and kappa == mu[:-1] + "w":
        base = mu[:-1]
        return mat_vec(m.up_matrix(base),
                       mat_vec(m.down_matrix(base), v, fld), fld)
    raise ValueError(f"no morphism {mu!r} -> {kappa!r}")


def projective_cover(m):
    """(symbols, P, cover map P -> m, slot offsets of P); minimal by
    construction."""
    fld = m.field
    lifts = top_lifts(m)
    symbols = []
    for lam in sorted(lifts, key=sort_key):
        for v in lifts[lam]:
            symbols.append((lam, v))
    mods = [named_bmodule("P", mu, fld) for mu, _ in symbols]
    p, offsets = rep.direct_sum(mods, fld) if mods else \
        (BModule({}, {}, fld), [])
    comps = {}
    for slot, (mu, v) in enumerate(symbols):
        for kappa in projective_support(mu):
            w = _generator_action(m, mu, kappa, v) if m.dim(kappa) else None
            if w is None or all(fld.is_zero(x) for x in w):
                continue
            mat = comps.setdefault(kappa, zeros(m.dim(kappa), p.dim(kappa), fld))
            c0 = offsets[slot][kappa]
            for r, x in enumerate(w):
                mat[r][c0] = x
    cover = ModuleMap(p, m, comps)
    for lam in m.dims:  # covers are surjective; catch upstream bugs early
        if rank(cover.component(lam), fld) != m.dim(lam):
            raise AssertionError(f"cover not surjective at {lam!r}")
    return [mu for mu, _ in symbols], p, cover, offsets


@dataclass
class FormalProjComplex:
    """Bounded complex of projective symbols with generator-typed entries.

    terms[k] lists the symbols in homological degree k (complex degree -k);
    diffs[k] maps P_k -> P_{k-1}: {(dst_slot, src_slot): (coeff, kind)}.
    """

    terms: list
    diffs: list  # diffs[0] unused placeholder {}
    field: object

    def validate(self):
        f = self.field
        for k in range(2, len(self.terms)):
            for i, mu in enumerate(self.terms[k]):
                for j2, rho in enumerate(self.terms[k - 2]):
                    total = f.zero
                    for mid, sigma in enumerate(self.terms[k - 1]):
                        e1 = self.diffs[k].get((mid, i))
                        e2 = self.diffs[k - 1].get((j2, mid))
                        if e1 and e2 and gen_kind(mu, rho):
                            total = f.add(total, f.mul(e1[0], e2[0]))
                    if not f.is_zero(total):
                        raise ValueError("formal differential does not square to zero")
        return self


def _extract_blocks(symbols_src, offsets_src, symbols_dst, offsets_dst, full_map):
    """Read generator-typed block coefficients off a concrete map of sums.

    Every valid block between projective slots is a scalar multiple of the
    common-support generator map; anything else trips an assertion.
    """
    fld = full_map.src.field
    diffs = {}
    for i, mu in enumerate(symbols_src):
        supp_mu = set(projective_support(mu))
        for j, nu in enumerate(symbols_dst):
            kind = gen_kind(mu, nu)
            coeff = None
            for kappa in supp_mu & set(projective_support(nu)):
                comp = full_map.comps.get(kappa)
                r = offsets_dst[j][kappa]
                c = offsets_src[i][kappa]
                val = comp[r][c] if comp is not None else fld.zero
                if kind is not None:
                    if coeff is None:
                        coeff = val
                    elif not fld.eq(coeff, val):
                        raise AssertionError("block is not a generator multiple")
                elif not fld.is_zero(val):
                    raise AssertionError("nonzero entry outside a generator block")
            if kind is not None and coeff is not None and not fld.is_zero(coeff):
                diffs[(j, i)] = (coeff, kind)
    return diffs


def min_projective_resolution(m, max_deg):
    """Minimal projective resolution to homological degree max_deg.

    Built by iterated projective covers; the radical of the category algebra
    cubes to zero on finite modules, so covers are genuine and every kernel
    is again finite.
    """
    fld = m.field
    terms, diffs = [], [{}]
    current = m
    incl = None  # kernel -> previous cover source
    prev_symbols = prev_offsets = None
    for k in range(max_deg + 1):
        symbols, _, cover, offsets = projective_cover(current)
        if k > 0:
            full = rep.compose(incl, cover)
            diffs.append(_extract_blocks(symbols, offsets,
                                         prev_symbols, prev_offsets, full))
        terms.append(list(symbols))
        if not symbols:
            break
        current, incl = rep.kernel(cover)
        prev_symbols, prev_offsets = symbols, offsets
    return FormalProjComplex(terms, diffs, fld)


def ext_bmod(m, n, i):
    """dim Ext^i(m, n) from homs into n along the minimal resolution."""
    return ext_table(m, n, i)[i]


def ext_table(m, n, imax):
    """[dim Ext^i(m, n) for i in 0..imax], one resolution for all degrees."""
    res = min_projective_resolution(m, imax + 1)
    return _ext_from_resolution(res, n, imax)


def _ext_from_resolution(res, n, imax):
    fld = n.field
    # cochain spaces: C^k = + over symbols mu of n(mu); differentials induced
    # by precomposition with the generator entries
    spaces = []
    for k in range(imax + 2):
        syms = res.terms[k] if k < len(res.terms) else []
        idx = []
        for s, mu in enumerate(syms):
            idx.extend((s, mu, j) for j in range(n.dim(mu)))
        spaces.append(idx)
    deltas = []
    for k in range(imax + 1):
        src, dst = spaces[k], spaces[k + 1]
        mat = zeros(len(dst), len(src), fld)
        if k + 1 < len(res.diffs):
            for (j, i2), (coeff, kind) in res.diffs[k + 1].items():
                mu = res.terms[k + 1][i2]   # row block: symbol in P_{k+1}
                nu = res.terms[k][j]        # column block: symbol in P_k
                action = _hom_action(n, mu, nu, kind)
                for r in range(n.dim(mu)):
                    for c in range(n.dim(nu)):
                        v = action[r][c]
                        if not fld.is_zero(v):
                            ri = dst.index((i2, mu, r))
                            ci = src.index((j, nu, c))
                            mat[ri][ci] = fld.add(mat[ri][ci],
                                                  fld.mul(coeff, v))
        deltas.append(mat)
    out = []
    prev_rank = 0
    for i in range(imax + 1):
        dim_i = len(spaces[i])
        r = rank(deltas[i], fld) if deltas[i] else 0
        out.append(dim_i - r - prev_rank)
        prev_rank = r
    return out


def _hom_action(n, mu, nu, kind):
    """Matrix of n applied to the category morphism nu -> mu of given type."""
    fld = n.field
    if kind == "id":
        return eye(n.dim(mu), fld)
    if kind == "d":      # map of projectives P_{nu w} -> P_nu: action nu -> nu w
        return n.up_matrix(nu)
    if kind == "u":      # P_mu -> P_{mu b}: action mu b -> mu
        return n.down_matrix(mu)
    if kind == "ud":     # P_{kappa w} -> P_{kappa b}: action kappa b -> kappa w
        kappa = mu[:-1]
        return mat_mul(n.up_matrix(kappa), n.down_matrix(kappa), fld)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Standard filtrations.
# ---------------------------------------------------------------------------

def _row_heads(m):
    heads = set()
    for lam in m.dims:
        head = lam
        while head.endswith("w"):
            head = head[:-1]
        heads.add(head)
    return sorted(heads, key=sort_key)


def has_standard_filtration(m):
    """Exactness of every row complex 0 -> V(lam) -> V(lam w) -> ...

    for lam black-ending or empty; this is the literal filtration criterion
    for pointwise finite modules, specialized to the finite case.
    """
    return not standard_filtration_failures(m)


def standard_filtration_failures(m, max_check_len=None):
    """Positions where a row complex fails to be exact.

    Returns a list of (row_head, position_weight).  Restricting
    `max_check_len` skips positions beyond the window (for truncated
    modules, where the boundary rows are cut off mid-way).
    """
    fld = m.field
    fails = []
    for head in _row_heads(m):
        length = 0
        lam = head
        while m.dim(lam) or m.dim(lam + "w") or length == 0:
            if max_check_len is not None and len(lam) > max_check_len:
                break
            up_out = m.up_matrix(lam)
            if length == 0:
                defect = m.dim(lam) - rank(up_out, fld) if m.dim(lam) else 0
            else:
                prev = m.up_matrix(lam[:-1])
                ker = m.dim(lam) - rank(up_out, fld)
                defect = ker - rank(prev, fld)
            if defect:
                fails.append((head, lam))
            lam += "w"
            length += 1
            if length > max(len(k) for k in m.dims) + 2:
                break
    return fails


def has_costandard_filtration(m):
    return has_standard_filtration(rep.dual(m))


# ---------------------------------------------------------------------------
# Derived tensor via the matrix route.
# ---------------------------------------------------------------------------

class WindowExceeded(Exception):
    """A computation left its certified window (parts or degree too large)."""


def matrix_complex(res, check_parts=4):
    """Realize a formal projective complex as cut objects and matrices.

    Degree k becomes the direct sum object with one ambient part per symbol
    (cut by the weight idempotents); generator entries become the concrete
    distinguished maps, whose compositions satisfy the same relations as the
    formal generators (the mixed composite is defined as the composite).
    Returns (objects, diffs) with diffs[k]: objects[k] -> objects[k-1].

    The squared differential is machine-checked to vanish wherever the parts
    stay within `check_parts`; beyond that the identity follows from the
    validated formal complex plus the generator relations, which the test
    suite checks concretely (compositions of the distinguished maps).
    """
    from .acat import AObject, down_map, e_lambda, ud_map, up_map
    from .schwartz import MU2, PermMatrix, compose
    f = res.field
    objects, diffs = [], [None]
    for syms in res.terms:
        ambient = tuple(len(mu) for mu in syms)
        entries = {}
        for i, mu in enumerate(syms):
            for key, c in e_lambda(mu, f).entries.items():
                entries[(i, i, key[2])] = c
        objects.append(AObject(MU2, ambient,
                               PermMatrix(ambient, ambient, entries, f)))
    for k in range(1, len(res.terms)):
        src, dst = objects[k], objects[k - 1]
        entries = {}
        for (j, i), (coeff, kind) in res.diffs[k].items():
            mu = res.terms[k][i]
            nu = res.terms[k - 1][j]
            if kind == "id":
                block = e_lambda(mu, f)
            elif kind == "d":
                block = down_map(nu, f)
            elif kind == "u":
                block = up_map(mu, f)
            else:
                block = ud_map(mu[:-1], f)
            for (_, _, p), c in block.entries.items():
                key = (j, i, p)
                entries[key] = f.add(entries.get(key, f.zero), f.mul(coeff, c))
        diffs.append(PermMatrix(src.ambient, dst.ambient, entries, f))
    for k in range(2, len(objects)):
        if max(objects[k - 1].ambient, default=0) <= check_parts:
            if not compose(diffs[k - 1], diffs[k], MU2).is_zero():
                raise AssertionError(
                    "matrix differential does not square to zero")
    return objects, diffs


def tensor_matrix_complexes(xa, da, xb, db, max_deg, check_parts=4):
    """Total complex of the Kronecker tensor of two matrix complexes.

    Degree k is the sum over a + b = k of the part groups of X_a (x) Y_b; the
    differential uses the sign rule d(x (x) y) = dx (x) y + (-1)^a x (x) dy.
    The squared differential is checked within `check_parts` (beyond that it
    follows from bifunctoriality of the tensor, which the tests verify).
    """
    from .acat import AObject
    from .schwartz import MU2, PermMatrix, compose, identity, tensor
    f = xa[0].field if xa else QQ
    blocks = []     # per degree: list of (a, b)
    objects = []    # per degree: AObject
    offsets = []    # per degree: {(a, b): part offset}
    for k in range(max_deg + 1):
        degree_blocks = [(a, k - a) for a in range(k + 1)
                         if a < len(xa) and k - a < len(xb)]
        parts, offs, entries = [], {}, {}
        for (a, b) in degree_blocks:
            t = tensor(xa[a].idem, xb[b].idem)
            offs[(a, b)] = len(parts)
            shift = len(parts)
            for (ti, si, p), c in t.entries.items():
                entries[(ti + shift, si + shift, p)] = c
            parts.extend(t.source)
        obj = AObject(MU2, tuple(parts),
                      PermMatrix(tuple(parts), tuple(parts), entries, f))
        blocks.append(degree_blocks)
        objects.append(obj)
        offsets.append(offs)
    diffs = [None]
    for k in range(1, max_deg + 1):
        entries = {}
        for (a, b) in blocks[k]:
            src_off = offsets[k][(a, b)]
            if a >= 1 and (a - 1, b) in offsets[k - 1]:
                t = tensor(da[a], identity(xb[b].ambient, f))
                dst_off = offsets[k - 1][(a - 1, b)]
                for (ti, si, p), c in t.entries.items():
                    key = (ti + dst_off, si + src_off, p)
                    entries[key] = f.add(entries.get(key, f.zero), c)
            if b >= 1 and (a, b - 1) in offsets[k - 1]:
                t = tensor(identity(xa[a].ambient, f), db[b])
                dst_off = offsets[k - 1][(a, b - 1)]
                sign = f.of_int((-1) ** a)
                for (ti, si, p), c in t.entries.items():
                    key = (ti + dst_off, si + src_off, p)
                    entries[key] = f.add(entries.get(key, f.zero),
                                         f.mul(sign, c))
        diffs.append(PermMatrix(objects[k].ambient, objects[k - 1].ambient,
                                entries, f))
    for k in range(2, max_deg + 1):
        if max(objects[k - 1].ambient, default=0) <= check_parts:
            if not compose(diffs[k - 1], diffs[k], MU2).is_zero():
                raise AssertionError(
                    "tensor differential does not square to zero")
    return objects, diffs


def tor_bmod(m, n, imax, max_part=6, nu_len=None):
    """[dim Tor_i(m, n) for i in 0..imax] via the matrix route.

    Both minimal resolutions are realized as matrix complexes over the cut
    objects, Kronecker-tensored, and pushed through the restricted Yoneda
    functor degreewise; homology dimensions are summed over the weight
    window.  `nu_len` bounds the window; the full support bound is
    max part + 1, but the default caps at 4 because composition middles of
    the cut operators grow exponentially with parts + window (desk scale).
    Pass `nu_len` explicitly to widen or narrow.  Parts beyond `max_part`
    raise WindowExceeded.
    """
    from .acat import hom_space, indecomposable, coords_in_basis
    from .schwartz import MU2, compose
    from .weights import enumerate_weights
    f = m.field
    res_a = min_projective_resolution(m, imax + 1)
    res_b = min_projective_resolution(n, imax + 1)
    biggest = 0
    for k in range(imax + 2):
        for a in range(k + 1):
            b = k - a
            if a < len(res_a.terms) and b < len(res_b.terms):
                for mu in res_a.terms[a]:
                    for nu in res_b.terms[b]:
                        biggest = max(biggest, len(mu) + len(nu))
    if biggest > max_part:
        raise WindowExceeded(
            f"tensor parts reach {biggest} > max_part={max_part}")
    if nu_len is None:
        nu_len = min(biggest + 1, 4)
    xa, da = matrix_complex(res_a)
    xb, db = matrix_complex(res_b)
    objects, diffs = tensor_matrix_complexes(xa, da, xb, db, imax + 1)
    out = [0] * (imax + 1)
    for nu in enumerate_weights(nu_len):
        m_nu = indecomposable(nu, MU2, f)
        bases = [hom_space(m_nu, z).basis for z in objects]
        ranks = [0] * (imax + 2)
        for k in range(1, imax + 2):
            if k >= len(bases) or not bases[k]:
                continue
            images = [compose(diffs[k], h, MU2) for h in bases[k]]
            cols = [coords_in_basis(img, bases[k - 1]) for img in images]
            ranks[k] = rank([[cols[j][i] for j in range(len(cols))]
                             for i in range(len(bases[k - 1]))], f)
        for i in range(imax + 1):
            if i < len(bases):
                out[i] += len(bases[i]) - ranks[i] - ranks[i + 1]
    return out
