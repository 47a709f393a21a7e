"""Finite modules over the combinatorial category of the indecomposables.

A module assigns a space V(lam) to each weight and structure maps
V(lam) -> V(lam + 'w') ("up") and V(lam + 'b') -> V(lam) ("down"), subject to
rows and columns being complexes: two consecutive ups vanish, as do two
consecutive downs.  The mixed composite up o down is the action of the third
distinguished morphism and is unconstrained.  Only the generator maps are
stored; nothing else is imposed, by the presentation of the category.  The
module-map linear algebra (hom, kernel, sums, duals) is `rep`'s.

A minimal projective resolution is a `weights.WeightComplex` of projective
symbols in degrees 0, -1, ...: each entry is a multiple of the generator map
between two projectives, of the kind `gen_kind` names, and Ext, Tor and the
derived functors all read it in that form.

Each module is resolved once per process.  A bounded memo keeps one
resolution per module, keyed by the module's class, field, dims and arrow
matrices; a deeper request resumes from the last cover, a shallower one gets
a truncated copy.  Equal keys mean identical input to a deterministic
construction, so a hit returns exactly what a fresh resolution would.
"""

from functools import lru_cache
from itertools import accumulate

from . import rep
from .acat import (coords_in_basis, down_map, e_lambda, hom_space,
                   indecomposable, tensor_objects, ud_map, up_map)
from .fields import QQ
from .linalg import (SpanBuilder, eye, homology_dims, mat_is_zero, mat_mul,
                     mat_transpose, mat_vec, rank, zeros)
from .rep import Module, ModuleMap
from .schwartz import MU2, compose, identity, tensor
from .weights import (WeightComplex, alternating_suffixes, enumerate_weights,
                      gen_kind, sort_key)

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
        supp = set(projective_support(lam))
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
            if not m.dim(kappa):
                continue
            w = mat_vec(_hom_action(m, kappa, mu), v, fld)
            if all(fld.is_zero(x) for x in w):
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


def _extract_blocks(symbols_src, offsets_src, symbols_dst, offsets_dst, full_map):
    """Read the generator coefficients off a concrete map of sums.

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
                diffs[(j, i)] = coeff
    return diffs


class _Resolution:
    """One module's minimal resolution as far as it has been built.

    `cover` and `offsets` belong to the last term's projective cover; its
    kernel is the next module to cover, and both are dropped once a term
    comes out empty (the resolution has ended).
    """

    def __init__(self):
        self.terms, self.diffs = {}, {}
        self.cover = self.offsets = None

    def extend(self, m, max_deg):
        """Cover up to homological degree max_deg, unless the resolution ended."""
        while len(self.terms) <= max_deg and \
                (self.cover is not None or not self.terms):
            k = len(self.terms)
            current, incl = (m, None) if k == 0 else rep.kernel(self.cover)
            symbols, _, cover, offsets = projective_cover(current)
            if k > 0:
                self.diffs[-k] = _extract_blocks(
                    symbols, offsets, self.terms[1 - k], self.offsets,
                    rep.compose(incl, cover))
            self.terms[-k] = symbols
            self.cover, self.offsets = (cover, offsets) if symbols else \
                (None, None)


def _module_key(m):
    """The whole input of a resolution: class, field, dims, arrow matrices."""
    return (type(m), m.field, tuple(sorted(m.dims.items())),
            tuple(sorted((pair, tuple(map(tuple, mat)))
                         for pair, mat in m.arrows.items())))


# The acceptance windows of bmod-ext, derived-functors, sod and kring-iso
# together resolve 286 modules.
@lru_cache(maxsize=1024)
def _resolution_memo(key):
    return _Resolution()


def min_projective_resolution(m, max_deg):
    """Minimal projective resolution to homological degree max_deg.

    A `WeightComplex` in degrees 0, -1, ..., -max_deg (homological degree k
    is degree -k); a resolution that ends early keeps its empty last term.
    Built by iterated projective covers; the radical of the category algebra
    cubes to zero on finite modules, so covers are genuine and every kernel
    is again finite.

    The covers are memoized per module (`_resolution_memo`, bounded, least
    recently used first out), keyed by `_module_key`: the module's class,
    field, sorted dims and sorted arrow matrices.  Equal keys are identical
    input to a deterministic construction, so a hit cannot change an answer;
    two isomorphic modules written in different bases only miss.  A deeper
    request resumes from the last cover, and every cover (with its
    surjectivity check and the block assertions of `_extract_blocks`) runs
    once per module and degree.  The caller gets fresh term lists and diff
    dicts.
    """
    memo = _resolution_memo(_module_key(m))
    memo.extend(m, max_deg)
    depth = min(max_deg, len(memo.terms) - 1)
    return WeightComplex({-k: list(memo.terms[-k]) for k in range(depth + 1)},
                         {-k: dict(memo.diffs[-k])
                          for k in range(1, depth + 1)}, m.field)


def ext_table(m, n, imax):
    """[dim Ext^i(m, n) for i in 0..imax], one resolution for all degrees."""
    res = min_projective_resolution(m, imax + 1)
    return _ext_from_resolution(res, n, imax)


def _ext_from_resolution(res, n, imax):
    fld, dim = n.field, n.dims.get
    # cochain spaces: C^k = + over the symbols mu of P_k of n(mu);
    # differentials induced by precomposition with the generator entries
    dims = [[dim(mu, 0) for mu in res.terms.get(-k, ())]
            for k in range(imax + 2)]
    sizes = [sum(d) for d in dims]
    deltas = [None]  # deltas[k]: C^(k-1) -> C^k, None when either is zero
    for k in range(imax + 1):
        if not (sizes[k] and sizes[k + 1]):
            deltas.append(None)
            continue
        # slot s of C^(k+1) starts at row_starts[s], of C^k at col_starts[s]
        row_starts = list(accumulate(dims[k + 1], initial=0))
        col_starts = list(accumulate(dims[k], initial=0))
        mat = zeros(sizes[k + 1], sizes[k], fld)
        for (j, i2), coeff in res.diffs.get(-k - 1, {}).items():
            if not (dims[k + 1][i2] and dims[k][j]):
                continue
            mu = res.terms[-k - 1][i2]   # row block: symbol in P_{k+1}
            nu = res.terms[-k][j]        # column block: symbol in P_k
            r0, c0 = row_starts[i2], col_starts[j]
            for r, row in enumerate(_hom_action(n, mu, nu)):
                out = mat[r0 + r]
                for c, v in enumerate(row):
                    if not fld.is_zero(v):
                        out[c0 + c] = fld.add(out[c0 + c], fld.mul(coeff, v))
        deltas.append(mat)
    return homology_dims(sizes, deltas, fld, imax)


def _hom_action(n, mu, nu):
    """Matrix of n applied to the category morphism nu -> mu that the
    generator P_mu -> P_nu induces."""
    fld = n.field
    kind = gen_kind(mu, nu)
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
    fails = []
    for head in _row_heads(m):
        row = []  # the row's weights head, head w, head ww, ...
        lam = head
        while not row or m.dim(lam) or m.dim(lam + "w"):
            if max_check_len is not None and len(lam) > max_check_len:
                break
            row.append(lam)
            lam += "w"
        defects = homology_dims([m.dim(lam) for lam in row],
                                [None] + [m.up_matrix(lam) for lam in row],
                                m.field)
        fails.extend((head, lam) for lam, d in zip(row, defects) if d)
    return fails


# ---------------------------------------------------------------------------
# Derived tensor via the matrix route.
# ---------------------------------------------------------------------------

class WindowExceeded(Exception):
    """A computation left its certified window (parts or degree too large)."""


# Largest middle-degree part at which `_check_square_zero` composes d o d.
_CHECK_PARTS = 4


def _generator(mu, nu, f):
    """The generator map M_mu -> M_nu of the kind `gen_kind(mu, nu)` names;
    ValueError when there is none (Hom(M_mu, M_nu) vanishes)."""
    kind = gen_kind(mu, nu)
    if kind == "id":
        return e_lambda(mu, f)
    if kind == "d":
        return down_map(nu, f)
    if kind == "u":
        return up_map(mu, f)
    if kind == "ud":
        return ud_map(mu[:-1], f)
    raise ValueError(f"no generator {mu!r} -> {nu!r}")


def _check_square_zero(cpx):
    """AssertionError unless d o d vanishes on the matrix complex cpx, where
    the middle degree's parts stay within `_CHECK_PARTS`: the composites of
    consecutive blocks are summed per (dst, src)."""
    for k in range(2, len(cpx)):
        middle, below = cpx[k - 1]
        if any(s > _CHECK_PARTS for z in middle for s in z.ambient):
            continue
        terms = {}  # (dst, src): the composites through each middle summand
        for mid, src, first, c1 in cpx[k][1]:
            for dst, _, second, c2 in (b for b in below if b[1] == mid):
                terms.setdefault((dst, src), []).append(compose(
                    second, first, MU2).scale(first.field.mul(c2, c1)))
        if any(not sum(ts[1:], ts[0]).is_zero() for ts in terms.values()):
            raise AssertionError("differential does not square to zero")


def matrix_complex(res):
    """Realize a projective resolution as a matrix complex of cut objects.

    A matrix complex is a list with one (summands, blocks) per homological
    degree k: degree k is the direct sum of its summands, and d_k is the
    sum of its blocks (dst, src, matrix, coeff), coeff times a map from
    summand src of degree k to summand dst of degree k - 1.  Degree k
    (degree -k of `res`) has one summand M_mu (`indecomposable`) per
    symbol, and each entry is the generator map between two symbols
    (`_generator`); they compose by the same relations as the formal
    generators (the mixed composite is defined as the composite).  d o d is
    checked within `_CHECK_PARTS`; beyond that it follows from d o d = 0 on
    the symbols and the generator relations, which the tests check.
    """
    f = res.field
    terms = [res.terms[-k] for k in range(len(res.terms))]
    cpx = [([indecomposable(mu, MU2, f) for mu in syms],
            [(j, i, _generator(syms[i], terms[k - 1][j], f), coeff)
             for (j, i), coeff in (res.diffs[-k].items() if k else ())])
           for k, syms in enumerate(terms)]
    _check_square_zero(cpx)
    return cpx


def tensor_matrix_complexes(ca, cb, max_deg):
    """The total complex of the Kronecker tensor of two matrix complexes
    (`matrix_complex`), to degree max_deg.

    Degree k has one summand x (x) y (`tensor_objects`) per summand x of
    degree a of ca and y of degree k - a of cb, in the order of (a, x, y).
    By the sign rule d(x (x) y) = dx (x) y + (-1)^a x (x) dy, a block B of
    ca with coeff c gives the blocks B (x) id_y with coeff c, and one of cb
    gives id_x (x) B with coeff (-1)^a c.  d o d is checked within
    `_CHECK_PARTS`; beyond that it follows from bifunctoriality of the
    tensor, which the tests check.
    """
    cpx, at = [], {}  # at[a, b, i, j]: the position of x_i (x) y_j
    for k in range(max_deg + 1):
        here = [(a, k - a) for a in range(k + 1)
                if a < len(ca) and k - a < len(cb)]
        summands, blocks = [], []
        for a, b in here:
            for i, x in enumerate(ca[a][0]):
                for j, y in enumerate(cb[b][0]):
                    at[a, b, i, j] = len(summands)
                    summands.append(tensor_objects(x, y))
        for a, b in here:   # no blocks leave degree 0 of either factor
            for dst, src, block, c in ca[a][1]:
                for j, y in enumerate(cb[b][0]):
                    dx = tensor(block, identity(y.ambient, block.field))
                    blocks.append((at[a - 1, b, dst, j], at[a, b, src, j],
                                   dx, c))
            for dst, src, block, c in cb[b][1]:
                c = block.field.neg(c) if a % 2 else c  # (-1)^a c
                for i, x in enumerate(ca[a][0]):
                    dy = tensor(identity(x.ambient, block.field), block)
                    blocks.append((at[a, b - 1, i, dst], at[a, b, i, src],
                                   dy, c))
        cpx.append((summands, blocks))
    _check_square_zero(cpx)
    return cpx


def tor_bmod(m, n, imax, max_part=6, nu_len=None):
    """[dim Tor_i(m, n) for i in 0..imax] via the matrix route.

    Both minimal resolutions are realized as matrix complexes, tensored,
    and pushed through the restricted Yoneda functor degreewise; homology
    dimensions are summed over the weight window.  Hom(M_nu, Z_k) is the
    sum of the summands' hom spaces, and a block (dst, src, B, c) sends a
    basis map h of summand src to c times the coordinates of B o h in
    summand dst's.  `nu_len` bounds the window; the support bound is max
    part + 1, but the default caps at 4 because composition middles grow
    exponentially with parts + window.  Parts beyond `max_part` raise
    WindowExceeded.
    """
    f = m.field
    res_a = min_projective_resolution(m, imax + 1)
    res_b = min_projective_resolution(n, imax + 1)
    biggest = max((len(mu) + len(nu) for k in range(imax + 2)
                   for a in range(k + 1) for mu in res_a.terms.get(-a, ())
                   for nu in res_b.terms.get(a - k, ())), default=0)
    if biggest > max_part:
        raise WindowExceeded(
            f"tensor parts reach {biggest} > max_part={max_part}")
    if nu_len is None:
        nu_len = min(biggest + 1, 4)
    cpx = tensor_matrix_complexes(matrix_complex(res_a),
                                  matrix_complex(res_b), imax + 1)
    out = [0] * (imax + 1)
    for nu in enumerate_weights(nu_len):
        m_nu = indecomposable(nu, MU2, f)
        spaces = [[hom_space(m_nu, z) for z in summands]
                  for summands, _ in cpx]
        starts = [list(accumulate((s.dim for s in sp), initial=0))
                  for sp in spaces]
        images = [None]  # one row per basis map of degree k: its image
        for k in range(1, len(cpx)):
            rows = [[f.zero] * starts[k - 1][-1]
                    for _ in range(starts[k][-1])]
            for dst, src, block, c in cpx[k][1]:
                for r, h in enumerate(spaces[k][src].basis, starts[k][src]):
                    coords = coords_in_basis(compose(block, h, MU2),
                                             spaces[k - 1][dst])
                    for col, x in enumerate(coords, starts[k - 1][dst]):
                        rows[r][col] = f.add(rows[r][col], f.mul(c, x))
            images.append(rows)
        dims = homology_dims([s[-1] for s in starts], images, f, imax)
        out = [a + b for a, b in zip(out, dims)]
    return out
