"""Finite representations of a category given by generating arrows.

A module assigns a space of dimension dims[lam] to each weight and one
matrix to each generating arrow lam -> mu between supported weights, stored
as arrows[(lam, mu)] with shape dim(mu) x dim(lam).  A category is a
subclass saying which pairs of weights are arrows (`is_arrow`) and which
relations the matrices satisfy (`check_relations`).  Everything else is the
same linear algebra for every category and lives here: module maps, hom
spaces, kernels, images, cokernels, direct sums, duals, homology and the
isomorphism search.
"""

import random
from dataclasses import dataclass

from .fields import QQ
from .linalg import (column_space_basis, mat_eq, mat_is_zero, mat_mul,
                     mat_transpose, mat_vec, nullspace, rank, solve, zeros)
from .weights import dual as dual_weight, sort_key


class Module:
    """A finite module: dims per weight plus one matrix per nonzero arrow."""

    def __init__(self, dims, arrows, field=QQ):
        self.field = field
        self.dims = {lam: d for lam, d in dims.items() if d > 0}
        self.arrows = {k: m for k, m in arrows.items()
                       if not mat_is_zero(m, field)}
        for (lam, mu), m in self.arrows.items():
            if not self.is_arrow(lam, mu):
                raise ValueError(f"matrix on a non-arrow {lam!r} -> {mu!r}")
            if len(m) != self.dim(mu) or any(len(r) != self.dim(lam) for r in m):
                raise ValueError(f"shape mismatch at {lam!r} -> {mu!r}")
        self.check_relations()

    @staticmethod
    def is_arrow(lam, mu):
        """Whether lam -> mu is a generating arrow of the category."""
        raise NotImplementedError

    def check_relations(self):
        """Raise ValueError unless the arrow matrices satisfy the relations."""
        raise NotImplementedError

    @classmethod
    def pairs(cls, weights):
        """The arrows (lam, mu) with both ends in `weights`."""
        return [(lam, mu) for lam in weights for mu in weights
                if cls.is_arrow(lam, mu)]

    @classmethod
    def full(cls, support, field=QQ):
        """The full module on a support: dims 1, identity on every arrow.

        Validation rejects supports on which the identities break a relation.
        """
        supp = sorted(support, key=sort_key)
        return cls({lam: 1 for lam in supp},
                   {a: [[field.one]] for a in cls.pairs(supp)}, field)

    def dim(self, lam):
        return self.dims.get(lam, 0)

    @property
    def support(self):
        return sorted(self.dims, key=sort_key)

    def is_zero(self):
        return not self.dims

    def matrix(self, lam, mu):
        """The matrix of the arrow lam -> mu (zero when none is stored)."""
        m = self.arrows.get((lam, mu))
        return m if m is not None else zeros(self.dim(mu), self.dim(lam),
                                             self.field)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.dims != other.dims or self.field != other.field:
            return False
        return all(mat_eq(self.matrix(*k), other.matrix(*k), self.field)
                   for k in set(self.arrows) | set(other.arrows))

    def __repr__(self):
        parts = ", ".join(f"{lam or 'e'}:{d}" for lam, d in
                          sorted(self.dims.items(), key=lambda kv: sort_key(kv[0])))
        return f"{type(self).__name__}({{{parts}}})"


@dataclass
class ModuleMap:
    src: Module
    dst: Module
    comps: dict  # lam -> matrix dim_dst(lam) x dim_src(lam)

    def component(self, lam):
        m = self.comps.get(lam)
        if m is not None:
            return m
        return zeros(self.dst.dim(lam), self.src.dim(lam), self.src.field)

    def is_zero(self):
        f = self.src.field
        return all(mat_is_zero(m, f) for m in self.comps.values())

    def validate(self):
        """Check that every arrow square commutes; returns self."""
        f = self.src.field
        supp = sorted(set(self.src.dims) | set(self.dst.dims), key=sort_key)
        for lam, mu in self.src.pairs(supp):
            left = mat_mul(self.component(mu), self.src.matrix(lam, mu), f)
            right = mat_mul(self.dst.matrix(lam, mu), self.component(lam), f)
            if not mat_eq(left, right, f):
                raise ValueError(f"square fails at {lam!r} -> {mu!r}")
        return self

    def scale(self, c):
        f = self.src.field
        return ModuleMap(self.src, self.dst,
                         {lam: [[f.mul(c, x) for x in row] for row in m]
                          for lam, m in self.comps.items()})

    def __add__(self, other):
        f = self.src.field
        out = {}
        for lam in set(self.comps) | set(other.comps):
            a, b = self.component(lam), other.component(lam)
            out[lam] = [[f.add(x, y) for x, y in zip(ra, rb)]
                        for ra, rb in zip(a, b)]
        return ModuleMap(self.src, self.dst, out)


def compose(g, f):
    """g o f for module maps with matching middle."""
    fld = f.src.field
    comps = {}
    for lam in set(f.comps) | set(g.comps):
        m = mat_mul(g.component(lam), f.component(lam), fld)
        if not mat_is_zero(m, fld):
            comps[lam] = m
    return ModuleMap(f.src, g.dst, comps)


def dual(m):
    """Pointwise dual: V*(lam) = V(dual lam)^t; an exact involution."""
    return type(m)({dual_weight(lam): d for lam, d in m.dims.items()},
                   {(dual_weight(mu), dual_weight(lam)):
                    mat_transpose(mat, ncols=m.dim(lam))
                    for (lam, mu), mat in m.arrows.items()}, m.field)


def dual_map(f):
    """The dual map between the dual modules (contravariant)."""
    comps = {dual_weight(lam): mat_transpose(m, ncols=f.src.dim(lam))
             for lam, m in f.comps.items()}
    return ModuleMap(dual(f.dst), dual(f.src), comps)


def direct_sum(modules, field=QQ):
    """Direct sum of a nonempty list, with slot bookkeeping: (module, offsets).

    offsets[i][lam] is the index where slot i's part of V(lam) starts.
    """
    dims, offsets = {}, []
    for m in modules:
        off = {}
        for lam, d in m.dims.items():
            off[lam] = dims.get(lam, 0)
            dims[lam] = dims.get(lam, 0) + d
        offsets.append(off)
    arrows = {}
    for m, off in zip(modules, offsets):
        for (lam, mu), sub in m.arrows.items():
            if (lam, mu) not in arrows:
                arrows[(lam, mu)] = zeros(dims[mu], dims[lam], field)
            block = arrows[(lam, mu)]
            r0, c0 = off[mu], off[lam]
            for r, row in enumerate(sub):
                block[r0 + r][c0:c0 + len(row)] = row
    return type(modules[0])(dims, arrows, field), offsets


def hom(m, n):
    """Basis of the space of module maps m -> n."""
    f = m.field
    lams = sorted(set(m.dims) & set(n.dims), key=sort_key)
    var_index = {}
    for lam in lams:
        for i in range(n.dim(lam)):
            for j in range(m.dim(lam)):
                var_index[(lam, i, j)] = len(var_index)
    nvars = len(var_index)
    if nvars == 0:
        return []
    # one equation per entry of f_mu @ m(lam -> mu) == n(lam -> mu) @ f_lam
    rows = []
    for lam, mu in m.pairs(sorted(set(m.dims) | set(n.dims), key=sort_key)):
        src_mat, dst_mat = m.matrix(lam, mu), n.matrix(lam, mu)
        for r in range(n.dim(mu)):
            for c in range(m.dim(lam)):
                row = [f.zero] * nvars
                nz = False
                for k in range(m.dim(mu)):
                    v = src_mat[k][c]
                    if not f.is_zero(v) and (mu, r, k) in var_index:
                        row[var_index[(mu, r, k)]] = v
                        nz = True
                for k in range(n.dim(lam)):
                    v = dst_mat[r][k]
                    if not f.is_zero(v) and (lam, k, c) in var_index:
                        idx = var_index[(lam, k, c)]
                        row[idx] = f.sub(row[idx], v)
                        nz = True
                if nz:
                    rows.append(row)
    maps = []
    for v in nullspace(rows, nvars, f):
        comps = {}
        for lam in lams:
            mat = [[v[var_index[(lam, i, j)]] for j in range(m.dim(lam))]
                   for i in range(n.dim(lam))]
            if not mat_is_zero(mat, f):
                comps[lam] = mat
        maps.append(ModuleMap(m, n, comps))
    return maps


def in_basis(basis, targets, fld):
    """Coordinates of target vectors in a basis (list of vectors); exact."""
    sol = solve(mat_transpose(basis), [list(t) for t in targets], fld)
    if sol is None:
        raise ValueError("vector not in span (structure map does not restrict)")
    return sol


def _submodule(n, bases):
    """(S, incl) for the subspaces of n spanned by bases[lam], per weight.

    Every arrow of n between two weights of S is restricted, and a target
    outside the span raises, so `bases` must be closed under the arrows.
    """
    fld = n.field
    bases = {lam: b for lam, b in bases.items() if b}
    arrows = {}
    for lam, mu in n.pairs(sorted(bases, key=sort_key)):
        targets = [mat_vec(n.matrix(lam, mu), v, fld) for v in bases[lam]]
        arrows[(lam, mu)] = mat_transpose(in_basis(bases[mu], targets, fld),
                                          ncols=len(bases[mu]))
    sub = type(n)({lam: len(b) for lam, b in bases.items()}, arrows, fld)
    incl = ModuleMap(sub, n, {lam: mat_transpose(b, ncols=n.dim(lam))
                              for lam, b in bases.items()})
    return sub, incl


def kernel(f):
    """(K, incl) with K the pointwise kernel carrying restricted maps."""
    m = f.src
    return _submodule(m, {lam: nullspace(f.component(lam), m.dim(lam), m.field)
                          for lam in m.dims})


def image(f):
    """(I, incl into dst) with I the pointwise image as a submodule."""
    return _submodule(f.dst, {lam: column_space_basis(f.component(lam),
                                                      f.src.field)
                              for lam in f.comps})


def cokernel(f):
    """(C, proj) computed as the dual of the kernel of the dual map."""
    _, incl = kernel(dual_map(f))
    proj = dual_map(incl)
    return proj.dst, ModuleMap(f.dst, proj.dst, proj.comps)


def lift_through_inclusion(f, incl):
    """The map g with incl o g = f, for f landing inside the submodule."""
    fld = f.src.field
    comps = {}
    for lam in f.comps:
        cols = mat_transpose(f.component(lam), ncols=f.src.dim(lam))
        basis = mat_transpose(incl.component(lam), ncols=incl.src.dim(lam))
        mat = mat_transpose(in_basis(basis, cols, fld), ncols=incl.src.dim(lam))
        if not mat_is_zero(mat, fld):
            comps[lam] = mat
    return ModuleMap(f.src, incl.src, comps)


def homology(d_in, d_out):
    """ker(d_out) / im(d_in) for composable module maps with zero composite."""
    if not compose(d_out, d_in).is_zero():
        raise ValueError("maps do not compose to zero")
    _, incl = kernel(d_out)
    return cokernel(lift_through_inclusion(d_in, incl))[0]


def find_isomorphism(m, n, tries=25, seed=0):
    """An invertible module map m -> n, or None.

    Searches small linear combinations of a hom basis; no fuzzy matching:
    either a verified isomorphism is produced or None is returned.
    """
    if m.dims != n.dims:
        return None
    if m.is_zero():
        return ModuleMap(m, n, {})
    fld = m.field
    homs = hom(m, n)
    if not homs:
        return None
    rng = random.Random(seed)

    def invertible(h):
        return all(rank(h.component(lam), fld) == m.dim(lam) for lam in m.dims)

    for h in homs:
        if invertible(h):
            return h
    for _ in range(tries):
        cand = None
        for h in homs:
            part = h.scale(fld.of_int(rng.randint(-3, 3)))
            cand = part if cand is None else cand + part
        if invertible(cand):
            return cand
    return None
