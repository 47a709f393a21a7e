"""Finite representations of a category given by generating arrows.

A module assigns a space of dimension dims[lam] to each weight and one
matrix to each generating arrow lam -> mu between supported weights, stored
as arrows[(lam, mu)] with shape dim(mu) x dim(lam).  A category is a
subclass saying which pairs of weights are arrows (`is_arrow`) and which
relations the matrices satisfy (`check_relations`).  Everything else is the
same linear algebra for every category and lives here: module maps and
their composites, the identity between full modules, hom spaces, kernels
(the resolutions' covers), direct sums, duals, and an exact decision of
isomorphism onto a full module.
"""

from dataclasses import dataclass
from functools import lru_cache

from .fields import QQ
from .linalg import (mat_eq, mat_is_zero, mat_mul, mat_transpose, mat_vec,
                     nullspace, solve, zeros)
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

        A full module is fixed by its class, support and field, so it is
        built and validated once per process and then shared (`_full`):
        nothing changes a module after construction.  Validation rejects
        supports on which the identities break a relation; a rejected
        support is not remembered.
        """
        return _full(cls, frozenset(support), field)

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
        if other is self:
            return True
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


@lru_cache(maxsize=4096)
def _full(cls, support, field):
    supp = sorted(support, key=sort_key)
    return cls({lam: 1 for lam in supp},
               {a: [[field.one]] for a in cls.pairs(supp)}, field)


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


def compose(g, f):
    """g o f for module maps with matching middle."""
    fld = f.src.field
    comps = {}
    for lam in set(f.comps) | set(g.comps):
        m = mat_mul(g.component(lam), f.component(lam), fld)
        if not mat_is_zero(m, fld):
            comps[lam] = m
    return ModuleMap(f.src, g.dst, comps)


def full_map(src, dst):
    """The identity on every weight two full modules share (validated)."""
    comps = {lam: [[src.field.one]] for lam in set(src.dims) & set(dst.dims)}
    return ModuleMap(src, dst, comps).validate()


def dual(m):
    """Pointwise dual: V*(lam) = V(dual lam)^t; an exact involution."""
    return type(m)({dual_weight(lam): d for lam, d in m.dims.items()},
                   {(dual_weight(mu), dual_weight(lam)):
                    mat_transpose(mat, ncols=m.dim(lam))
                    for (lam, mu), mat in m.arrows.items()}, m.field)


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


def find_isomorphism(m, n):
    """An isomorphism m -> n onto a full module n, or None when none exists.

    Such a map is one nonzero scalar phi[lam] per weight with
    m(lam -> mu) = phi[lam] / phi[mu] on every arrow: the scalars are read
    off along the arrows from one root per connected piece of the support,
    and the squares are then checked, so the answer is decided exactly.
    Raises ValueError unless n is `full` on its support.
    """
    if n != type(n).full(n.support, n.field):
        raise ValueError("find_isomorphism needs a full target module")
    if m.dims != n.dims:
        return None
    fld = m.field
    ratios = {lam: [] for lam in n.dims}  # lam -> [(mu, phi[mu] / phi[lam])]
    for lam, mu in n.pairs(n.support):
        a = m.matrix(lam, mu)[0][0]
        if fld.is_zero(a):
            return None
        ratios[lam].append((mu, fld.inv(a)))
        ratios[mu].append((lam, a))
    phi = {}
    for root in n.support:
        if root in phi:
            continue
        phi[root], todo = fld.one, [root]
        while todo:
            lam = todo.pop()
            for mu, r in ratios[lam]:
                if mu not in phi:
                    phi[mu] = fld.mul(r, phi[lam])
                    todo.append(mu)
    iso = ModuleMap(m, n, {lam: [[x]] for lam, x in phi.items()})
    try:
        return iso.validate()
    except ValueError:
        return None
