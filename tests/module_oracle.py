"""Module-level linear algebra only the tests use: images, cokernels, lifts,
dual maps and homology of module maps, and the Yoneda bridge from the
matrix category to modules.

`derived.l_psi` reads Psi's values off the pointwise image; homology of the
realized tilting complex is the tests' reference route for it, and kernels
and cokernels of hom maps build its input modules.  Everything here runs on
`rep.kernel` and `rep._submodule`, which the engine's projective covers use.
`yoneda` reads a matrix-category object as a module through the engine's
hom spaces and generator maps.
"""

from delannoy.acat import (coords_in_basis, down_map, hom_space,
                           indecomposable, up_map)
from delannoy.bmod import BModule
from delannoy.fields import QQ
from delannoy.linalg import SpanBuilder, mat_is_zero, mat_transpose
from delannoy.rep import (ModuleMap, _submodule, compose, dual, in_basis,
                          kernel)
from delannoy.schwartz import MU2, compose as compose_matrices
from delannoy.weights import dual as dual_weight, enumerate_weights


def column_space_basis(a, field=QQ):
    """Basis of the column space, as a list of columns."""
    span = SpanBuilder(len(a), field)
    return [c for c in mat_transpose(a) if span.insert(c)]


def dual_map(f):
    """The dual map between the dual modules (contravariant)."""
    comps = {dual_weight(lam): mat_transpose(m, ncols=f.src.dim(lam))
             for lam, m in f.comps.items()}
    return ModuleMap(dual(f.dst), dual(f.src), comps)


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


# ---------------------------------------------------------------------------
# The Yoneda bridge to modules over the combinatorial category.
# ---------------------------------------------------------------------------

def yoneda(x, max_len=None):
    """The module of homs out of the indecomposables, h_x(mu) = Hom(M_mu, x).

    Returns a finite module over the combinatorial category of
    indecomposables: dims are hom dimensions, the structure maps are induced
    by precomposition with the distinguished generators.  Exact in x.
    """
    if x.measure != MU2:
        raise ValueError("the Yoneda bridge lives over the second measure")
    bound = (max(x.ambient) + 1) if x.ambient else 0
    if max_len is None:
        max_len = bound
    if max_len < bound:
        raise ValueError(f"window too small: need max_len >= {bound}")
    f = x.field
    weights = enumerate_weights(max_len)
    spaces = {lam: hom_space(indecomposable(lam, MU2, f), x) for lam in weights}
    dims = {lam: s.dim for lam, s in spaces.items() if s.dim}
    arrows = {}
    for lam in weights:
        lw, lb = lam + "w", lam + "b"
        if len(lw) <= max_len and spaces[lam].dim and spaces[lw].dim:
            d = down_map(lam, f)
            cols = [coords_in_basis(compose_matrices(h, d, MU2), spaces[lw])
                    for h in spaces[lam].basis]
            arrows[(lam, lw)] = [[cols[j][i] for j in range(len(cols))]
                                 for i in range(spaces[lw].dim)]
        if len(lb) <= max_len and spaces[lb].dim and spaces[lam].dim:
            u = up_map(lam, f)
            cols = [coords_in_basis(compose_matrices(h, u, MU2), spaces[lam])
                    for h in spaces[lb].basis]
            arrows[(lb, lam)] = [[cols[j][i] for j in range(len(cols))]
                                 for i in range(spaces[lam].dim)]
    return BModule(dims, arrows, field=f)
