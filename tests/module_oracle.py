"""Module-level linear algebra only the tests use: images, cokernels, lifts,
dual maps and homology of module maps.

`derived.l_psi` reads Psi's values off the pointwise image; homology of the
realized tilting complex is the tests' reference route for it, and kernels
and cokernels of hom maps build its input modules.  Everything here runs on
`rep.kernel` and `rep._submodule`, which the engine's projective covers use.
"""

from delannoy.fields import QQ
from delannoy.linalg import SpanBuilder, mat_is_zero, mat_transpose
from delannoy.rep import (ModuleMap, _submodule, compose, dual, in_basis,
                          kernel)
from delannoy.weights import dual as dual_weight


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
