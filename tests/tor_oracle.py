"""Tor by the assembled total complex, as `bmod.tor_bmod` computed it before
it read Hom(M_nu, Z_k) summand by summand.

Each degree Z_k of the tensor complex is assembled into one `AObject`: the
summands' parts and entries are shifted to part offsets, and each degree's
idempotent and differential are one `PermMatrix` over the whole degree.
`tor_bmod` cuts M_nu against that object and composes the whole
differential with each basis map.  The tests compare the engine's
summand-wise route against it: the same Tor dims, and per degree the sum of
the summands' hom dimensions equals the hom dimension of the assembled
object.
"""

from itertools import accumulate

from delannoy.acat import (AObject, coords_in_basis, down_map, e_lambda,
                           hom_space, indecomposable, ud_map, up_map)
from delannoy.bmod import WindowExceeded, min_projective_resolution
from delannoy.fields import QQ
from delannoy.linalg import homology_dims
from delannoy.schwartz import MU2, PermMatrix, compose, identity, tensor
from delannoy.weights import enumerate_weights, gen_kind

# Largest part size of the middle degree at which d o d is composed.
CHECK_PARTS = 4


def _entries(amat, bmat):
    """(source parts, target parts, entries) of the Kronecker product."""
    t = tensor(amat, bmat)
    return t.source, t.target, t.entries


def assemble_complex(degrees, f):
    """The matrix complex with degrees[k] = (summands, blocks) in degree k.

    Degree k is the direct sum of its summands, each (parts, idempotent
    entries); d_k sums its blocks, each (dst, src, entries, coeff): coeff
    times a map from summand src of degree k to summand dst of degree k - 1.
    Returns (objects, diffs) with diffs[k]: objects[k] -> objects[k-1].
    """
    objects, diffs = [], [None]
    for k, (summands, blocks) in enumerate(degrees):
        starts = list(accumulate((len(p) for p, _ in summands), initial=0))
        ambient = tuple(s for parts, _ in summands for s in parts)
        entries = {(ti + o, si + o, p): c
                   for o, (_, block) in zip(starts, summands)
                   for (ti, si, p), c in block.items()}
        objects.append(AObject(MU2, ambient,
                               PermMatrix(ambient, ambient, entries, f)))
        entries = {}
        for dst, src, block, coeff in blocks:   # none in degree 0
            t_off, s_off = below[dst], starts[src]
            for (ti, si, p), c in block.items():
                key = (ti + t_off, si + s_off, p)
                entries[key] = f.add(entries.get(key, f.zero), f.mul(coeff, c))
        if k:
            diffs.append(PermMatrix(ambient, objects[k - 1].ambient, entries, f))
        if k > 1 and max(objects[k - 1].ambient, default=0) <= CHECK_PARTS:
            if not compose(diffs[k - 1], diffs[k], MU2).is_zero():
                raise AssertionError("differential does not square to zero")
        below = starts
    return objects, diffs


def matrix_complex(res):
    """A projective resolution as assembled cut objects and matrices:
    (objects, diffs) with diffs[k]: objects[k] -> objects[k-1]."""
    f = res.field
    terms = [res.terms[-k] for k in range(len(res.terms))]
    degrees = []
    for k, syms in enumerate(terms):
        blocks = []
        for (j, i), coeff in (res.diffs[-k].items() if k else ()):
            mu, nu = syms[i], terms[k - 1][j]
            kind = gen_kind(mu, nu)
            if kind == "id":
                block = e_lambda(mu, f)
            elif kind == "d":
                block = down_map(nu, f)
            elif kind == "u":
                block = up_map(mu, f)
            else:
                block = ud_map(mu[:-1], f)
            blocks.append((j, i, block.entries, coeff))
        degrees.append(([((len(mu),), e_lambda(mu, f).entries)
                         for mu in syms], blocks))
    return assemble_complex(degrees, f)


def tensor_matrix_complexes(xa, da, xb, db, max_deg):
    """The assembled total complex of the Kronecker tensor of two assembled
    matrix complexes, with d(x (x) y) = dx (x) y + (-1)^a x (x) dy."""
    f = xa[0].field if xa else QQ
    pairs = [[(a, k - a) for a in range(k + 1)
              if a < len(xa) and k - a < len(xb)] for k in range(max_deg + 1)]
    degrees = []
    for k, here in enumerate(pairs):
        blocks = []
        for i, (a, b) in enumerate(here):
            if a:
                dx = _entries(da[a], identity(xb[b].ambient, f))[2]
                blocks.append((pairs[k - 1].index((a - 1, b)), i, dx, f.one))
            if b:
                dy = _entries(identity(xa[a].ambient, f), db[b])[2]
                blocks.append((pairs[k - 1].index((a, b - 1)), i, dy,
                               f.of_int((-1) ** a)))
        degrees.append(([_entries(xa[a].idem, xb[b].idem)[::2]
                         for a, b in here], blocks))
    return assemble_complex(degrees, f)


def tor_objects(m, n, imax):
    """(objects, diffs) of the assembled tensor complex of the two minimal
    resolutions, to degree imax + 1."""
    xa, da = matrix_complex(min_projective_resolution(m, imax + 1))
    xb, db = matrix_complex(min_projective_resolution(n, imax + 1))
    return tensor_matrix_complexes(xa, da, xb, db, imax + 1)


def tor_bmod(m, n, imax, max_part=6, nu_len=None):
    """[dim Tor_i(m, n) for i in 0..imax] through the assembled complex."""
    f = m.field
    res_a = min_projective_resolution(m, imax + 1)
    res_b = min_projective_resolution(n, imax + 1)
    biggest = 0
    for k in range(imax + 2):
        for a in range(k + 1):
            for mu in res_a.terms.get(-a, ()):
                for nu in res_b.terms.get(a - k, ()):
                    biggest = max(biggest, len(mu) + len(nu))
    if biggest > max_part:
        raise WindowExceeded(
            f"tensor parts reach {biggest} > max_part={max_part}")
    if nu_len is None:
        nu_len = min(biggest + 1, 4)
    objects, diffs = tor_objects(m, n, imax)
    out = [0] * (imax + 1)
    for nu in enumerate_weights(nu_len):
        m_nu = indecomposable(nu, MU2, f)
        spaces = [hom_space(m_nu, z) for z in objects]
        images = [None] + [
            [coords_in_basis(compose(diffs[k], h, MU2), spaces[k - 1])
             for h in spaces[k].basis] for k in range(1, len(spaces))]
        dims = homology_dims([s.dim for s in spaces], images, f, imax)
        out = [a + b for a, b in zip(out, dims)]
    return out
