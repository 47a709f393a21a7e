"""The three right-exact functors out of the module category, left-derived.

On projectives the first functor sends the projective at lam to the pair of
simples {lam, lam-flat} of the semisimple category, the second to the tilting
module at lam, and the third to the ground field when lam is empty.  Each
image is one-dimensional over every weight of its support, and a generator
map acts by the +1 gauge on the weights the two supports share.  So a minimal
resolution, read as a complex of tilting symbols, is already its image under
the second functor, and `pointwise_image` reads all three images off it one
weight at a time; `l_psi` reads the arrows of the second functor's values
off the same image.  Functoriality of the gauge is machine-verified per
window and per weight for all three functors (each image differential must
square to zero) rather than proved abstractly.  Homology dimensions are
gauge-independent.
"""

from .bmod import min_projective_resolution
from .dmod import DModule, identify_named_dmodule, tilting_support
from .linalg import (SpanBuilder, homology_dims, mat_is_zero, mat_mul,
                     mat_transpose, nullspace, solve, zeros)
from .weights import flat, sort_key


def phi_support(mu):
    """Simples of the first image of the projective at mu: {mu, mu-flat}."""
    f = flat(mu)
    return (mu,) if f is None else (mu, f)


psi_support = tilting_support


def theta_support(mu):
    """The third image of the projective at mu: the unit weight at mu = ''."""
    return ("",) if mu == "" else ()


def _slots(cpx, support):
    """Per homological degree k (degree -k of `cpx`): {kappa: {slot: row}},
    the slots i whose support(symbol) holds kappa, numbered in slot order."""
    over = []
    for k in range(1 - min(cpx.terms, default=0)):
        per = {}
        for i, mu in enumerate(cpx.terms.get(-k, ())):
            for kappa in support(mu):
                rows = per.setdefault(kappa, {})
                rows[i] = len(rows)
        over.append(per)
    return over


def pointwise_image(cpx, support):
    """Per-weight scalar complexes of a functor's image of a resolution.

    Slot i of homological degree k lies over kappa when kappa is in
    support(symbol), numbered as in `_slots`; an entry passes with its
    coefficient when kappa is in the supports of both its slots.  Returns
    {kappa: (dims per degree, diffs per degree)} where diffs[k] is the matrix
    (list of rows) of the degree k -> k-1 differential between the slots
    over kappa.  The differentials are checked to square to zero, which
    checks functoriality of the gauge on every composable pair.
    """
    return _image(cpx, _slots(cpx, support))


def _image(cpx, over):
    """`pointwise_image` over the slot numbering `over` of `_slots`."""
    f = cpx.field
    # lying[k][kappa]: (row, column, coeff) over kappa of each entry of the
    # degree k differential whose two slots lie over kappa; each entry is
    # read once per weight its source slot lies over
    lying = [None]
    for k in range(1, len(over)):
        cols = {}  # cols[i]: (kappa, column of slot i over kappa)
        for kappa, rows in over[k].items():
            for i, col in rows.items():
                cols.setdefault(i, []).append((kappa, col))
        per = {}
        for (j, i), coeff in cpx.diffs.get(-k, {}).items():
            for kappa, col in cols.get(i, ()):
                below = over[k - 1].get(kappa, {})
                if j in below:
                    per.setdefault(kappa, []).append((below[j], col, coeff))
        lying.append(per)
    out = {}
    for kappa in sorted(set().union(*over), key=sort_key):
        pos = [per.get(kappa, {}) for per in over]
        diffs, before = [None], None
        for k in range(1, len(pos)):
            mat = zeros(len(pos[k - 1]), len(pos[k]), f)
            here = lying[k].get(kappa)
            if here:
                for row, col, coeff in here:
                    mat[row][col] = coeff
                # a product with a factor without entries is zero
                if before and not mat_is_zero(mat_mul(diffs[-1], mat, f), f):
                    raise AssertionError(
                        f"gauge is not functorial over {kappa!r}: d^2 != 0")
            diffs.append(mat)
            before = here
        out[kappa] = ([len(p) for p in pos], diffs)
    return out


def pointwise_homology(cpx, support, max_deg):
    """Homology of `pointwise_image`: {degree: {weight: dim}}, nonzero only."""
    out = {}
    for kappa, (dims, diffs) in pointwise_image(cpx, support).items():
        for k, d in enumerate(homology_dims(dims, diffs, cpx.field, max_deg)):
            if d:
                out.setdefault(k, {})[kappa] = d
    return out


def l_phi(m, max_deg):
    """Homology of the first derived functor: {degree: {weight: mult}}."""
    res = min_projective_resolution(m, max_deg + 1)
    return pointwise_homology(res, phi_support, max_deg)


def l_psi(m, max_deg):
    """Homology of the second derived functor: {degree: DModule or name}.

    Homological degree k holds the k-th left-derived value; identification
    returns ('S'|'Delta'|'Nabla'|'T', weight) when a verified isomorphism
    with a named module exists, otherwise the raw module.  Over each weight
    the cycles that grow the span of the boundaries are a basis of H_k
    there.  Every tilting module is full on its support, so an arrow
    lam -> mu sends slot i over lam to slot i over mu when mu lies in slot
    i's support and to zero otherwise; one solve against the boundaries and
    the basis over mu gives the arrow's matrix.  For dimensions alone,
    `pointwise_homology(res, psi_support, max_deg)` is enough.
    """
    res = min_projective_resolution(m, max_deg + 1).validate()
    f = res.field
    over = _slots(res, psi_support)
    image = _image(res, over)
    out = {}
    for k in range(min(max_deg + 1, len(over))):
        bounds, basis = {}, {}
        for kappa, (dims, diffs) in image.items():
            if not dims[k]:
                continue
            span = SpanBuilder(dims[k], f)
            cols = mat_transpose(diffs[k + 1], ncols=dims[k + 1]) \
                if k + 1 < len(dims) else []
            bounds[kappa] = [b for b in cols if span.insert(b)]
            basis[kappa] = [z for z in nullspace(diffs[k] or [], dims[k], f)
                            if span.insert(z)]
        sizes = {kappa: len(zs) for kappa, zs in basis.items() if zs}
        arrows = {}
        for lam, mu in DModule.pairs(sorted(sizes, key=sort_key)):
            src, dst = over[k][lam], over[k][mu]
            cols = [[z[src[i]] if i in src else f.zero for i in dst]
                    for z in basis[lam]]
            sols = solve(mat_transpose(bounds[mu] + basis[mu]), cols, f)
            arrows[(lam, mu)] = mat_transpose(
                [x[len(bounds[mu]):] for x in sols], ncols=sizes[mu])
        if sizes:
            h = DModule(sizes, arrows, f)
            name = identify_named_dmodule(h)
            out[k] = name if name is not None else h
    return out


def l_theta(m, max_deg):
    """Homology dims of the third derived functor: [dim in degree 0..max_deg]."""
    res = min_projective_resolution(m, max_deg + 1)
    h = pointwise_homology(res, theta_support, max_deg)
    return [h.get(k, {}).get("", 0) for k in range(max_deg + 1)]


def euler_characteristics(m, max_deg):
    """Euler characteristics of the three derived images, from homology.

    Returns ({weight: int}, {weight: int in the simple basis}, int): classes
    of the alternating sums of the first / second / third derived values.
    Amplitude must die inside the window; checked via the top two degrees.
    """
    res = min_projective_resolution(m, max_deg + 1)
    chis = []
    for support in (phi_support, psi_support, theta_support):
        h = pointwise_homology(res, support, max_deg)
        if h.get(max_deg) or h.get(max_deg - 1):
            raise ValueError("derived window too small for a trustworthy "
                             "Euler characteristic")
        chi = {}
        for k, dims in h.items():
            for nu, d in dims.items():
                chi[nu] = chi.get(nu, 0) + (-1) ** k * d
        chis.append({nu: c for nu, c in chi.items() if c})
    chi_phi, chi_psi, chi_theta = chis
    return chi_phi, chi_psi, chi_theta.get("", 0)
