"""The three right-exact functors out of the module category, left-derived.

On projectives the first functor sends the projective at lam to the pair of
simples {lam, lam-flat} of the semisimple category, the second to the tilting
module at lam, and the third to the ground field when lam is empty.  All
three act on the distinguished generator maps with the +1 gauge on the shared
simple or tilting; functoriality of this gauge is machine-verified per window
(the image differentials must square to zero) rather than proved abstractly.
Homology dimensions are gauge-independent.
"""

from .bmod import min_projective_resolution
from .dmod import DModule, TiltComplex, identify_named_dmodule, named_dmodule
from .linalg import homology_dims, mat_is_zero, mat_mul, zeros
from .rep import ModuleMap, direct_sum, homology
from .weights import flat, sort_key


def _phi_simples(mu):
    """Simples of the image of the projective at mu: {mu, mu-flat}."""
    out = [mu]
    f = flat(mu)
    if f is not None:
        out.append(f)
    return out


def _phi_passes(kind, mu, nu):
    """Simple weights the generator map P_mu -> P_nu acts on by the gauge +1."""
    if kind == "id":
        return set(_phi_simples(mu))
    if kind == "d":      # mu = nu + w: shared simple is nu
        return {nu}
    if kind == "u":      # nu = mu + b: shared simple is mu
        return {mu}
    if kind == "ud":     # mu = kappa w, nu = kappa b: shared simple kappa
        return {mu[:-1]}
    raise ValueError(kind)


def phi_on_proj(cpx):
    """Per-simple-weight scalar complexes of the image of a formal complex.

    Returns {weight: (dims per degree, diffs per degree)} where diffs[k] is
    the matrix (list of rows) of the degree k -> k-1 differential between the
    slots containing the weight.  Differentials are validated to square to
    zero, which checks gauge functoriality on every composable pair.
    """
    f = cpx.field
    weights = set()
    slots = []  # per degree: {weight: [slot indices]}
    for syms in cpx.terms:
        per = {}
        for i, mu in enumerate(syms):
            for nu in _phi_simples(mu):
                per.setdefault(nu, []).append(i)
                weights.add(nu)
        slots.append(per)
    out = {}
    for nu in sorted(weights, key=sort_key):
        dims = [len(per.get(nu, [])) for per in slots]
        diffs = [None]
        for k in range(1, len(cpx.terms)):
            src = slots[k].get(nu, [])
            dst = slots[k - 1].get(nu, [])
            mat = zeros(len(dst), len(src), f)
            for (j, i), (coeff, kind) in cpx.diffs[k].items():
                mu_i = cpx.terms[k][i]
                nu_j = cpx.terms[k - 1][j]
                if nu in _phi_passes(kind, mu_i, nu_j):
                    mat[dst.index(j)][src.index(i)] = coeff
            diffs.append(mat)
        for k in range(2, len(diffs)):
            if not mat_is_zero(mat_mul(diffs[k - 1], diffs[k], f), f):
                raise AssertionError("gauge is not functorial: d^2 != 0")
        out[nu] = (dims, diffs)
    return out


def l_phi(m, max_deg):
    """Homology of the first derived functor: {degree: {weight: mult}}."""
    res = min_projective_resolution(m, max_deg + 1)
    per_weight = phi_on_proj(res)
    out = {}
    for nu, (dims, diffs) in per_weight.items():
        hom = homology_dims(dims, diffs, res.field, max_deg)
        for k, d in enumerate(hom):
            if d:
                out.setdefault(k, {})[nu] = d
    return out


def psi_on_proj(cpx):
    """The tilting complex image of a formal projective complex."""
    terms = {-k: list(syms) for k, syms in enumerate(cpx.terms) if syms}
    diffs = {}
    for k in range(1, len(cpx.terms)):
        if not cpx.terms[k]:
            continue
        diffs[-k] = {(j, i): coeff
                     for (j, i), (coeff, _kind) in cpx.diffs[k].items()}
    return TiltComplex(terms, diffs, cpx.field).validate()


def realize_psi_complex(tc):
    """Concrete modules and differential maps of the tilting complex image."""
    f = tc.field
    mods, offs, full = {}, {}, {}
    for d, syms in tc.terms.items():
        mods_d = [named_dmodule("T", lam, f) for lam in syms]
        full[d], offs[d] = direct_sum(mods_d, f) if mods_d else \
            (DModule({}, {}, f), [])
    maps = {}
    for d, entries in tc.diffs.items():
        src, dst = full[d], full.get(d + 1)
        if dst is None:
            continue
        comps = {}
        for (j, i), coeff in entries.items():
            lam = tc.terms[d][i]
            mu = tc.terms[d + 1][j]
            ti = named_dmodule("T", lam, f)
            tj = named_dmodule("T", mu, f)
            for kappa in set(ti.dims) & set(tj.dims):
                mat = comps.setdefault(
                    kappa, zeros(dst.dim(kappa), src.dim(kappa), f))
                mat[offs[d + 1][j][kappa]][offs[d][i][kappa]] = \
                    f.add(mat[offs[d + 1][j][kappa]][offs[d][i][kappa]], coeff)
        maps[d] = ModuleMap(src, dst, comps)
    return full, maps


def l_psi(m, max_deg, identify=True):
    """Homology of the second derived functor: {degree: DModule or name}.

    Homological degree k holds the k-th left-derived value; identification
    returns ('S'|'Delta'|'Nabla'|'T', weight) when a verified isomorphism
    with a named module exists, otherwise the raw module.
    """
    res = min_projective_resolution(m, max_deg + 1)
    tc = psi_on_proj(res)
    full, maps = realize_psi_complex(tc)
    f = res.field
    out = {}
    for k in range(max_deg + 1):
        deg = -k
        term = full.get(deg)
        if term is None or term.is_zero():
            continue
        d_out = maps.get(deg)
        if d_out is None:
            d_out = ModuleMap(term, DModule({}, {}, f), {})
        d_in = maps.get(deg - 1)
        if d_in is None:
            src = full.get(deg - 1, DModule({}, {}, f))
            d_in = ModuleMap(src, term, {})
        h = homology(d_in, d_out)
        if h.is_zero():
            continue
        if identify:
            name = identify_named_dmodule(h)
            out[k] = name if name is not None else h
        else:
            out[k] = h
    return out


def theta_on_proj(cpx):
    """The scalar complex of unit-weight slots: (dims, diffs)."""
    f = cpx.field
    slots = [[i for i, mu in enumerate(syms) if mu == ""]
             for syms in cpx.terms]
    dims = [len(s) for s in slots]
    diffs = [None]
    for k in range(1, len(cpx.terms)):
        mat = zeros(dims[k - 1], dims[k], f)
        for (j, i), (coeff, kind) in cpx.diffs[k].items():
            if kind == "id" and cpx.terms[k][i] == "":
                mat[slots[k - 1].index(j)][slots[k].index(i)] = coeff
        diffs.append(mat)
    return dims, diffs


def l_theta(m, max_deg):
    """Homology dims of the third derived functor: [dim in degree 0..max_deg]."""
    res = min_projective_resolution(m, max_deg + 1)
    dims, diffs = theta_on_proj(res)
    return homology_dims(dims, diffs, res.field, max_deg)


def euler_characteristics(m, max_deg):
    """Euler characteristics of the three derived images, from homology.

    Returns ({weight: int}, {weight: int in the simple basis}, int): classes
    of the alternating sums of the first / second / third derived values.
    Amplitude must die inside the window; checked via the top two degrees.
    """
    phi = l_phi(m, max_deg)
    psi = l_psi(m, max_deg, identify=False)
    theta = l_theta(m, max_deg)
    for k in (max_deg, max_deg - 1):
        if phi.get(k) or (k in psi and not psi[k].is_zero()) or \
                (0 <= k < len(theta) and theta[k]):
            raise ValueError("derived window too small for a trustworthy "
                             "Euler characteristic")
    chi_phi = {}
    for k, mults in phi.items():
        for nu, d in mults.items():
            chi_phi[nu] = chi_phi.get(nu, 0) + (-1) ** k * d
    chi_psi = {}
    for k, h in psi.items():
        for nu, d in h.dims.items():
            chi_psi[nu] = chi_psi.get(nu, 0) + (-1) ** k * d
    chi_theta = sum((-1) ** k * d for k, d in enumerate(theta))
    return ({k: v for k, v in chi_phi.items() if v},
            {k: v for k, v in chi_psi.items() if v},
            chi_theta)
