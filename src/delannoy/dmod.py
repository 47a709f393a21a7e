"""Finite modules over the tilting combinatorial category.

Morphism spaces between weights are at most one-dimensional: lam -> mu is
nonzero exactly when lam = mu, or mu extends lam by a nonempty alternating
word ending white, or lam extends mu by one ending black.  Distinguished
morphisms compose to the distinguished morphism when it exists and to zero
otherwise.  A finite module stores one matrix per nonzero distinguished
morphism between supported weights; the only relations are composition
consistency, which is validated by a direct scan.

The tilting module at lam is the full module on `tilting_support(lam)`.
Tilting complexes are `weights.WeightComplex`es of tilting symbols, the class
`bmod` uses for projective resolutions: Hom between tiltings is spanned by
the canonical map (dimension `weights.hom_dim_pattern`), and canonical maps
compose by the projectives' generator rule (`weights.composite_unit`); both
are machine-checked on the modules in the tests.
"""

from . import rep
from .fields import QQ
from .linalg import SpanBuilder, eye, homology_dims, mat_eq, mat_mul, mat_vec
from .rep import Module
from .weights import (WeightComplex, composite_unit, dual as dual_weight,
                      hom_dim_pattern, is_alternating)

# Names the benchmark tracer patches by attribute; they are the rep functions.
hom_dmodules, find_isomorphism_d = rep.hom, rep.find_isomorphism


def dist_hom_nonzero(lam, mu):
    """Whether the distinguished morphism lam -> mu is nonzero."""
    if lam == mu:
        return True
    if len(mu) > len(lam) and mu.startswith(lam):
        tail = mu[len(lam):]
        return tail.endswith("w") and is_alternating(tail)
    if len(lam) > len(mu) and lam.startswith(mu):
        tail = lam[len(mu):]
        return tail.endswith("b") and is_alternating(tail)
    return False


# ---------------------------------------------------------------------------
# Basic morphisms and unique factorization.
# ---------------------------------------------------------------------------

def is_basic(lam, mu):
    """The six generator shapes into which every morphism factors."""
    if lam == mu + "wb":                                      # remove 'wb'
        return True
    if mu == lam + "bw":                                      # append 'bw'
        return True
    if mu == lam + "w" and not lam.endswith("b"):             # append 'w'
        return True
    if lam == mu + "b" and not mu.endswith("w"):              # remove 'b'
        return True
    return False


def _factor_up(lam, alpha):
    """Basic chain realizing lam -> lam + alpha, alpha alternating ending w."""
    if not alpha:
        return []
    if len(alpha) % 2 == 0:
        # alpha = (bw)^j: append 'bw' repeatedly
        steps = []
        cur = lam
        for _ in range(len(alpha) // 2):
            steps.append((cur, cur + "bw"))
            cur += "bw"
        return steps
    if not lam.endswith("b"):
        # alpha = w (bw)^j: append 'w' first
        return [(lam, lam + "w")] + _factor_up(lam + "w", alpha[1:])
    if lam.endswith("wb"):
        base = lam[:-2]
        return [(lam, base)] + _factor_up(base, "wb" + alpha)
    # lam ends 'bb' or is a lone 'b': remove the final 'b'
    return [(lam, lam[:-1])] + _factor_up(lam[:-1], "b" + alpha)


def basic_factorization(lam, mu):
    """The unique factorization of the nonzero morphism lam -> mu into basic
    morphisms.

    Returns the list of (src, dst) basic steps; empty for an identity.  The
    downward case is obtained from the upward one by duality.
    """
    if not dist_hom_nonzero(lam, mu):
        raise ValueError("cannot factor the zero morphism")
    if lam == mu:
        return []
    if len(mu) > len(lam):
        steps = _factor_up(lam, mu[len(lam):])
    else:
        dual_steps = _factor_up(dual_weight(mu), dual_weight(lam)[len(mu):])
        steps = [(dual_weight(b), dual_weight(a)) for a, b in reversed(dual_steps)]
    for a, b in steps:
        if not is_basic(a, b):
            raise AssertionError(f"non-basic step {a!r} -> {b!r}")
    cur = lam
    for a, b in steps:
        if a != cur or not dist_hom_nonzero(a, b):
            raise AssertionError("factorization chain broken")
        cur = b
    if cur != mu:
        raise AssertionError("factorization does not reach the target")
    return steps


def basic_targets(lam):
    """All mu with a basic morphism lam -> mu (the Ext^1 quiver arrows)."""
    out = [lam + "bw"]
    if not lam.endswith("b"):
        out.append(lam + "w")
    if lam.endswith("wb"):
        out.append(lam[:-2])
    if lam.endswith("b") and not lam[:-1].endswith("w"):
        out.append(lam[:-1])
    return out


# ---------------------------------------------------------------------------
# Modules.
# ---------------------------------------------------------------------------

class DModule(Module):
    """One arrow per nonzero distinguished morphism between distinct weights."""

    @staticmethod
    def is_arrow(lam, mu):
        return lam != mu and dist_hom_nonzero(lam, mu)

    def check_relations(self):
        """Each composite lam -> mu -> nu is the matrix of lam -> nu: the
        identity when nu == lam, zero when that morphism vanishes."""
        f = self.field
        pairs = self.pairs(self.support)
        out = {}
        for lam, mu in pairs:
            out.setdefault(lam, []).append(mu)
        for lam, mu in pairs:
            for nu in out.get(mu, ()):
                comp = mat_mul(self.matrix(mu, nu), self.matrix(lam, mu), f)
                want = eye(self.dim(lam), f) if lam == nu else self.matrix(lam, nu)
                if not mat_eq(comp, want, f):
                    raise ValueError(
                        f"composition inconsistent: {lam!r}->{mu!r}->{nu!r}")


def _prefixes_with_tail(lam, final):
    """Prefixes mu of lam whose complement is alternating (ending `final`)."""
    out = []
    for cut in range(len(lam)):
        tail = lam[cut:]
        if is_alternating(tail) and (final is None or tail.endswith(final)):
            out.append(lam[:cut])
    return out


def tilting_support(lam):
    """Weights of the tilting module at lam: lam and every prefix of lam
    whose complement is alternating."""
    return frozenset((lam, *_prefixes_with_tail(lam, None)))


def named_support(kind, lam):
    """The support of a named module: S (simple), Delta, Nabla, T (tilting)."""
    if kind == "S":
        return frozenset((lam,))
    if kind == "Delta":
        return frozenset((lam, *_prefixes_with_tail(lam, "b")))
    if kind == "Nabla":
        return frozenset((lam, *_prefixes_with_tail(lam, "w")))
    if kind == "T":
        return tilting_support(lam)
    raise ValueError(f"unknown module kind {kind!r}")


def named_dmodule(kind, lam, field=QQ):
    """The named module of a kind at lam: the full module on its support."""
    return DModule.full(named_support(kind, lam), field)


# ---------------------------------------------------------------------------
# Identification and radical filtrations.
# ---------------------------------------------------------------------------

def identify_named_dmodule(m):
    """('S'|'Delta'|'Nabla'|'T', lam) if m is isomorphic to a named module,
    else None.

    Named modules are full, so they are equal exactly when their supports
    are: the first name with m's support is the only candidate, and one
    exact isomorphism test decides.
    """
    supp = set(m.dims)
    for lam in m.support:
        for kind in ("S", "Delta", "Nabla", "T"):
            if named_support(kind, lam) == supp:
                iso = rep.find_isomorphism(m, DModule.full(supp, m.field))
                return (kind, lam) if iso is not None else None
    return None


def radical_filtration(m):
    """Layers of the radical filtration, as dicts weight -> dim."""
    f = m.field
    # submodule bases per weight, starting from the whole module
    current = {lam: [[f.one if i == j else f.zero for i in range(m.dim(lam))]
                     for j in range(m.dim(lam))]
               for lam in m.dims}
    layers = []
    while any(current.values()):
        nxt = {}
        for mu in m.dims:
            sb = SpanBuilder(m.dim(mu), f)
            vecs = []
            for lam in m.dims:
                if lam == mu or not dist_hom_nonzero(lam, mu):
                    continue
                mat = m.matrix(lam, mu)
                for v in current.get(lam, []):
                    w = mat_vec(mat, v, f)
                    if sb.insert(w):
                        vecs.append(w)
            nxt[mu] = vecs
        layer = {lam: len(current.get(lam, [])) - len(nxt.get(lam, []))
                 for lam in m.dims}
        layers.append({k: v for k, v in layer.items() if v})
        if all(len(nxt.get(lam, [])) == len(current.get(lam, []))
               for lam in m.dims):
            break  # radical stabilized (should only happen at zero)
        current = nxt
    return [layer for layer in layers if layer]


# ---------------------------------------------------------------------------
# Tilting complexes and homotopy homs.
# ---------------------------------------------------------------------------

def tilting_map(lam, mu, field=QQ):
    """The canonical map T_lam -> T_mu (common-support identity)."""
    if hom_dim_pattern(lam, mu) == 0:
        raise ValueError(f"zero hom space {lam!r} -> {mu!r}")
    return rep.full_map(named_dmodule("T", lam, field),
                        named_dmodule("T", mu, field))


def tilting_complex(kind, lam, field=QQ):
    """A bounded tilting complex representing the named module.

    Simples use the staircase (co)resolutions; standards and costandards
    reduce to a tilting module or to the simple's complex by final letter.
    """
    if kind == "T" or \
            (kind == "Delta" and (lam == "" or lam.endswith("b"))) or \
            (kind == "Nabla" and (lam == "" or lam.endswith("w"))):
        return WeightComplex({0: [lam]}, {}, field)
    if kind in ("Delta", "Nabla"):
        return tilting_complex("S", lam, field)
    if kind != "S":
        raise ValueError(f"unknown complex kind {kind!r}")
    if lam == "":
        return WeightComplex({0: [""]}, {}, field)
    if lam.endswith("b"):
        # kappa b^i resolves by T_kappa -> ... -> T_lam in degrees -i..0
        i = 0
        kappa = lam
        while kappa.endswith("b"):
            kappa = kappa[:-1]
            i += 1
        terms = {-k: [kappa + "b" * (i - k)] for k in range(i + 1)}
        diffs = {-k: {(0, 0): field.one} for k in range(1, i + 1)}
        return WeightComplex(terms, diffs, field).validate()
    # lam ends white: coresolution T_lam -> T_{kappa w^{i-1}} -> ... -> T_kappa
    i = 0
    kappa = lam
    while kappa.endswith("w"):
        kappa = kappa[:-1]
        i += 1
    terms = {k: [kappa + "w" * (i - k)] for k in range(i + 1)}
    diffs = {k: {(0, 0): field.one} for k in range(i)}
    return WeightComplex(terms, diffs, field).validate()


def _hom_basis(x, y, n):
    """Basis of Hom^n(x, y) as {(d, i, j): index}: the slot pairs with a
    nonzero tilting hom x.terms[d][i] -> y.terms[d + n][j]."""
    index = {}
    for d, xs in x.terms.items():
        ys = y.terms.get(d + n)
        if ys:
            for i, lam in enumerate(xs):
                for j, mu in enumerate(ys):
                    if hom_dim_pattern(lam, mu):
                        index[(d, i, j)] = len(index)
    return index


def _hom_differential(x, y, n, src, dst, sign):
    """f -> d_y f + sign * f d_x from Hom^n to Hom^(n+1), bases `src`, `dst`.

    One row per basis map of `src`: its image in the coordinates of `dst`,
    over the one-dimensional tilting homs with the composite rule
    `weights.composite_unit`.
    """
    if not dst:
        return []
    f = x.field
    add = f.add if sign > 0 else f.sub
    rows = []
    for d, i, j in src:
        lam, mu = x.terms[d][i], y.terms[d + n][j]
        row = [f.zero] * len(dst)
        for (j2, j1), c in y.diffs.get(d + n, {}).items():   # d_y o f
            t = dst.get((d, i, j2)) if j1 == j else None
            if t is not None and \
                    composite_unit(lam, mu, y.terms[d + n + 1][j2]):
                row[t] = f.add(row[t], c)
        for (i1, i2), c in x.diffs.get(d - 1, {}).items():   # f o d_x
            t = dst.get((d - 1, i2, j)) if i1 == i else None
            if t is not None and \
                    composite_unit(x.terms[d - 1][i2], lam, mu):
                row[t] = add(row[t], c)
        rows.append(row)
    return rows


def homotopy_hom_dim(x, y, shift=0):
    """dim Hom in the homotopy category of tilting complexes, Hom(x, y[shift]).

    H^0 of the Hom complex at Hom^shift: chain maps (the kernel of
    f -> d_y f - f d_x) modulo null-homotopies (the image of
    h -> d_y h + h d_x from Hom^(shift-1)).
    """
    here = _hom_basis(x, y, shift)
    if not here:
        return 0
    below, above = _hom_basis(x, y, shift - 1), _hom_basis(x, y, shift + 1)
    diffs = [None, _hom_differential(x, y, shift - 1, below, here, 1),
             _hom_differential(x, y, shift, here, above, -1)]
    return homology_dims([len(below), len(here), len(above)], diffs,
                         x.field)[1]


def ext_dim(kind_x, lam, kind_y, mu, i, field=QQ):
    """dim Ext^i between named modules, via the homotopy category of tiltings."""
    cx = tilting_complex(kind_x, lam, field)
    cy = tilting_complex(kind_y, mu, field)
    return homotopy_hom_dim(cx, cy, i)
