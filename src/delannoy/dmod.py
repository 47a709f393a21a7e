"""Finite modules over the tilting combinatorial category.

Morphism spaces between weights are at most one-dimensional: lam -> mu is
nonzero exactly when lam = mu, or mu extends lam by a nonempty alternating
word ending white, or lam extends mu by one ending black.  Distinguished
morphisms compose to the distinguished morphism when it exists and to zero
otherwise.  A finite module stores one matrix per nonzero distinguished
morphism between supported weights; the only relations are composition
consistency, which is validated by a direct scan.
"""

from dataclasses import dataclass

from . import rep
from .fields import QQ
from .linalg import SpanBuilder, eye, mat_eq, mat_mul, mat_vec, rank
from .rep import Module, ModuleMap
from .weights import dual as dual_weight, is_alternating

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


@dataclass(frozen=True)
class DistHom:
    src: str
    dst: str

    @property
    def nonzero(self):
        return dist_hom_nonzero(self.src, self.dst)


def dist_hom(lam, mu):
    return DistHom(lam, mu)


def compose_dist(f, g):
    """The composite of distinguished morphisms f then g (dst(f) = src(g)).

    Returns the distinguished morphism src(f) -> dst(g); it is the zero
    morphism of that pair exactly when its `nonzero` flag is False.
    """
    if f.dst != g.src:
        raise ValueError("non-composable distinguished morphisms")
    return DistHom(f.src, g.dst)


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


def basic_factorization(f):
    """The unique factorization of a nonzero morphism into basic morphisms.

    Returns the list of (src, dst) basic steps; empty for an identity.  The
    downward case is obtained from the upward one by duality.
    """
    if not f.nonzero:
        raise ValueError("cannot factor the zero morphism")
    lam, mu = f.src, f.dst
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


def named_dmodule(kind, lam, field=QQ):
    """The named modules: S (simple), Delta, Nabla, T (tilting)."""
    if kind == "S":
        supp = {lam}
    elif kind == "Delta":
        supp = {lam, *_prefixes_with_tail(lam, "b")}
    elif kind == "Nabla":
        supp = {lam, *_prefixes_with_tail(lam, "w")}
    elif kind == "T":
        supp = {lam, *_prefixes_with_tail(lam, None)}
    else:
        raise ValueError(f"unknown module kind {kind!r}")
    return DModule.full(supp, field)


def truncated_projective(lam, max_len, field=QQ):
    """The projective at lam, truncated to weights of length <= max_len."""
    from .weights import alternating_suffixes
    supp = {lam}
    supp.update(lam + w for w in alternating_suffixes(max_len - len(lam), "w")
                if len(lam + w) <= max_len)
    supp.update(_prefixes_with_tail(lam, "b"))
    return DModule.full(supp, field)


# ---------------------------------------------------------------------------
# Identification and radical filtrations.
# ---------------------------------------------------------------------------

def identify_named_dmodule(m, seed=0):
    """('S'|'Delta'|'Nabla'|'T', lam) if m is isomorphic to a named module,
    else None.  Identification requires a verified invertible hom."""
    if m.is_zero():
        return None
    for lam in m.support:
        for kind in ("S", "Delta", "Nabla", "T"):
            cand = named_dmodule(kind, lam, m.field)
            if cand.dims == m.dims and \
                    rep.find_isomorphism(m, cand, seed=seed) is not None:
                return (kind, lam)
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

def tilting_hom_dim(lam, mu):
    """dim Hom between tilting modules of the given weights (0 or 1).

    Tiltings are equivalent to the indecomposables of the matrix category,
    so the nonzero homs are exactly the identity, the one-step down map
    (lam = mu + w), the one-step up map (mu = lam + b), and their composite.
    """
    if lam == mu:
        return 1
    if lam == mu + "w":
        return 1
    if mu == lam + "b":
        return 1
    if lam.endswith("w") and mu == lam[:-1] + "b":
        return 1
    return 0


def tilting_composite_unit(lam, mu, nu):
    """Coefficient of the canonical map in t(mu,nu) o t(lam,mu): 0 or 1.

    The canonical generators are common-support identity maps; their
    composite is the canonical map exactly when all three hom spaces are
    nonzero, and zero otherwise (machine-checked in the tests).
    """
    if tilting_hom_dim(lam, nu) == 0:
        return 0
    return int(tilting_hom_dim(lam, mu) != 0 and tilting_hom_dim(mu, nu) != 0)


def tilting_map(lam, mu, field=QQ):
    """The canonical map T_lam -> T_mu (common-support identity)."""
    if tilting_hom_dim(lam, mu) == 0:
        raise ValueError(f"zero hom space {lam!r} -> {mu!r}")
    src = named_dmodule("T", lam, field)
    dst = named_dmodule("T", mu, field)
    comps = {kappa: [[field.one]] for kappa in set(src.dims) & set(dst.dims)}
    return ModuleMap(src, dst, comps)


@dataclass
class TiltComplex:
    """Bounded complex of tilting symbols with scalar differentials.

    terms maps degree -> list of weights; diffs[d] is the differential from
    degree d to degree d+1 as {(dst_slot, src_slot): coeff}.
    """

    terms: dict
    diffs: dict
    field: object

    def degrees(self):
        return sorted(self.terms)

    def validate(self):
        f = self.field
        for d in self.degrees():
            if d + 2 not in self.terms:
                continue
            for i, lam in enumerate(self.terms[d]):
                for j, nu in enumerate(self.terms[d + 2]):
                    total = f.zero
                    for k, mu in enumerate(self.terms[d + 1]):
                        e1 = self.diffs.get(d, {}).get((k, i))
                        e2 = self.diffs.get(d + 1, {}).get((j, k))
                        if e1 is not None and e2 is not None:
                            unit = tilting_composite_unit(lam, mu, nu)
                            if unit:
                                total = f.add(total, f.mul(e1, e2))
                    if not f.is_zero(total):
                        raise ValueError("tilting differential does not square to zero")
        return self


def tilting_complex(kind, lam, field=QQ):
    """A bounded tilting complex representing the named module.

    Simples use the staircase (co)resolutions; standards and costandards
    reduce to a tilting module or to the simple's complex by final letter.
    """
    if kind == "T" or \
            (kind == "Delta" and (lam == "" or lam.endswith("b"))) or \
            (kind == "Nabla" and (lam == "" or lam.endswith("w"))):
        return TiltComplex({0: [lam]}, {}, field)
    if kind in ("Delta", "Nabla"):
        return tilting_complex("S", lam, field)
    if kind != "S":
        raise ValueError(f"unknown complex kind {kind!r}")
    if lam == "":
        return TiltComplex({0: [""]}, {}, field)
    if lam.endswith("b"):
        # kappa b^i resolves by T_kappa -> ... -> T_lam in degrees -i..0
        i = 0
        kappa = lam
        while kappa.endswith("b"):
            kappa = kappa[:-1]
            i += 1
        terms = {-k: [kappa + "b" * (i - k)] for k in range(i + 1)}
        diffs = {-k: {(0, 0): field.one} for k in range(1, i + 1)}
        return TiltComplex(terms, diffs, field).validate()
    # lam ends white: coresolution T_lam -> T_{kappa w^{i-1}} -> ... -> T_kappa
    i = 0
    kappa = lam
    while kappa.endswith("w"):
        kappa = kappa[:-1]
        i += 1
    terms = {k: [kappa + "w" * (i - k)] for k in range(i + 1)}
    diffs = {k: {(0, 0): field.one} for k in range(i)}
    return TiltComplex(terms, diffs, field).validate()


def homotopy_hom_dim(x, y, shift=0):
    """dim Hom in the homotopy category of tilting complexes, Hom(x, y[shift]).

    Chain maps modulo null-homotopies, computed over the one-dimensional
    tilting hom spaces with the composite rule `tilting_composite_unit`.
    """
    f = x.field
    # chain map variables: per degree d, per (i in x.terms[d], j in y.terms[d+shift])
    var_index = {}
    for d, xs in x.terms.items():
        ys = y.terms.get(d + shift, [])
        for i, lam in enumerate(xs):
            for j, mu in enumerate(ys):
                if tilting_hom_dim(lam, mu):
                    var_index[(d, i, j)] = len(var_index)
    nvars = len(var_index)
    rows = []
    # commuting condition per degree d: d_y o f_d = f_{d+1} o d_x, as a map
    # from x.terms[d] to y.terms[d+shift+1], expanded per canonical target hom
    for d, xs in x.terms.items():
        ys_next = y.terms.get(d + shift + 1, [])
        for i, lam in enumerate(xs):
            for j2, nu in enumerate(ys_next):
                if not tilting_hom_dim(lam, nu):
                    continue
                row = [f.zero] * nvars
                nz = False
                for j, mu in enumerate(y.terms.get(d + shift, [])):
                    c = y.diffs.get(d + shift, {}).get((j2, j))
                    if c is not None and (d, i, j) in var_index and \
                            tilting_composite_unit(lam, mu, nu):
                        idx = var_index[(d, i, j)]
                        row[idx] = f.add(row[idx], c)
                        nz = True
                for i2, mu in enumerate(x.terms.get(d + 1, [])):
                    c = x.diffs.get(d, {}).get((i2, i))
                    if c is not None and (d + 1, i2, j2) in var_index and \
                            tilting_composite_unit(lam, mu, nu):
                        idx = var_index[(d + 1, i2, j2)]
                        row[idx] = f.sub(row[idx], c)
                        nz = True
                if nz:
                    rows.append(row)
    chain_dim = nvars - rank(rows, f) if rows else nvars
    # homotopies: per degree d, maps x.terms[d] -> y.terms[d+shift-1];
    # boundary h -> d_y h + h d_x lands in the chain-map space
    h_index = {}
    for d, xs in x.terms.items():
        ys = y.terms.get(d + shift - 1, [])
        for i, lam in enumerate(xs):
            for j, mu in enumerate(ys):
                if tilting_hom_dim(lam, mu):
                    h_index[(d, i, j)] = len(h_index)
    if not h_index or not var_index:
        return chain_dim
    boundary = [[f.zero] * len(h_index) for _ in range(nvars)]
    for (d, i, j), col in h_index.items():
        lam = x.terms[d][i]
        mu = y.terms[d + shift - 1][j]
        # d_y o h contributes at (d, i, j2)
        for j2, nu in enumerate(y.terms.get(d + shift, [])):
            c = y.diffs.get(d + shift - 1, {}).get((j2, j))
            if c is not None and (d, i, j2) in var_index and \
                    tilting_composite_unit(lam, mu, nu):
                r = var_index[(d, i, j2)]
                boundary[r][col] = f.add(boundary[r][col], c)
        # h o d_x contributes at (d - 1, i2, j)
        for i2, lam2 in enumerate(x.terms.get(d - 1, [])):
            c = x.diffs.get(d - 1, {}).get((i, i2))
            if c is not None and (d - 1, i2, j) in var_index and \
                    tilting_composite_unit(lam2, lam, mu):
                r = var_index[(d - 1, i2, j)]
                boundary[r][col] = f.add(boundary[r][col], c)
    return chain_dim - rank(boundary, f)


def ext_dim(kind_x, lam, kind_y, mu, i, field=QQ):
    """dim Ext^i between named modules, via the homotopy category of tiltings."""
    cx = tilting_complex(kind_x, lam, field)
    cy = tilting_complex(kind_y, mu, field)
    return homotopy_hom_dim(cx, cy, i)
