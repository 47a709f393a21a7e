"""Karoubi-level structure of the two matrix categories.

An object is an ambient formal sum of S(R^(n))'s together with an idempotent
matrix cutting out a summand; the measure tag selects the category (mu1: the
semisimple one, mu2: the additive non-semisimple one).  Everything here is
rank-based linear algebra over the path span: no idempotent is ever split
into sub-idempotents.
"""

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .fields import QQ, PrimeField
from .linalg import ModSpan, SpanBuilder, mod_product, rank_big, solve
from .paths import enumerate_paths, representative
from .schwartz import (MU1, MU2, PermMatrix, _pair_index, compose, identity,
                       tensor, tensor_object, trace, transpose)
from .weights import enumerate_weights, dual as dual_weight, flat

_GREEDY_PRIMES = (46337, 46327, 46309)


@dataclass(frozen=True)
class AObject:
    """A summand of a formal sum of Schwartz spaces, cut by an idempotent."""

    measure: int
    ambient: tuple
    idem: PermMatrix

    @property
    def field(self):
        return self.idem.field

    def validate(self):
        if compose(self.idem, self.idem, self.measure) != self.idem:
            raise ValueError("defining matrix is not idempotent")
        return self

    def is_identity_cut(self):
        return self.idem == identity(self.ambient, self.idem.field)


@dataclass
class HomSpace:
    basis: list
    dim: int


@lru_cache(maxsize=None)
def _e_lambda_cached(lam):
    n = len(lam)
    entries = {}
    for p in enumerate_paths(n, n):
        y, x = representative(p)
        ok = True
        for i, letter in enumerate(lam):
            if letter == "b" and not y[i] <= x[i]:
                ok = False
                break
            if letter == "w" and not x[i] <= y[i]:
                ok = False
                break
        if ok:
            for i in range(n - 1):
                if not (y[i] < x[i + 1] and x[i] < y[i + 1]):
                    ok = False
                    break
        if ok:
            entries[(0, 0, p)] = 1
    return entries


def e_lambda(lam, field=QQ):
    """The idempotent cutting the weight-lam summand out of S(R^(n)).

    Indicator of the configurations with y_i <= x_i at black letters,
    x_i <= y_i at white letters, and interlacing y_i < x_{i+1}, x_i < y_{i+1};
    membership is decided on orbit representatives.
    """
    entries = {k: field.of_int(v) for k, v in _e_lambda_cached(lam).items()}
    return PermMatrix((len(lam),), (len(lam),), entries, field)


def indecomposable(lam, measure=MU2, field=QQ):
    """The indecomposable object cut out of S(R^(l(lam))) by e_lambda."""
    return AObject(measure, (len(lam),), e_lambda(lam, field))


def schwartz_object(n, measure=MU2, field=QQ):
    """The full Schwartz space S(R^(n)) (identity idempotent)."""
    return AObject(measure, (n,), identity((n,), field))


def zero_object(measure=MU2, field=QQ):
    return AObject(measure, (), identity((), field))


def tensor_objects(x, y):
    if x.measure != y.measure:
        raise ValueError("measure mismatch")
    ambient, _ = tensor_object(x.ambient, y.ambient)
    return AObject(x.measure, ambient, tensor(x.idem, y.idem))


def dual_object(x):
    """Transpose dual; sends the weight-lam cut to the dual-weight cut."""
    return AObject(x.measure, x.ambient, transpose(x.idem))


# ---------------------------------------------------------------------------
# Hom spaces.
# ---------------------------------------------------------------------------

def _span_keys(x, y):
    keys = []
    for tp, st in enumerate(y.ambient):
        for sp, ss in enumerate(x.ambient):
            for p in enumerate_paths(ss, st):
                keys.append((tp, sp, p))
    return keys


def _bulk_matrix(n, triples):
    """Sum of the (row, col, value) triples as an n x n matrix: in int64 when
    the sum of |value| bounds every entry below 2**63, over Python ints
    otherwise (over a prime field a coefficient -1 arrives as p - 1)."""
    if not triples:
        return np.zeros((n, n), dtype=np.int64)
    rows, cols, vals = zip(*triples)
    out = np.zeros((n, n), dtype=np.int64
                   if sum(map(abs, vals)) < 2 ** 63 else object)
    np.add.at(out, (np.array(rows), np.array(cols)),
              np.array(vals, dtype=out.dtype))
    return out


def _left_operator(y, x_ambient, keys, key_pos, measure):
    """Matrix of H -> idem_y o H on the span, as integer numpy."""
    by_mid = {}
    for (tp, mid, beta), c in y.idem.entries.items():
        by_mid.setdefault(mid, []).append((tp, beta, int(c)))
    triples = []
    for col, (tmid, sp, delta) in enumerate(keys):
        for tp, beta, c in by_mid.get(tmid, ()):
            index = _pair_index(y.ambient[tp], y.ambient[tmid], x_ambient[sp])
            per = index.get((beta, delta))
            if not per:
                continue
            for gamma, cvec in per.items():
                v = cvec[measure - 1]
                if v:
                    triples.append((key_pos[(tp, sp, gamma)], col, c * v))
    return _bulk_matrix(len(keys), triples)


def _right_operator(x, y_ambient, keys, key_pos, measure):
    """Matrix of H -> H o idem_x on the span, as integer numpy."""
    by_mid = {}
    for (mid, sp, alpha), c in x.idem.entries.items():
        by_mid.setdefault(mid, []).append((sp, alpha, int(c)))
    triples = []
    for col, (tp, smid, gamma) in enumerate(keys):
        for sp, alpha, c in by_mid.get(smid, ()):
            index = _pair_index(y_ambient[tp], x.ambient[smid], x.ambient[sp])
            per = index.get((gamma, alpha))
            if not per:
                continue
            for delta, cvec in per.items():
                v = cvec[measure - 1]
                if v:
                    triples.append((key_pos[(tp, sp, delta)], col, c * v))
    return _bulk_matrix(len(keys), triples)


def _check_same_setting(x, y):
    if x.measure != y.measure:
        raise ValueError("measure mismatch")
    if x.field != y.field:
        raise ValueError("field mismatch")


@lru_cache(maxsize=None)
def _trace_table(s_t, s_src):
    """Structure table for operator traces on the matrix span.

    U[(beta, alpha)] is the 4-vector (per measure) of
    sum over paths delta, gamma between the parts of
    c(gamma; beta, delta) * c(delta; gamma, alpha):
    the trace of H -> C_beta o H o C_alpha on the span of matrices from the
    size-s_src part to the size-s_t part.  Traces of the cut operators are
    bilinear contractions of this table against the diagonal idempotent
    blocks.
    """
    idx1 = _pair_index(s_t, s_t, s_src)    # c(gamma; beta, delta)
    idx2 = _pair_index(s_t, s_src, s_src)  # c(delta; gamma, alpha)
    by_dg = {}
    for (beta, delta), per in idx1.items():
        for gamma, c1 in per.items():
            by_dg.setdefault((delta, gamma), []).append((beta, c1))
    table = {}
    for (gamma, alpha), per in idx2.items():
        for delta, c2 in per.items():
            hits = by_dg.get((delta, gamma))
            if not hits:
                continue
            for beta, c1 in hits:
                key = (beta, alpha)
                add = (c1[0] * c2[0], c1[1] * c2[1],
                       c1[2] * c2[2], c1[3] * c2[3])
                old = table.get(key)
                table[key] = add if old is None else (
                    old[0] + add[0], old[1] + add[1],
                    old[2] + add[2], old[3] + add[3])
    return table


def hom_dim(x, y):
    """dim Hom(x, y), the rank of H -> idem_y o H o idem_x on the path span.

    Over the rationals the operator is idempotent and its rank equals its
    trace; the trace only sees the diagonal part-blocks of the two
    idempotents and contracts them against a cached structure table.  Over a
    prime field trace only determines the rank mod p, so there the operator
    is built densely and eliminated honestly.
    """
    _check_same_setting(x, y)
    keys = _span_keys(x, y)
    if not keys:
        return 0
    mu = x.measure
    if x.is_identity_cut() and y.is_identity_cut():
        return len(keys)
    f = x.field
    if isinstance(f, PrimeField):
        return _hom_dim_prime(x, y, keys, mu, f)
    x_diag, y_diag = {}, {}
    for (sp, smid, alpha), c in x.idem.entries.items():
        if sp == smid:
            x_diag.setdefault(sp, []).append((alpha, int(c)))
    for (tp, tmid, beta), c in y.idem.entries.items():
        if tp == tmid:
            y_diag.setdefault(tp, []).append((beta, int(c)))
    total = 0
    for tp, s_t in enumerate(y.ambient):
        betas = y_diag.get(tp)
        if betas is None:
            continue
        for sp, s_src in enumerate(x.ambient):
            alphas = x_diag.get(sp)
            if alphas is None:
                continue
            table = _trace_table(s_t, s_src)
            for beta, cb in betas:
                for alpha, ca in alphas:
                    vec = table.get((beta, alpha))
                    if vec:
                        total += cb * ca * vec[mu - 1]
    return total


def _hom_dim_prime(x, y, keys, mu, f):
    key_pos = {k: i for i, k in enumerate(keys)}
    id_left = y.is_identity_cut()
    id_right = x.is_identity_cut()
    left = None if id_left else _left_operator(y, x.ambient, keys, key_pos, mu)
    right = None if id_right else _right_operator(x, y.ambient, keys, key_pos, mu)
    if left is None or right is None:
        return rank_big(right if left is None else left, f)
    return rank_big(mod_product(left, right, f.p), f)


def _apply_cut(h, x, y):
    return compose(y.idem, compose(h, x.idem, x.measure), x.measure)


def hom_space(x, y):
    """A basis of {H : idem_y o H o idem_x = H}.

    Candidates idem_y o C_key o idem_x are scanned in the deterministic key
    order; independence is certified modulo a prime (independence mod p
    implies independence over Q), and the scan stops once the exactly known
    dimension is reached, so the basis is certified complete.  Further primes
    and a final exact elimination serve as fallbacks; over a prime field one
    exact span does the scan.  A scan that misses the dimension raises.
    """
    _check_same_setting(x, y)
    d = hom_dim(x, y)
    keys = _span_keys(x, y)
    if d == 0:
        return HomSpace([], 0)
    f = x.field
    if d == len(keys):
        basis = [PermMatrix(x.ambient, y.ambient, {k: f.one}, f) for k in keys]
        return HomSpace(basis, d)
    key_pos = {k: i for i, k in enumerate(keys)}
    if isinstance(f, PrimeField):
        spans = [SpanBuilder(len(keys), f)]
    else:
        spans = [ModSpan(len(keys), p) for p in _GREEDY_PRIMES]
        spans.append(SpanBuilder(len(keys), f))
    for span in spans:
        basis = []
        for k in keys:
            h = _apply_cut(PermMatrix(x.ambient, y.ambient, {k: f.one}, f), x, y)
            if h.is_zero():
                continue
            vec = [f.zero] * len(keys)
            for key, v in h.entries.items():
                vec[key_pos[key]] = v
            if span.insert(vec):
                basis.append(h)
                if len(basis) == d:
                    return HomSpace(basis, d)
    raise RuntimeError("hom basis construction failed to reach the rank")


def coords_in_basis(h, basis):
    """Coordinates of a matrix in a basis of matrices; exact and verified.

    The linear system lives on the union of supports, which carries all
    nonzero coordinates, so the result is complete, not probabilistic.  When
    the union is large, a modular scan picks len(basis) probe keys, the small
    exact system is solved there, and the full residual is verified sparsely.
    """
    if not basis:
        if h.is_zero():
            return []
        raise ValueError("matrix not in span of empty basis")
    f = h.field
    keys = sorted(set(h.entries) | {k for b in basis for k in b.entries})
    if len(keys) > 40 * len(basis) and not isinstance(f, PrimeField):
        span = ModSpan(len(basis))
        probes = []
        for k in keys:
            row = [b.get(*k) for b in basis]
            if span.insert(row):
                probes.append((k, row))
                if len(probes) == len(basis):
                    break
        sol = solve([row for _, row in probes],
                    [h.get(*k) for k, _ in probes], f)
        if sol is not None:
            residual = dict(h.entries)
            for c, b in zip(sol, basis):
                if f.is_zero(c):
                    continue
                for k, v in b.entries.items():
                    residual[k] = f.sub(residual.get(k, f.zero), f.mul(c, v))
            if all(f.is_zero(v) for v in residual.values()):
                return sol
        # unlucky probe prime; fall back to the complete system
    rows = [[b.get(*k) for b in basis] for k in keys]
    sol = solve(rows, [h.get(*k) for k in keys], f)
    if sol is None:
        raise ValueError("matrix not in span of basis")
    return sol


# ---------------------------------------------------------------------------
# Krull-Schmidt multiplicities.
# ---------------------------------------------------------------------------

def hom_dim_pattern(lam, nu):
    """dim Hom between the indecomposables of weights lam -> nu (0 or 1)."""
    if lam == nu:
        return 1
    if lam == nu + "w":          # the downward generator
        return 1
    if nu == lam + "b":          # the upward generator
        return 1
    if lam.endswith("w") and nu == lam[:-1] + "b":  # their composite
        return 1
    return 0


def multiplicities(x, check=True):
    """The multiset of indecomposable summands of x (weights -> counts).

    Solves the linear system pairing the known hom-dimension pattern of the
    indecomposables against dim Hom(x, M_nu); with `check`, cross-checks the
    solution against dim Hom(M_nu, x).
    """
    if x.measure != MU2:
        raise ValueError("multiplicities are computed in the second category")
    if not x.ambient:
        return {}
    max_len = max(x.ambient)
    weights = enumerate_weights(max_len)
    f = x.field
    h = [x.field.of_int(hom_dim(x, indecomposable(nu, MU2, f)))
         for nu in weights]
    rows = [[f.of_int(hom_dim_pattern(lam, nu)) for lam in weights]
            for nu in weights]
    sol = solve(rows, h, f)
    if sol is None:
        raise ValueError("inconsistent hom system (upstream bug)")
    out = {}
    for lam, c in zip(weights, sol):
        if not f.is_zero(c):
            num = int(c) if not hasattr(c, "denominator") else c
            if hasattr(num, "denominator") and num.denominator != 1:
                raise ValueError("non-integral multiplicity (upstream bug)")
            num = int(num)
            if num < 0:
                raise ValueError("negative multiplicity (upstream bug)")
            out[lam] = num
    if check:
        for nu in weights:
            expect = sum(out.get(lam, 0) * hom_dim_pattern(nu, lam)
                         for lam in weights)
            got = hom_dim(indecomposable(nu, MU2, f), x)
            if got != expect:
                raise ValueError(f"hom cross-check failed at {nu!r}")
    return out


def theta_mult(x):
    """Multiplicity of the unit object in x (the semisimplification value)."""
    return multiplicities(x, check=False).get("", 0)


# ---------------------------------------------------------------------------
# Blocks of the functor to the semisimple category.
# ---------------------------------------------------------------------------

def phi_blocks(a):
    """Blocks of an endomorphism of S(R^(n)) after adjoining +oo.

    Evaluating a matrix at tuples extended by +oo makes sense because the
    matrix is an indicator combination of order formulas.  A path whose final
    step is right / up / diagonal corresponds to the extended source / target
    / both; deleting that step gives the block entry.
    """
    if a.source != a.target or len(a.source) != 1:
        raise ValueError("blocks are defined for endomorphisms of one part")
    n = a.source[0]
    f = a.field
    a1, a2, a3, a4 = {}, {}, {}, {}
    for (ti, si, p), c in a.entries.items():
        a1[(0, 0, p)] = c
        if p.endswith("R"):
            a2[(0, 0, p[:-1])] = c
        elif p.endswith("U"):
            a3[(0, 0, p[:-1])] = c
        elif p.endswith("D"):
            a4[(0, 0, p[:-1])] = c
    return (PermMatrix((n,), (n,), a1, f),
            PermMatrix((n - 1,), (n,), a2, f),
            PermMatrix((n,), (n - 1,), a3, f),
            PermMatrix((n - 1,), (n - 1,), a4, f))


# ---------------------------------------------------------------------------
# The degenerate ideal.
# ---------------------------------------------------------------------------

def degenerate_quotient_dim(n, measure=MU2, field=QQ):
    """dim End(S(R^(n))) / (morphisms factoring through S(R^(n-1)))."""
    if n < 1:
        raise ValueError("need n >= 1")
    gammas = enumerate_paths(n, n)
    pos = {g: i for i, g in enumerate(gammas)}
    index = _pair_index(n, n - 1, n)
    rows = []
    for beta in enumerate_paths(n - 1, n):
        for alpha in enumerate_paths(n, n - 1):
            per = index.get((beta, alpha))
            if not per:
                continue
            row = [0] * len(gammas)
            nonzero = False
            for gamma, cvec in per.items():
                v = cvec[measure - 1]
                if v:
                    row[pos[gamma]] = v
                    nonzero = True
            if nonzero:
                rows.append(row)
    return len(gammas) - rank_big(np.array(rows, dtype=np.int64).reshape(
        len(rows), len(gammas)), field)


# ---------------------------------------------------------------------------
# Generator maps between indecomposables.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gen_cached(kind, lam):
    from .schwartz import projection_matrices
    f = QQ
    n = len(lam)
    if kind == "d":  # M_{lam w} -> M_lam
        push, _ = projection_matrices(n + 1, n + 1, f)
        return compose(e_lambda(lam, f),
                       compose(push, e_lambda(lam + "w", f), MU2), MU2)
    if kind == "u":  # M_lam -> M_{lam b}
        _, pull = projection_matrices(n + 1, n + 1, f)
        return compose(e_lambda(lam + "b", f),
                       compose(pull, e_lambda(lam, f), MU2), MU2)
    raise ValueError(kind)


def down_map(lam, field=QQ):
    """The distinguished map M_{lam w} -> M_lam (nonzero, unique up to scalar)."""
    m = _gen_cached("d", lam)
    if field == QQ:
        return m
    return PermMatrix(m.source, m.target,
                      {k: field.parse(str(c)) for k, c in m.entries.items()},
                      field)


def up_map(lam, field=QQ):
    """The distinguished map M_lam -> M_{lam b}."""
    m = _gen_cached("u", lam)
    if field == QQ:
        return m
    return PermMatrix(m.source, m.target,
                      {k: field.parse(str(c)) for k, c in m.entries.items()},
                      field)


def ud_map(lam, field=QQ):
    """The composite M_{lam w} -> M_lam -> M_{lam b}."""
    return compose(up_map(lam, field), down_map(lam, field), MU2)


# ---------------------------------------------------------------------------
# The Yoneda bridge to modules over the combinatorial category.
# ---------------------------------------------------------------------------

def yoneda(x, max_len=None):
    """The module of homs out of the indecomposables, h_x(mu) = Hom(M_mu, x).

    Returns a finite module over the combinatorial category of
    indecomposables: dims are hom dimensions, the structure maps are induced
    by precomposition with the distinguished generators.  Exact in x.
    """
    from . import bmod
    if x.measure != MU2:
        raise ValueError("the Yoneda bridge lives over the second measure")
    bound = (max(x.ambient) + 1) if x.ambient else 0
    if max_len is None:
        max_len = bound
    if max_len < bound:
        raise ValueError(f"window too small: need max_len >= {bound}")
    f = x.field
    weights = enumerate_weights(max_len)
    bases = {}
    for lam in weights:
        bases[lam] = hom_space(indecomposable(lam, MU2, f), x).basis
    dims = {lam: len(bases[lam]) for lam in weights if bases[lam]}
    arrows = {}
    for lam in weights:
        lw, lb = lam + "w", lam + "b"
        if len(lw) <= max_len and bases[lam] and bases.get(lw):
            d = down_map(lam, f)
            cols = [coords_in_basis(compose(h, d, MU2), bases[lw])
                    for h in bases[lam]]
            arrows[(lam, lw)] = [[cols[j][i] for j in range(len(cols))]
                                 for i in range(len(bases[lw]))]
        if len(lb) <= max_len and bases.get(lb) and bases[lam]:
            u = up_map(lam, f)
            cols = [coords_in_basis(compose(h, u, MU2), bases[lam])
                    for h in bases[lb]]
            arrows[(lb, lam)] = [[cols[j][i] for j in range(len(cols))]
                                 for i in range(len(bases[lam]))]
    return bmod.BModule(dims, arrows, field=f)
