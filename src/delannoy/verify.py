"""Named verification suites reproducing the computable tables and identities.

Each suite returns a VerifyReport whose cases carry pass/fail/inconclusive.
Inconclusive only arises from truncation-margin or window rules, never from a
failed computation; any fail carries a reproducer command.
"""

import time
from dataclasses import dataclass, field as dc_field
from math import comb

from . import acat, bmod, derived, dmod, kring, rep
from .fields import QQ
from .linalg import mat_is_zero, mat_mul, rank
from .paths import delannoy
from .schwartz import (MEASURES, MU1, MU2, MU3, MU4, UNBOUNDED_ABOVE,
                       UNBOUNDED_BELOW, compose, gap_measure, identity,
                       trace, transpose)
from .weights import (dual as dual_weight, enumerate_weights, flat,
                      format_weight, is_alternating, sort_key, tensor_summands)


@dataclass
class Case:
    id: str
    status: str              # pass | fail | inconclusive
    expected: object
    actual: object
    repro: str = ""


@dataclass
class VerifyReport:
    suite: str
    window: dict
    cases: list
    elapsed: float = 0.0

    @property
    def failed(self):
        return [c for c in self.cases if c.status == "fail"]

    @property
    def inconclusive(self):
        return [c for c in self.cases if c.status == "inconclusive"]

    @property
    def ok(self):
        return not self.failed

    def to_json(self):
        return {
            "schema": 1,
            "suite": self.suite,
            "window": self.window,
            "cases": [{"id": c.id, "status": c.status,
                       "expected": repr(c.expected), "actual": repr(c.actual),
                       **({"repro": c.repro} if c.repro else {})}
                      for c in self.cases],
            "counts": {"pass": sum(c.status == "pass" for c in self.cases),
                       "fail": len(self.failed),
                       "inconclusive": len(self.inconclusive)},
            "elapsed_s": round(self.elapsed, 3),
        }


def _case(cases, suite, cid, expected, actual):
    status = "pass" if expected == actual else "fail"
    repro = f"delannoy verify {suite}" if status == "fail" else ""
    cases.append(Case(cid, status, expected, actual, repro))


def _skip(cases, cid, note):
    cases.append(Case(cid, "inconclusive", note, None))


def _wfmt(lam):
    return format_weight(lam)


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------

def suite_measures(field=QQ):
    cases = []
    below = tuple(gap_measure(mu, UNBOUNDED_BELOW, 1) for mu in MEASURES)
    above = tuple(gap_measure(mu, UNBOUNDED_ABOVE, 1) for mu in MEASURES)
    _case(cases, "measures", "p21-fiber", (-1, -1, 0, 0), below)
    _case(cases, "measures", "p22-fiber", (-1, 0, -1, 0), above)
    return cases, {}


def suite_matrix_examples(field=QQ):
    from .schwartz import PermMatrix
    cases = []
    a = PermMatrix((1,), (1,), {(0, 0, "UR"): field.one, (0, 0, "D"): field.one},
                   field)
    b = transpose(a)
    one = identity((1,), field)
    for mu in MEASURES:
        _case(cases, "matrix-examples", f"A^2=A[mu{mu}]", True,
              compose(a, a, mu) == a)
        _case(cases, "matrix-examples", f"B^2=B[mu{mu}]", True,
              compose(b, b, mu) == b)
    for mu in (MU1, MU3):
        _case(cases, "matrix-examples", f"AB=0[mu{mu}]", True,
              compose(a, b, mu).is_zero())
    for mu in (MU2, MU4):
        _case(cases, "matrix-examples", f"AB=A+B-1[mu{mu}]", True,
              compose(a, b, mu) == a + b - one)
    for mu in (MU1, MU2):
        _case(cases, "matrix-examples", f"BA=0[mu{mu}]", True,
              compose(b, a, mu).is_zero())
    for mu in (MU3, MU4):
        _case(cases, "matrix-examples", f"BA=A+B-1[mu{mu}]", True,
              compose(b, a, mu) == a + b - one)
    return cases, {}


def suite_idempotents(max_len=4, field=QQ):
    cases = []
    for lam in enumerate_weights(max_len):
        e = acat.e_lambda(lam, field)
        _case(cases, "idempotents", f"E^2=E[{_wfmt(lam)},mu1]", True,
              compose(e, e, MU1) == e)
        _case(cases, "idempotents", f"E^2=E[{_wfmt(lam)},mu2]", True,
              compose(e, e, MU2) == e)
    for lam in enumerate_weights(max_len):
        m = acat.indecomposable(lam, MU2, field)
        _case(cases, "idempotents", f"dimEnd[{_wfmt(lam)}]", 1,
              acat.hom_dim(m, m))
        e = acat.e_lambda(lam, field)
        if lam:
            _case(cases, "idempotents", f"trace-mu2[{_wfmt(lam)}]",
                  field.zero, trace(e, MU2))
        _case(cases, "idempotents", f"trace-mu1[{_wfmt(lam)}]",
              field.of_int((-1) ** len(lam)), trace(e, MU1))
    return cases, {"max_len": max_len}


def suite_hom_table(max_len=3, field=QQ):
    cases = []
    for a in enumerate_weights(max_len):
        for b in enumerate_weights(max_len):
            got = acat.hom_dim(acat.indecomposable(a, MU2, field),
                               acat.indecomposable(b, MU2, field))
            _case(cases, "hom-table", f"hom[{_wfmt(a)},{_wfmt(b)}]",
                  acat.hom_dim_pattern(a, b), got)
    for lam in enumerate_weights(max_len - 1):
        _case(cases, "hom-table", f"ud-nonzero[{_wfmt(lam)}]", True,
              not acat.ud_map(lam, field).is_zero())
    return cases, {"max_len": max_len}


def suite_schwartz_decomp(max_n=4, field=QQ):
    cases = []
    end_dims = {1: 3, 2: 13, 3: 63, 4: 321}  # D(n, n), frozen from enumeration
    for n in range(1, max_n + 1):
        x = acat.schwartz_object(n, MU2, field)
        expected = {lam: comb(n - 1, len(lam) - 1)
                    for lam in enumerate_weights(n) if lam}
        _case(cases, "schwartz-decomp", f"mult[n={n}]", expected,
              acat.multiplicities(x))
        _case(cases, "schwartz-decomp", f"dimEnd[n={n}]",
              end_dims.get(n, delannoy(n, n)), acat.hom_dim(x, x))
    return cases, {"max_n": max_n}


def suite_degenerate_ideal(max_n=4, field=QQ):
    cases = []
    for n in range(1, max_n + 1):
        _case(cases, "degenerate-ideal", f"quotient[n={n}]", 2 ** n,
              acat.degenerate_quotient_dim(n, MU2, field))
    return cases, {"max_n": max_n}


def suite_tensor_rule(max_sum=3, kring_sum=6, field=QQ):
    cases = []
    for a in enumerate_weights(max_sum):
        for b in enumerate_weights(max_sum - len(a)):
            x = acat.tensor_objects(acat.indecomposable(a, MU2, field),
                                    acat.indecomposable(b, MU2, field))
            expected = {}
            for w in tensor_summands(a, b, True):
                expected[w] = expected.get(w, 0) + 1
            _case(cases, "tensor-rule", f"matrix[{_wfmt(a)},{_wfmt(b)}]",
                  expected, acat.multiplicities(x))
    for a in enumerate_weights(kring_sum):
        for b in enumerate_weights(kring_sum - len(a)):
            xa = kring.basis_element(kring.KA, a)
            xb = kring.basis_element(kring.KA, b)
            lhs = kring.phi_map(kring.mult(xa, xb))
            rhs = kring.mult(kring.phi_map(xa), kring.phi_map(xb))
            _case(cases, "tensor-rule", f"phi-hom[{_wfmt(a)},{_wfmt(b)}]",
                  True, lhs == rhs)
    return cases, {"max_sum": max_sum, "kring_sum": kring_sum}


def _black_decomp(lam):
    mu = lam
    n = 0
    while mu.endswith("b"):
        mu = mu[:-1]
        n += 1
    return mu, n


def suite_bmod_ext(max_len=5, max_i=5, field=QQ):
    cases = []
    weights = enumerate_weights(max_len)
    targets = enumerate_weights(max_len + max_i)

    def run_table(kind_m, cid, expected_fn, sources=None):
        for lam in (sources if sources is not None else weights):
            m = bmod.named_bmodule(kind_m, lam, field)
            res = bmod.min_projective_resolution(m, max_i + 1)
            for nu_kind, nu in targets_for(cid):
                n = bmod.named_bmodule(nu_kind, nu, field)
                got = bmod._ext_from_resolution(res, n, max_i)
                want = [expected_fn(lam, nu, i) for i in range(max_i + 1)]
                _case(cases, "bmod-ext",
                      f"{cid}[{_wfmt(lam)},{_wfmt(nu)}]", want, got)

    def targets_for(cid):
        if cid in ("ExtB-a", "ExtB-b", "B-ext-f"):
            return [("S" if cid != "B-ext-f" else "Cost", nu) for nu in
                    (targets if cid != "B-ext-f" else weights)]
        return [("Q", nu) for nu in weights]

    mu_n = {lam: _black_decomp(lam) for lam in targets}

    def extb_a(lam, nu, i):
        mu, n = mu_n[lam]
        hit = (i <= n and nu == mu + "b" * (n - i)) or nu == lam + "w" * i
        return 1 if hit else 0

    def extb_b(lam, nu, i):
        mu, n = mu_n[lam]
        return 1 if (i <= n and nu == mu + "b" * (n - i)) else 0

    run_table("S", "ExtB-a", extb_a)
    run_table("Stan", "ExtB-b", extb_b)
    white = [lam for lam in weights if lam == "" or lam.endswith("w")]
    run_table("S", "B-ext-a",
              lambda lam, nu, i: 1 if (i == 0 and lam == nu + "w") else 0,
              sources=white)
    run_table("Cost", "B-ext-b", lambda lam, nu, i: 0)
    run_table("Q", "B-ext-c",
              lambda lam, nu, i: 1 if (i == 0 and lam == nu) else 0)
    run_table("I", "B-ext-d", lambda lam, nu, i: 0)
    for lam in weights:
        m = bmod.named_bmodule("I", lam, field)
        got = bmod.ext_table(m, bmod.named_bmodule("S", "", field), max_i)
        _case(cases, "bmod-ext", f"B-ext-e[{_wfmt(lam)}]",
              [0] * (max_i + 1), got)
    # the standard/costandard pairing: delta(lam,mu) at i=0 (the printed
    # index in the source table is off by one flat; see the ledger)
    run_table("Stan", "B-ext-f",
              lambda lam, nu, i: 1 if (i == 0 and lam == nu) else 0)
    # resolution shapes
    for lam in weights:
        if lam == "" or lam.endswith("w"):
            res = bmod.min_projective_resolution(
                bmod.named_bmodule("S", lam, field), 3)
            _case(cases, "bmod-ext", f"resLD[{_wfmt(lam)}]",
                  [[lam + "w" * k] for k in range(4)], res.terms[:4])
        res = bmod.min_projective_resolution(
            bmod.named_bmodule("Q", lam, field), 3)
        _case(cases, "bmod-ext", f"resQP[{_wfmt(lam)}]",
              [[lam + "b" + "w" * k] for k in range(4)], res.terms[:4])
        mu, n = _black_decomp(lam)
        res = bmod.min_projective_resolution(
            bmod.named_bmodule("Stan", lam, field), n + 1)
        want = [[mu + "b" * (n - k)] for k in range(n + 1)] + [[]]
        _case(cases, "bmod-ext", f"resDP[{_wfmt(lam)}]", want,
              res.terms[:n + 2])
    return cases, {"max_len": max_len, "max_i": max_i}


def _full_dmodule_map(src, dst):
    """Common-support identity map between full modules (validated)."""
    comps = {kappa: [[src.field.one]]
             for kappa in set(src.dims) & set(dst.dims)}
    return rep.ModuleMap(src, dst, comps).validate()


def _d_ses_exact(sub, mid, quot):
    """0 -> sub -> mid -> quot -> 0 with common-support maps, pointwise."""
    return _ses_exact((_full_dmodule_map(sub, mid),
                       _full_dmodule_map(mid, quot)))


def suite_dmod_ext(max_len=4, max_i=4, uniserial_len=5, field=QQ):
    cases = []
    weights = enumerate_weights(max_len)
    for lam in weights:
        for mu in weights:
            got = [dmod.ext_dim("Delta", lam, "Nabla", mu, i, field)
                   for i in range(max_i + 1)]
            want = [1 if (i == 0 and lam == mu) else 0
                    for i in range(max_i + 1)]
            _case(cases, "dmod-ext", f"HomExt[{_wfmt(lam)},{_wfmt(mu)}]",
                  want, got)
    for lam in weights:
        arrows = {mu for mu in dmod.basic_targets(lam)
                  if len(mu) <= max_len + 2}
        got = {mu for mu in enumerate_weights(max_len + 2)
               if dmod.ext_dim("S", lam, "S", mu, 1, field) == 1}
        _case(cases, "dmod-ext", f"Ext1-quiver[{_wfmt(lam)}]",
              sorted(arrows, key=sort_key), sorted(got, key=sort_key))
    for lam in weights:
        for mu in weights:
            got = len(rep.hom(dmod.named_dmodule("T", lam, field),
                                        dmod.named_dmodule("T", mu, field)))
            _case(cases, "dmod-ext", f"homT[{_wfmt(lam)},{_wfmt(mu)}]",
                  dmod.tilting_hom_dim(lam, mu), got)
    for lam in enumerate_weights(max_len - 1):
        comp = rep.compose(dmod.tilting_map(lam, lam + "b", field),
                                  dmod.tilting_map(lam + "w", lam, field))
        want = dmod.tilting_map(lam + "w", lam + "b", field)
        _case(cases, "dmod-ext", f"ud-composite[{_wfmt(lam)}]", True,
              not comp.is_zero() and comp.comps == want.comps)
    for lam in enumerate_weights(5):
        if lam.endswith("w"):  # 0 -> S_lam -> Nabla_lam -> Delta_flat -> 0
            ok = _d_ses_exact(dmod.named_dmodule("S", lam, field),
                              dmod.named_dmodule("Nabla", lam, field),
                              dmod.named_dmodule("Delta", lam[:-1], field))
            _case(cases, "dmod-ext", f"D-tilt-a[{_wfmt(lam)}]", True, ok)
        if lam.endswith("b"):  # 0 -> Nabla_flat -> Delta_lam -> S_lam -> 0
            ok = _d_ses_exact(dmod.named_dmodule("Nabla", lam[:-1], field),
                              dmod.named_dmodule("Delta", lam, field),
                              dmod.named_dmodule("S", lam, field))
            _case(cases, "dmod-ext", f"D-tilt-b[{_wfmt(lam)}]", True, ok)
    for lam in enumerate_weights(4):
        if lam == "" or lam.endswith("b"):
            # 0 -> S_lam -> T_{lam b} -> S_{lam b} -> 0
            ok = _d_ses_exact(dmod.named_dmodule("S", lam, field),
                              dmod.named_dmodule("T", lam + "b", field),
                              dmod.named_dmodule("S", lam + "b", field))
            _case(cases, "dmod-ext", f"CorSES-a[{_wfmt(lam)}]", True, ok)
        if lam == "" or lam.endswith("w"):
            # 0 -> T_lam -> T_{lam b} -> S_{lam b} -> 0
            ok = _d_ses_exact(dmod.named_dmodule("T", lam, field),
                              dmod.named_dmodule("T", lam + "b", field),
                              dmod.named_dmodule("S", lam + "b", field))
            _case(cases, "dmod-ext", f"CorSES-b[{_wfmt(lam)}]", True, ok)
        # every simple is a quotient of a tilting module
        g = _full_dmodule_map(dmod.named_dmodule("T", lam + "w", field),
                              dmod.named_dmodule("S", lam, field))
        ok = all(rank(g.component(k), field) ==
                 dmod.named_dmodule("S", lam, field).dim(k)
                 for k in [lam])
        _case(cases, "dmod-ext", f"tilt-quot[{_wfmt(lam)}]", True, ok)
    for lam in enumerate_weights(uniserial_len):
        delta = dmod.named_dmodule("Delta", lam, field)
        want = {}
        for mu in delta.dims:
            steps = dmod.basic_factorization(dmod.dist_hom(lam, mu))
            want.setdefault(len(steps), {})[mu] = 1
        want_layers = [want[i] for i in sorted(want)]
        got = dmod.radical_filtration(delta)
        _case(cases, "dmod-ext", f"uniserial[{_wfmt(lam)}]",
              want_layers, got)
    return cases, {"max_len": max_len, "max_i": max_i,
                   "uniserial_len": uniserial_len}


def _named_matches(value, kind, lam, field):
    """Whether an l_psi value equals the named module (labels may differ)."""
    want = dmod.named_dmodule(kind, lam, field)
    if isinstance(value, tuple):
        got = dmod.named_dmodule(value[0], value[1], field)
        return got == want
    if isinstance(value, dmod.DModule):
        return rep.find_isomorphism(value, want) is not None
    return False


def suite_derived_functors(max_len=4, max_deg=6, psi_i_len=3, field=QQ):
    cases = []
    weights = enumerate_weights(max_len)
    for lam in weights:
        mu, n = _black_decomp(lam)
        fmu = flat(mu)
        # first functor
        want = {} if fmu is None else {n: {fmu: 1}}
        got = derived.l_phi(bmod.named_bmodule("S", lam, field), max_deg)
        _case(cases, "derived-functors", f"LPhi-S[{_wfmt(lam)}]", want, got)
        want = {0: {lam: 1}}
        if fmu is not None:
            want.setdefault(n, {})[fmu] = want.get(n, {}).get(fmu, 0) + 1
        got = derived.l_phi(bmod.named_bmodule("Stan", lam, field), max_deg)
        _case(cases, "derived-functors", f"LPhi-Stan[{_wfmt(lam)}]", want, got)
        got = derived.l_phi(bmod.named_bmodule("Q", lam, field), max_deg)
        _case(cases, "derived-functors", f"LPhi-Q[{_wfmt(lam)}]",
              {0: {lam: 1}}, got)
        got = derived.l_phi(bmod.named_bmodule("Cost", lam, field), max_deg)
        _case(cases, "derived-functors", f"LPhi-Cost[{_wfmt(lam)}]", {}, got)
        # third functor
        got = derived.l_theta(bmod.named_bmodule("S", lam, field), max_deg)
        want = [0] * (max_deg + 1)
        if mu == "":
            want[n] = 1
        _case(cases, "derived-functors", f"LTheta-S[{_wfmt(lam)}]", want, got)
        got = derived.l_theta(bmod.named_bmodule("Stan", lam, field), max_deg)
        _case(cases, "derived-functors", f"LTheta-Stan[{_wfmt(lam)}]",
              want, got)
        for kind in ("Q", "Cost"):
            got = derived.l_theta(bmod.named_bmodule(kind, lam, field),
                                  max_deg)
            _case(cases, "derived-functors", f"LTheta-{kind}[{_wfmt(lam)}]",
                  [0] * (max_deg + 1), got)
        # second functor
        psi_s = derived.l_psi(bmod.named_bmodule("S", lam, field), 3)
        if lam == "":
            _case(cases, "derived-functors", "LPsi-S[e]", True, psi_s == {})
        elif lam.endswith("w"):
            ok = set(psi_s) == {0} and \
                _named_matches(psi_s[0], "Delta", lam[:-1], field)
            _case(cases, "derived-functors", f"LPsi-S[{_wfmt(lam)}]", True, ok)
        else:
            ok = set(psi_s) == {1} and \
                _named_matches(psi_s[1], "Nabla", lam[:-1], field)
            _case(cases, "derived-functors", f"LPsi-S[{_wfmt(lam)}]", True, ok)
        psi_d = derived.l_psi(bmod.named_bmodule("Stan", lam, field), 3)
        ok = set(psi_d) == {0} and _named_matches(psi_d[0], "Nabla", lam, field)
        _case(cases, "derived-functors", f"LPsi-Stan[{_wfmt(lam)}]", True, ok)
        psi_q = derived.l_psi(bmod.named_bmodule("Q", lam, field), 3)
        _case(cases, "derived-functors", f"LPsi-Q[{_wfmt(lam)}]", True,
              psi_q == {})
        # amplitude: no derived value in degrees >= 2 for any of the four
        for kind in ("S", "Stan", "Cost", "Q"):
            psi = derived.l_psi(bmod.named_bmodule(kind, lam, field), 4,
                                identify=False)
            _case(cases, "derived-functors",
                  f"LPsi-amplitude-{kind}[{_wfmt(lam)}]", True,
                  all(k < 2 for k in psi))
    for lam in enumerate_weights(psi_i_len):
        psi = derived.l_psi(bmod.named_bmodule("I", lam, field), 3)
        ok = set(psi) == {1} and _named_matches(psi[1], "T", lam, field)
        _case(cases, "derived-functors", f"LPsi-I[{_wfmt(lam)}]", True, ok)
    return cases, {"max_len": max_len, "max_deg": max_deg,
                   "psi_i_len": psi_i_len}


def _ses_exact(maps):
    """Exactness of 0 -> A -> B -> C -> 0 given (incl, proj) module maps."""
    f, g = maps
    fld = f.src.field
    if not rep.compose(g, f).is_zero():
        return False
    for lam in set(f.src.dims) | set(f.dst.dims) | set(g.dst.dims):
        rf = rank(f.component(lam), fld)
        rg = rank(g.component(lam), fld)
        if rf != f.src.dim(lam) or rg != g.dst.dim(lam):
            return False
        if rf + rg != f.dst.dim(lam):
            return False
    return True


def check_pqi(lam, field=QQ):
    """The short exact sequence P -> Q + Q-flat -> I at a nonempty weight."""
    p = bmod.named_bmodule("P", lam, field)
    q1 = bmod.named_bmodule("Q", lam, field)
    q2 = bmod.named_bmodule("Q", lam[:-1], field)
    i_mod = bmod.named_bmodule("I", lam, field)
    mid, offs = rep.direct_sum([q1, q2], field)
    for f in rep.hom(p, mid):
        if any(rank(f.component(k), field) != p.dim(k) for k in p.dims):
            continue
        c, proj = rep.cokernel(f)
        if c.dims == i_mod.dims and \
                rep.find_isomorphism(c, i_mod) is not None:
            return True
    # single hom basis elements may not be injective; try +-1 combinations
    homs = rep.hom(p, mid)
    for a in range(len(homs)):
        for b in range(a + 1, len(homs)):
            for sign in (field.one, field.neg(field.one)):
                f = homs[a] + homs[b].scale(sign)
                if any(rank(f.component(k), field) != p.dim(k)
                       for k in p.dims):
                    continue
                c, proj = rep.cokernel(f)
                if c.dims == i_mod.dims and \
                        rep.find_isomorphism(c, i_mod) is not None:
                    return True
    return False


def suite_sod(max_len=4, max_i=5, field=QQ):
    cases = []
    weights = enumerate_weights(max_len)
    s_empty = bmod.named_bmodule("S", "", field)
    for lam in weights:
        i_mod = bmod.named_bmodule("I", lam, field)
        res_i = bmod.min_projective_resolution(i_mod, max_i + 1)
        for mu in weights:
            got = bmod._ext_from_resolution(
                res_i, bmod.named_bmodule("Q", mu, field), max_i)
            _case(cases, "sod", f"Ext(I,Q)[{_wfmt(lam)},{_wfmt(mu)}]",
                  [0] * (max_i + 1), got)
        got = bmod._ext_from_resolution(res_i, s_empty, max_i)
        _case(cases, "sod", f"Ext(I,S_e)[{_wfmt(lam)}]",
              [0] * (max_i + 1), got)
        res_q = bmod.min_projective_resolution(
            bmod.named_bmodule("Q", lam, field), max_i + 1)
        got = bmod._ext_from_resolution(res_q, s_empty, max_i)
        _case(cases, "sod", f"Ext(Q,S_e)[{_wfmt(lam)}]",
              [0] * (max_i + 1), got)
    res_s = bmod.min_projective_resolution(s_empty, max_i + 1)
    for lam in weights:
        got = bmod._ext_from_resolution(
            res_s, bmod.named_bmodule("Q", lam, field), max_i)
        _case(cases, "sod", f"Ext(S_e,Q)[{_wfmt(lam)}]",
              [0] * (max_i + 1), got)
    # the two short exact sequences under the unit's filtration
    p_e = bmod.named_bmodule("P", "", field)
    s_w = bmod.named_bmodule("S", "w", field)
    incl = rep.ModuleMap(s_w, p_e, {"w": [[field.one]]}).validate()
    proj = rep.ModuleMap(p_e, s_empty, {"": [[field.one]]}).validate()
    _case(cases, "sod", "3graded-ses1", True, _ses_exact((incl, proj)))
    q_e = bmod.named_bmodule("Q", "", field)
    i_e = bmod.named_bmodule("I", "", field)
    incl = rep.ModuleMap(s_w, q_e, {"w": [[field.one]]}).validate()
    proj = rep.ModuleMap(
        q_e, i_e, {"": [[field.one]], "b": [[field.one]]}).validate()
    _case(cases, "sod", "3graded-ses2", True, _ses_exact((incl, proj)))
    for lam in [w for w in weights if w]:
        _case(cases, "sod", f"PQI[{_wfmt(lam)}]", True, check_pqi(lam, field))
    # generator-level kernels of the three functors
    _case(cases, "sod", "LPhi-kills-S_e", {}, derived.l_phi(s_empty, 4))
    for lam in enumerate_weights(3):
        got = derived.l_phi(bmod.named_bmodule("I", lam, field), 4)
        _case(cases, "sod", f"LPhi-kills-I[{_wfmt(lam)}]", {}, got)
        got = derived.l_theta(bmod.named_bmodule("I", lam, field), 4)
        _case(cases, "sod", f"LTheta-kills-I[{_wfmt(lam)}]", [0] * 5, got)
        got = derived.l_theta(bmod.named_bmodule("Q", lam, field), 4)
        _case(cases, "sod", f"LTheta-kills-Q[{_wfmt(lam)}]", [0] * 5, got)
        psi = derived.l_psi(bmod.named_bmodule("Q", lam, field), 3)
        _case(cases, "sod", f"LPsi-kills-Q[{_wfmt(lam)}]", True, psi == {})
        psi = derived.l_psi(bmod.named_bmodule("I", lam, field), 3)
        ok = set(psi) == {1} and _named_matches(psi[1], "T", lam, field)
        _case(cases, "sod", f"LPsi-I-shift[{_wfmt(lam)}]", True, ok)
    _case(cases, "sod", "LPsi-kills-S_e", True,
          derived.l_psi(s_empty, 3) == {})
    _case(cases, "sod", "LTheta-S_e", [1, 0, 0, 0, 0],
          derived.l_theta(s_empty, 4))
    return cases, {"max_len": max_len, "max_i": max_i}


def suite_kring_iso(gen_len=3, field=QQ):
    cases = []
    for lam in enumerate_weights(gen_len):
        chi_c, chi_d, chi_v = kring.kb_decompose(
            bmod.named_bmodule("Q", lam, field))
        want = (kring.basis_element(kring.KC, lam),
                kring.KElement.make(kring.KD, {}), 0)
        _case(cases, "kring-iso", f"kb-Q[{_wfmt(lam)}]", want,
              (chi_c, chi_d, chi_v))
        chi_c, chi_d, chi_v = kring.kb_decompose(
            bmod.named_bmodule("I", lam, field))
        want = (kring.KElement.make(kring.KC, {}),
                kring.tilting_class(lam).scale(-1), 0)
        _case(cases, "kring-iso", f"kb-I[{_wfmt(lam)}]", want,
              (chi_c, chi_d, chi_v))
    chi = kring.kb_decompose(bmod.named_bmodule("S", "", field))
    want = (kring.KElement.make(kring.KC, {}),
            kring.KElement.make(kring.KD, {}), 1)
    _case(cases, "kring-iso", "kb-S_e", want, chi)

    def triple_sum(parts):
        c = kring.KElement.make(kring.KC, {})
        d = kring.KElement.make(kring.KD, {})
        v = 0
        for sc, (pc, pd, pv) in parts:
            c = c + pc.scale(sc)
            d = d + pd.scale(sc)
            v += sc * pv
        return (c, d, v)

    for lam in [w for w in enumerate_weights(2) if w]:
        kb = kring.kb_decompose
        lhs = kb(bmod.named_bmodule("P", lam, field))
        rhs = triple_sum([
            (1, kb(bmod.named_bmodule("Q", lam, field))),
            (1, kb(bmod.named_bmodule("Q", lam[:-1], field))),
            (-1, kb(bmod.named_bmodule("I", lam, field)))])
        _case(cases, "kring-iso", f"kb-additive-PQI[{_wfmt(lam)}]", rhs, lhs)
    kb = kring.kb_decompose
    lhs = kb(bmod.named_bmodule("P", "", field))
    rhs = triple_sum([(1, kb(bmod.named_bmodule("S", "w", field))),
                      (1, kb(bmod.named_bmodule("S", "", field)))])
    _case(cases, "kring-iso", "kb-additive-3graded1", rhs, lhs)
    lhs = kb(bmod.named_bmodule("Q", "", field))
    rhs = triple_sum([(1, kb(bmod.named_bmodule("S", "w", field))),
                      (1, kb(bmod.named_bmodule("I", "", field)))])
    _case(cases, "kring-iso", "kb-additive-3graded2", rhs, lhs)
    return cases, {"gen_len": gen_len}


def suite_tor(max_part=6, field=QQ):
    cases = []
    for lam in [w for w in enumerate_weights(2) if w]:
        got = bmod.tor_bmod(bmod.named_bmodule("P", lam, field),
                            bmod.named_bmodule("S", "", field), 0)
        _case(cases, "tor", f"P-tensor-S_e[{_wfmt(lam)}]", [0], got)
    whites = [w for w in enumerate_weights(2) if w.endswith("w")]
    for a in whites:
        for b in whites:
            # Group degrees by the affordable weight window: parts at complex
            # degree i+1 reach len(a)+len(b)+i+1, and the composition middles
            # grow exponentially with parts + window.  Degrees sharing a
            # window run in one call.
            total = len(a) + len(b)
            plan = {}  # nu_len -> list of degrees
            for i in (1, 2, 3):
                parts = total + i + 1
                if parts <= 4:
                    nu = 3
                elif parts <= 6:
                    nu = 2
                elif parts <= 7:
                    nu = 1
                else:
                    _skip(cases, f"Tor{i}[{_wfmt(a)},{_wfmt(b)}][window]",
                          f"tensor parts {parts} exceed the part cap")
                    continue
                plan.setdefault(nu, []).append(i)
            ms = bmod.named_bmodule("S", a, field)
            ns = bmod.named_bmodule("S", b, field)
            for nu, degrees in sorted(plan.items(), reverse=True):
                imax = max(degrees)
                dims = bmod.tor_bmod(ms, ns, imax,
                                     max_part=max(max_part, total + imax + 1),
                                     nu_len=nu)
                for i in degrees:
                    _case(cases, "tor",
                          f"Tor{i}[{_wfmt(a)},{_wfmt(b)}][nu<={nu}]",
                          0, dims[i])
    return cases, {"max_part": max_part}


def suite_tilting_hom(window=6, margin=2, field=QQ):
    cases = []
    base_max = window - margin
    for lam in enumerate_weights(base_max):
        t = bmod.truncated_tilting(lam, window, field)
        fails = bmod.standard_filtration_failures(t, max_check_len=window - margin)
        _case(cases, "tilting-hom", f"row-exact[{_wfmt(lam)}@{window}]",
              [], fails)
        td = rep.dual(t)
        fails = bmod.standard_filtration_failures(td, max_check_len=window - margin)
        _case(cases, "tilting-hom", f"col-exact[{_wfmt(lam)}@{window}]",
              [], fails)

    def tilt_pattern(lam, mu):
        if lam == mu:
            return 1
        if len(mu) > len(lam) and mu.startswith(lam):
            tail = mu[len(lam):]
            return int(tail.endswith("b") and is_alternating(tail))
        if len(lam) > len(mu) and lam.startswith(mu):
            tail = lam[len(mu):]
            return int(tail.endswith("w") and is_alternating(tail))
        return 0

    mods = {lam: bmod.truncated_tilting(lam, window, field)
            for lam in enumerate_weights(base_max)}
    skipped = 0
    for lam in enumerate_weights(base_max + 1):
        for mu in enumerate_weights(base_max + 1):
            if len(lam) > base_max or len(mu) > base_max:
                skipped += 1
                continue
            got = len(rep.hom(mods[lam], mods[mu]))
            _case(cases, "tilting-hom", f"homTT[{_wfmt(lam)},{_wfmt(mu)}]",
                  tilt_pattern(lam, mu), got)
    if skipped:
        _skip(cases, "homTT[margin<2]",
              f"{skipped} pairs with margin < {margin} skipped")
    # composite non-vanishing within the margin: the three nonzero hom
    # spaces T_lam -> T_{lam b} -> T_{lam bwb} compose to a nonzero map
    for lam in enumerate_weights(base_max - 3):
        mid, top = lam + "b", lam + "bwb"
        h1 = rep.hom(mods[lam], mods[mid])
        h2 = rep.hom(mods[mid], mods[top])
        if h1 and h2:
            comp = rep.compose(h2[0], h1[0])
            _case(cases, "tilting-hom",
                  f"comp-nonzero[{_wfmt(lam)}->{_wfmt(mid)}->{_wfmt(top)}]",
                  True, not comp.is_zero())
    return cases, {"window": window, "margin": margin}


SUITES = {
    "measures": suite_measures,
    "matrix-examples": suite_matrix_examples,
    "idempotents": suite_idempotents,
    "hom-table": suite_hom_table,
    "schwartz-decomp": suite_schwartz_decomp,
    "degenerate-ideal": suite_degenerate_ideal,
    "tensor-rule": suite_tensor_rule,
    "bmod-ext": suite_bmod_ext,
    "dmod-ext": suite_dmod_ext,
    "tilting-hom": suite_tilting_hom,
    "derived-functors": suite_derived_functors,
    "sod": suite_sod,
    "kring-iso": suite_kring_iso,
    "tor": suite_tor,
}


def run_suite(name, **kwargs):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    t0 = time.perf_counter()
    cases, window = SUITES[name](**kwargs)
    return VerifyReport(name, window, cases, time.perf_counter() - t0)
