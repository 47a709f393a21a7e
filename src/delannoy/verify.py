"""Named verification suites reproducing the computable tables and identities.

Each suite returns a VerifyReport whose cases carry pass/fail/inconclusive.
Inconclusive only arises from truncation-margin or window rules, never from a
failed computation; any fail carries a reproducer command.  A suite that
raises is reported as one failed case naming the exception.  A finished
report is written as JSON by `VerifyReport.json_pieces`, a bounded batch of
cases at a time, so no whole-report dict or string is ever built.
"""

import json
import os
import time
import traceback
from dataclasses import dataclass
from math import comb

from . import acat, bmod, derived, dmod, kring, rep
from .fields import QQ
from .linalg import rank
from .paths import delannoy
from .schwartz import (MEASURES, MU1, MU2, MU3, MU4, UNBOUNDED_ABOVE,
                       UNBOUNDED_BELOW, PermMatrix, compose, gap_measure,
                       identity, trace, transpose)
from .weights import (black_tail, enumerate_weights, flat, format_weight,
                      hom_dim_pattern, ruffle_counts, sort_key)


@dataclass(slots=True)
class Case:
    id: str
    status: str              # pass | fail | inconclusive
    expected: object
    actual: object
    repro: str = ""


_BATCH = 512  # cases per piece of `VerifyReport.json_pieces`


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
    def counts(self):
        return {"pass": sum(c.status == "pass" for c in self.cases),
                "fail": len(self.failed),
                "inconclusive": len(self.inconclusive)}

    @property
    def ok(self):
        return not self.failed

    def json_pieces(self):
        """The report as JSON text, in pieces of at most `_BATCH` cases.

        Joined, the pieces are `json.dumps(d, sort_keys=True)` for d the
        report as one dict of "cases" (one dict per case, its values written
        by repr), "counts", "elapsed_s", "schema", "suite" and "window".
        Sorted keys put "cases" first, so the writer opens the case list,
        encodes one batch of case dicts at a time (list brackets stripped,
        batches joined by ", ") and closes with the encoded trailer minus its
        opening brace.  Only one batch is ever held as dicts and text, never
        the whole report.
        """
        enc = json.JSONEncoder(sort_keys=True)
        yield '{"cases": ['
        for lo in range(0, len(self.cases), _BATCH):
            batch = [{"id": c.id, "status": c.status,
                      "expected": repr(c.expected), "actual": repr(c.actual),
                      **({"repro": c.repro} if c.repro else {})}
                     for c in self.cases[lo:lo + _BATCH]]
            yield (", " if lo else "") + enc.encode(batch)[1:-1]
        yield "], " + enc.encode({"counts": self.counts,
                                  "elapsed_s": round(self.elapsed, 3),
                                  "schema": 1, "suite": self.suite,
                                  "window": self.window})[1:]


def _case(cases, cid, expected, actual):
    cases.append(Case(cid, "pass" if expected == actual else "fail",
                      expected, actual))


def _skip(cases, cid, note):
    cases.append(Case(cid, "inconclusive", note, None))


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------

def suite_measures(field=QQ):
    cases = []
    below = tuple(gap_measure(mu, UNBOUNDED_BELOW, 1) for mu in MEASURES)
    above = tuple(gap_measure(mu, UNBOUNDED_ABOVE, 1) for mu in MEASURES)
    _case(cases, "p21-fiber", (-1, -1, 0, 0), below)
    _case(cases, "p22-fiber", (-1, 0, -1, 0), above)
    return cases, {}


def suite_matrix_examples(field=QQ):
    cases = []
    a = PermMatrix((1,), (1,), {(0, 0, "UR"): field.one, (0, 0, "D"): field.one},
                   field)
    b = transpose(a)
    one = identity((1,), field)
    for mu in MEASURES:
        _case(cases, f"A^2=A[mu{mu}]", True,
              compose(a, a, mu) == a)
        _case(cases, f"B^2=B[mu{mu}]", True,
              compose(b, b, mu) == b)
    for mu in (MU1, MU3):
        _case(cases, f"AB=0[mu{mu}]", True,
              compose(a, b, mu).is_zero())
    for mu in (MU2, MU4):
        _case(cases, f"AB=A+B-1[mu{mu}]", True,
              compose(a, b, mu) == a + b - one)
    for mu in (MU1, MU2):
        _case(cases, f"BA=0[mu{mu}]", True,
              compose(b, a, mu).is_zero())
    for mu in (MU3, MU4):
        _case(cases, f"BA=A+B-1[mu{mu}]", True,
              compose(b, a, mu) == a + b - one)
    return cases, {}


def suite_idempotents(max_len=4, field=QQ):
    cases = []
    for lam in enumerate_weights(max_len):
        e = acat.e_lambda(lam, field)
        _case(cases, f"E^2=E[{format_weight(lam)},mu1]", True,
              compose(e, e, MU1) == e)
        _case(cases, f"E^2=E[{format_weight(lam)},mu2]", True,
              compose(e, e, MU2) == e)
    for lam in enumerate_weights(max_len):
        m = acat.indecomposable(lam, MU2, field)
        _case(cases, f"dimEnd[{format_weight(lam)}]", 1,
              acat.hom_dim(m, m))
        e = acat.e_lambda(lam, field)
        if lam:
            _case(cases, f"trace-mu2[{format_weight(lam)}]",
                  field.zero, trace(e, MU2))
        _case(cases, f"trace-mu1[{format_weight(lam)}]",
              field.of_int((-1) ** len(lam)), trace(e, MU1))
    return cases, {"max_len": max_len}


def suite_hom_table(max_len=3, field=QQ):
    cases = []
    for a in enumerate_weights(max_len):
        for b in enumerate_weights(max_len):
            got = acat.hom_dim(acat.indecomposable(a, MU2, field),
                               acat.indecomposable(b, MU2, field))
            _case(cases, f"hom[{format_weight(a)},{format_weight(b)}]",
                  acat.hom_dim_pattern(a, b), got)
    for lam in enumerate_weights(max_len - 1):
        _case(cases, f"ud-nonzero[{format_weight(lam)}]", True,
              not acat.ud_map(lam, field).is_zero())
    return cases, {"max_len": max_len}


def suite_schwartz_decomp(max_n=4, field=QQ):
    cases = []
    end_dims = {1: 3, 2: 13, 3: 63, 4: 321}  # D(n, n), frozen from enumeration
    for n in range(1, max_n + 1):
        x = acat.schwartz_object(n, MU2, field)
        expected = {lam: comb(n - 1, len(lam) - 1)
                    for lam in enumerate_weights(n) if lam}
        _case(cases, f"mult[n={n}]", expected,
              acat.multiplicities(x))
        _case(cases, f"dimEnd[n={n}]",
              end_dims.get(n, delannoy(n, n)), acat.hom_dim(x, x))
    return cases, {"max_n": max_n}


def suite_degenerate_ideal(max_n=4, field=QQ):
    cases = []
    for n in range(1, max_n + 1):
        _case(cases, f"quotient[n={n}]", 2 ** n,
              acat.degenerate_quotient_dim(n, MU2, field))
    return cases, {"max_n": max_n}


# The tensor-rule window: the weight-length sum of the matrix-level
# decompositions and of the K-ring checks.
TENSOR_MAX_SUM, KRING_MAX_SUM = 3, 6


def suite_tensor_rule(field=QQ):
    cases = []
    for a in enumerate_weights(TENSOR_MAX_SUM):
        for b in enumerate_weights(TENSOR_MAX_SUM - len(a)):
            x = acat.tensor_objects(acat.indecomposable(a, MU2, field),
                                    acat.indecomposable(b, MU2, field))
            counts = ruffle_counts(a, b, True)
            _case(cases, f"matrix[{format_weight(a)},{format_weight(b)}]",
                  {w: counts[w] for w in sorted(counts, key=sort_key)},
                  acat.multiplicities(x))
    for a in enumerate_weights(KRING_MAX_SUM):
        for b in enumerate_weights(KRING_MAX_SUM - len(a)):
            xa = kring.basis_element(kring.KA, a)
            xb = kring.basis_element(kring.KA, b)
            lhs = kring.phi_map(kring.mult(xa, xb))
            rhs = kring.mult(kring.phi_map(xa), kring.phi_map(xb))
            _case(cases, f"phi-hom[{format_weight(a)},{format_weight(b)}]",
                  True, lhs == rhs)
    return cases, {"max_sum": TENSOR_MAX_SUM, "kring_sum": KRING_MAX_SUM}


def suite_bmod_ext(max_len=5, max_i=5, field=QQ):
    cases = []
    weights = enumerate_weights(max_len)
    targets = enumerate_weights(max_len + max_i)

    def run_table(kind_m, cid, expected_fn, sources=None):
        ns = [(nu, bmod.named_bmodule(nu_kind, nu, field))
              for nu_kind, nu in targets_for(cid)]
        for lam in (sources if sources is not None else weights):
            m = bmod.named_bmodule(kind_m, lam, field)
            res = bmod.min_projective_resolution(m, max_i + 1)
            # Hom(P_mu, n) = n(mu): a target vanishing on every symbol of the
            # resolution has a zero cochain complex
            symbols = {mu for k in range(max_i + 2)
                       for mu in res.terms.get(-k, ())}
            for nu, n in ns:
                got = [0] * (max_i + 1) if symbols.isdisjoint(n.dims) \
                    else bmod._ext_from_resolution(res, n, max_i)
                want = [expected_fn(lam, nu, i) for i in range(max_i + 1)]
                _case(cases, f"{cid}[{format_weight(lam)},{format_weight(nu)}]",
                      want, got)

    def targets_for(cid):
        if cid in ("ExtB-a", "ExtB-b", "B-ext-f"):
            return [("S" if cid != "B-ext-f" else "Cost", nu) for nu in
                    (targets if cid != "B-ext-f" else weights)]
        return [("Q", nu) for nu in weights]

    mu_n = {lam: black_tail(lam) for lam in targets}

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
        _case(cases, f"B-ext-e[{format_weight(lam)}]",
              [0] * (max_i + 1), got)
    # the standard/costandard pairing: delta(lam,mu) at i=0 (the printed
    # index in the source table is off by one flat; see the ledger)
    run_table("Stan", "B-ext-f",
              lambda lam, nu, i: 1 if (i == 0 and lam == nu) else 0)
    # resolution shapes, as symbol lists by homological degree
    def shape(kind, lam, max_deg):
        res = bmod.min_projective_resolution(
            bmod.named_bmodule(kind, lam, field), max_deg)
        return [res.terms[-k] for k in range(len(res.terms))]

    for lam in weights:
        if lam == "" or lam.endswith("w"):
            _case(cases, f"resLD[{format_weight(lam)}]",
                  [[lam + "w" * k] for k in range(4)], shape("S", lam, 3)[:4])
        _case(cases, f"resQP[{format_weight(lam)}]",
              [[lam + "b" + "w" * k] for k in range(4)], shape("Q", lam, 3)[:4])
        mu, n = black_tail(lam)
        want = [[mu + "b" * (n - k)] for k in range(n + 1)] + [[]]
        _case(cases, f"resDP[{format_weight(lam)}]", want,
              shape("Stan", lam, n + 1)[:n + 2])
    return cases, {"max_len": max_len, "max_i": max_i}


def _d_ses_exact(sub, mid, quot):
    """0 -> sub -> mid -> quot -> 0 with common-support maps, pointwise."""
    return _ses_exact((rep.full_map(sub, mid), rep.full_map(mid, quot)))


def suite_dmod_ext(max_len=4, max_i=4, uniserial_len=5, field=QQ):
    cases = []
    weights = enumerate_weights(max_len)
    cx_delta = {lam: dmod.tilting_complex("Delta", lam, field)
                for lam in weights}
    cx_nabla = {lam: dmod.tilting_complex("Nabla", lam, field)
                for lam in weights}
    cx_s = {lam: dmod.tilting_complex("S", lam, field)
            for lam in enumerate_weights(max_len + 2)}
    for lam in weights:
        for mu in weights:
            got = [dmod.homotopy_hom_dim(cx_delta[lam], cx_nabla[mu], i)
                   for i in range(max_i + 1)]
            want = [1 if (i == 0 and lam == mu) else 0
                    for i in range(max_i + 1)]
            _case(cases, f"HomExt[{format_weight(lam)},{format_weight(mu)}]",
                  want, got)
    for lam in weights:
        arrows = {mu for mu in dmod.basic_targets(lam)
                  if len(mu) <= max_len + 2}
        got = {mu for mu, cx in cx_s.items()
               if dmod.homotopy_hom_dim(cx_s[lam], cx, 1) == 1}
        _case(cases, f"Ext1-quiver[{format_weight(lam)}]",
              sorted(arrows, key=sort_key), sorted(got, key=sort_key))
    tilt = {lam: dmod.named_dmodule("T", lam, field) for lam in weights}
    for lam in weights:
        for mu in weights:
            got = len(rep.hom(tilt[lam], tilt[mu]))
            _case(cases, f"homT[{format_weight(lam)},{format_weight(mu)}]",
                  hom_dim_pattern(lam, mu), got)
    for lam in enumerate_weights(max_len - 1):
        comp = rep.compose(dmod.tilting_map(lam, lam + "b", field),
                                  dmod.tilting_map(lam + "w", lam, field))
        want = dmod.tilting_map(lam + "w", lam + "b", field)
        _case(cases, f"ud-composite[{format_weight(lam)}]", True,
              not comp.is_zero() and comp.comps == want.comps)
    for lam in enumerate_weights(5):
        if lam.endswith("w"):  # 0 -> S_lam -> Nabla_lam -> Delta_flat -> 0
            ok = _d_ses_exact(dmod.named_dmodule("S", lam, field),
                              dmod.named_dmodule("Nabla", lam, field),
                              dmod.named_dmodule("Delta", lam[:-1], field))
            _case(cases, f"D-tilt-a[{format_weight(lam)}]", True, ok)
        if lam.endswith("b"):  # 0 -> Nabla_flat -> Delta_lam -> S_lam -> 0
            ok = _d_ses_exact(dmod.named_dmodule("Nabla", lam[:-1], field),
                              dmod.named_dmodule("Delta", lam, field),
                              dmod.named_dmodule("S", lam, field))
            _case(cases, f"D-tilt-b[{format_weight(lam)}]", True, ok)
    for lam in enumerate_weights(4):
        if lam == "" or lam.endswith("b"):
            # 0 -> S_lam -> T_{lam b} -> S_{lam b} -> 0
            ok = _d_ses_exact(dmod.named_dmodule("S", lam, field),
                              dmod.named_dmodule("T", lam + "b", field),
                              dmod.named_dmodule("S", lam + "b", field))
            _case(cases, f"CorSES-a[{format_weight(lam)}]", True, ok)
        if lam == "" or lam.endswith("w"):
            # 0 -> T_lam -> T_{lam b} -> S_{lam b} -> 0
            ok = _d_ses_exact(dmod.named_dmodule("T", lam, field),
                              dmod.named_dmodule("T", lam + "b", field),
                              dmod.named_dmodule("S", lam + "b", field))
            _case(cases, f"CorSES-b[{format_weight(lam)}]", True, ok)
        # every simple is a quotient of a tilting module
        g = rep.full_map(dmod.named_dmodule("T", lam + "w", field),
                         dmod.named_dmodule("S", lam, field))
        ok = all(rank(g.component(k), field) ==
                 dmod.named_dmodule("S", lam, field).dim(k)
                 for k in [lam])
        _case(cases, f"tilt-quot[{format_weight(lam)}]", True, ok)
    for lam in enumerate_weights(uniserial_len):
        delta = dmod.named_dmodule("Delta", lam, field)
        want = {}
        for mu in delta.dims:
            steps = dmod.basic_factorization(lam, mu)
            want.setdefault(len(steps), {})[mu] = 1
        want_layers = [want[i] for i in sorted(want)]
        got = dmod.radical_filtration(delta)
        _case(cases, f"uniserial[{format_weight(lam)}]",
              want_layers, got)
    return cases, {"max_len": max_len, "max_i": max_i,
                   "uniserial_len": uniserial_len}


def _named_matches(value, kind, lam):
    """Whether an l_psi value is the named module (labels may differ).

    Named modules are full, hence equal exactly when their supports are;
    `identify_named_dmodule` decides exactly, so a value it left unnamed is
    isomorphic to no named module.
    """
    return isinstance(value, tuple) and \
        dmod.named_support(*value) == dmod.named_support(kind, lam)


# The weight length up to which L Psi(I_lam) is checked against T_lam.
PSI_I_LEN = 3


def suite_derived_functors(max_len=4, max_deg=6, field=QQ):
    cases = []
    weights = enumerate_weights(max_len)
    for lam in weights:
        mu, n = black_tail(lam)
        fmu = flat(mu)
        # first functor
        want = {} if fmu is None else {n: {fmu: 1}}
        got = derived.l_phi(bmod.named_bmodule("S", lam, field), max_deg)
        _case(cases, f"LPhi-S[{format_weight(lam)}]", want, got)
        want = {0: {lam: 1}}
        if fmu is not None:
            want.setdefault(n, {})[fmu] = want.get(n, {}).get(fmu, 0) + 1
        got = derived.l_phi(bmod.named_bmodule("Stan", lam, field), max_deg)
        _case(cases, f"LPhi-Stan[{format_weight(lam)}]", want, got)
        got = derived.l_phi(bmod.named_bmodule("Q", lam, field), max_deg)
        _case(cases, f"LPhi-Q[{format_weight(lam)}]",
              {0: {lam: 1}}, got)
        got = derived.l_phi(bmod.named_bmodule("Cost", lam, field), max_deg)
        _case(cases, f"LPhi-Cost[{format_weight(lam)}]", {}, got)
        # third functor
        got = derived.l_theta(bmod.named_bmodule("S", lam, field), max_deg)
        want = [0] * (max_deg + 1)
        if mu == "":
            want[n] = 1
        _case(cases, f"LTheta-S[{format_weight(lam)}]", want, got)
        got = derived.l_theta(bmod.named_bmodule("Stan", lam, field), max_deg)
        _case(cases, f"LTheta-Stan[{format_weight(lam)}]",
              want, got)
        for kind in ("Q", "Cost"):
            got = derived.l_theta(bmod.named_bmodule(kind, lam, field),
                                  max_deg)
            _case(cases, f"LTheta-{kind}[{format_weight(lam)}]",
                  [0] * (max_deg + 1), got)
        # second functor
        psi_s = derived.l_psi(bmod.named_bmodule("S", lam, field), 3)
        if lam == "":
            _case(cases, "LPsi-S[e]", True, psi_s == {})
        elif lam.endswith("w"):
            ok = set(psi_s) == {0} and \
                _named_matches(psi_s[0], "Delta", lam[:-1])
            _case(cases, f"LPsi-S[{format_weight(lam)}]", True, ok)
        else:
            ok = set(psi_s) == {1} and \
                _named_matches(psi_s[1], "Nabla", lam[:-1])
            _case(cases, f"LPsi-S[{format_weight(lam)}]", True, ok)
        psi_d = derived.l_psi(bmod.named_bmodule("Stan", lam, field), 3)
        ok = set(psi_d) == {0} and _named_matches(psi_d[0], "Nabla", lam)
        _case(cases, f"LPsi-Stan[{format_weight(lam)}]", True, ok)
        psi_q = derived.l_psi(bmod.named_bmodule("Q", lam, field), 3)
        _case(cases, f"LPsi-Q[{format_weight(lam)}]", True,
              psi_q == {})
        # amplitude: no derived value in degrees >= 2 for any of the four
        for kind in ("S", "Stan", "Cost", "Q"):
            res = bmod.min_projective_resolution(
                bmod.named_bmodule(kind, lam, field), 5)
            psi = derived.pointwise_homology(res, derived.psi_support, 4)
            _case(cases, f"LPsi-amplitude-{kind}[{format_weight(lam)}]", True,
                  all(k < 2 for k in psi))
    for lam in enumerate_weights(PSI_I_LEN):
        psi = derived.l_psi(bmod.named_bmodule("I", lam, field), 3)
        ok = set(psi) == {1} and _named_matches(psi[1], "T", lam)
        _case(cases, f"LPsi-I[{format_weight(lam)}]", True, ok)
    return cases, {"max_len": max_len, "max_deg": max_deg,
                   "psi_i_len": PSI_I_LEN}


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
    """The short exact sequence P -> Q + Q-flat -> I at a nonempty weight:
    the identity into each summand, then the first summand minus the second,
    on common weights."""
    p = bmod.named_bmodule("P", lam, field)
    qs = [bmod.named_bmodule("Q", mu, field) for mu in (lam, lam[:-1])]
    i_mod = bmod.named_bmodule("I", lam, field)
    mid, offs = rep.direct_sum(qs, field)
    into, onto = {}, {}
    for kappa, d in mid.dims.items():
        col, row = [field.zero] * d, [field.zero] * d
        for off, sign in zip(offs, (field.one, field.neg(field.one))):
            if kappa in off:
                col[off[kappa]], row[off[kappa]] = field.one, sign
        if kappa in p.dims:
            into[kappa] = [[x] for x in col]
        if kappa in i_mod.dims:
            onto[kappa] = [row]
    return _ses_exact((rep.ModuleMap(p, mid, into).validate(),
                       rep.ModuleMap(mid, i_mod, onto).validate()))


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
            _case(cases, f"Ext(I,Q)[{format_weight(lam)},{format_weight(mu)}]",
                  [0] * (max_i + 1), got)
        got = bmod._ext_from_resolution(res_i, s_empty, max_i)
        _case(cases, f"Ext(I,S_e)[{format_weight(lam)}]",
              [0] * (max_i + 1), got)
        res_q = bmod.min_projective_resolution(
            bmod.named_bmodule("Q", lam, field), max_i + 1)
        got = bmod._ext_from_resolution(res_q, s_empty, max_i)
        _case(cases, f"Ext(Q,S_e)[{format_weight(lam)}]",
              [0] * (max_i + 1), got)
    res_s = bmod.min_projective_resolution(s_empty, max_i + 1)
    for lam in weights:
        got = bmod._ext_from_resolution(
            res_s, bmod.named_bmodule("Q", lam, field), max_i)
        _case(cases, f"Ext(S_e,Q)[{format_weight(lam)}]",
              [0] * (max_i + 1), got)
    # the two short exact sequences under the unit's filtration
    p_e = bmod.named_bmodule("P", "", field)
    s_w = bmod.named_bmodule("S", "w", field)
    _case(cases, "3graded-ses1", True, _ses_exact(
        (rep.full_map(s_w, p_e), rep.full_map(p_e, s_empty))))
    q_e = bmod.named_bmodule("Q", "", field)
    i_e = bmod.named_bmodule("I", "", field)
    _case(cases, "3graded-ses2", True, _ses_exact(
        (rep.full_map(s_w, q_e), rep.full_map(q_e, i_e))))
    for lam in [w for w in weights if w]:
        _case(cases, f"PQI[{format_weight(lam)}]", True, check_pqi(lam, field))
    # generator-level kernels of the three functors
    _case(cases, "LPhi-kills-S_e", {}, derived.l_phi(s_empty, 4))
    for lam in enumerate_weights(3):
        got = derived.l_phi(bmod.named_bmodule("I", lam, field), 4)
        _case(cases, f"LPhi-kills-I[{format_weight(lam)}]", {}, got)
        got = derived.l_theta(bmod.named_bmodule("I", lam, field), 4)
        _case(cases, f"LTheta-kills-I[{format_weight(lam)}]", [0] * 5, got)
        got = derived.l_theta(bmod.named_bmodule("Q", lam, field), 4)
        _case(cases, f"LTheta-kills-Q[{format_weight(lam)}]", [0] * 5, got)
        psi = derived.l_psi(bmod.named_bmodule("Q", lam, field), 3)
        _case(cases, f"LPsi-kills-Q[{format_weight(lam)}]", True, psi == {})
        psi = derived.l_psi(bmod.named_bmodule("I", lam, field), 3)
        ok = set(psi) == {1} and _named_matches(psi[1], "T", lam)
        _case(cases, f"LPsi-I-shift[{format_weight(lam)}]", True, ok)
    _case(cases, "LPsi-kills-S_e", True,
          derived.l_psi(s_empty, 3) == {})
    _case(cases, "LTheta-S_e", [1, 0, 0, 0, 0],
          derived.l_theta(s_empty, 4))
    return cases, {"max_len": max_len, "max_i": max_i}


# The weight length of the generators Q_lam and I_lam decomposed in K_b.
KRING_GEN_LEN = 3


def suite_kring_iso(field=QQ):
    cases = []
    for lam in enumerate_weights(KRING_GEN_LEN):
        chi_c, chi_d, chi_v = kring.kb_decompose(
            bmod.named_bmodule("Q", lam, field))
        want = (kring.basis_element(kring.KC, lam),
                kring.KElement.make(kring.KD, {}), 0)
        _case(cases, f"kb-Q[{format_weight(lam)}]", want,
              (chi_c, chi_d, chi_v))
        chi_c, chi_d, chi_v = kring.kb_decompose(
            bmod.named_bmodule("I", lam, field))
        want = (kring.KElement.make(kring.KC, {}),
                kring.tilting_class(lam).scale(-1), 0)
        _case(cases, f"kb-I[{format_weight(lam)}]", want,
              (chi_c, chi_d, chi_v))
    chi = kring.kb_decompose(bmod.named_bmodule("S", "", field))
    want = (kring.KElement.make(kring.KC, {}),
            kring.KElement.make(kring.KD, {}), 1)
    _case(cases, "kb-S_e", want, chi)

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
        _case(cases, f"kb-additive-PQI[{format_weight(lam)}]", rhs, lhs)
    kb = kring.kb_decompose
    lhs = kb(bmod.named_bmodule("P", "", field))
    rhs = triple_sum([(1, kb(bmod.named_bmodule("S", "w", field))),
                      (1, kb(bmod.named_bmodule("S", "", field)))])
    _case(cases, "kb-additive-3graded1", rhs, lhs)
    lhs = kb(bmod.named_bmodule("Q", "", field))
    rhs = triple_sum([(1, kb(bmod.named_bmodule("S", "w", field))),
                      (1, kb(bmod.named_bmodule("I", "", field)))])
    _case(cases, "kb-additive-3graded2", rhs, lhs)
    return cases, {"gen_len": KRING_GEN_LEN}


# The largest tensor part the Tor plan runs: degrees whose parts go beyond
# it are reported as inconclusive.
TOR_MAX_PART = 7


def suite_tor(field=QQ):
    cases = []
    for lam in [w for w in enumerate_weights(2) if w]:
        got = bmod.tor_bmod(bmod.named_bmodule("P", lam, field),
                            bmod.named_bmodule("S", "", field), 0)
        _case(cases, f"P-tensor-S_e[{format_weight(lam)}]", [0], got)
    whites = [w for w in enumerate_weights(2) if w.endswith("w")]
    for a in whites:
        for b in whites:
            # Group degrees by the affordable weight window: parts at complex
            # degree i+1 reach len(a)+len(b)+i+1, and the composition middles
            # grow exponentially with parts + window.  Degrees sharing a
            # window run in one call.
            total = len(a) + len(b)
            pair = f"{format_weight(a)},{format_weight(b)}"
            plan = {}  # nu_len -> list of degrees
            for i in (1, 2, 3):
                parts = total + i + 1
                if parts <= 4:
                    nu = 3
                elif parts <= 6:
                    nu = 2
                elif parts <= TOR_MAX_PART:
                    nu = 1
                else:
                    _skip(cases, f"Tor{i}[{pair}][window]",
                          f"tensor parts {parts} exceed the part cap")
                    continue
                plan.setdefault(nu, []).append(i)
            ms = bmod.named_bmodule("S", a, field)
            ns = bmod.named_bmodule("S", b, field)
            for nu, degrees in sorted(plan.items(), reverse=True):
                imax = max(degrees)
                dims = bmod.tor_bmod(ms, ns, imax, max_part=TOR_MAX_PART,
                                     nu_len=nu)
                for i in degrees:
                    _case(cases, f"Tor{i}[{pair}][nu<={nu}]", 0, dims[i])
    return cases, {"max_part": TOR_MAX_PART}


# The truncation window of the tiltings and the margin below it inside
# which their checks are exact.
TILTING_WINDOW, TILTING_MARGIN = 6, 2


def suite_tilting_hom(field=QQ):
    window, margin = TILTING_WINDOW, TILTING_MARGIN
    cases = []
    base_max = window - margin
    for lam in enumerate_weights(base_max):
        t = bmod.truncated_tilting(lam, window, field)
        fails = bmod.standard_filtration_failures(t, max_check_len=window - margin)
        _case(cases, f"row-exact[{format_weight(lam)}@{window}]",
              [], fails)
        td = rep.dual(t)
        fails = bmod.standard_filtration_failures(td, max_check_len=window - margin)
        _case(cases, f"col-exact[{format_weight(lam)}@{window}]",
              [], fails)

    mods = {lam: bmod.truncated_tilting(lam, window, field)
            for lam in enumerate_weights(base_max)}
    skipped = 0
    for lam in enumerate_weights(base_max + 1):
        for mu in enumerate_weights(base_max + 1):
            if len(lam) > base_max or len(mu) > base_max:
                skipped += 1
                continue
            got = len(rep.hom(mods[lam], mods[mu]))
            _case(cases, f"homTT[{format_weight(lam)},{format_weight(mu)}]",
                  int(dmod.dist_hom_nonzero(mu, lam)), got)
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
            _case(cases,
                  f"comp-nonzero[{format_weight(lam)}->{format_weight(mid)}"
                  f"->{format_weight(top)}]",
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


def run_suite(name, repro=None, **kwargs):
    """Run one suite; every failed case carries `repro`, the command that
    replays the run (default `delannoy verify <name>`), and over a prime
    field the report's window names the field ("field": "p2")."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    t0 = time.perf_counter()
    try:
        cases, window = SUITES[name](**kwargs)
    except Exception as exc:  # a suite that raises is one failed case
        where = traceback.extract_tb(exc.__traceback__)[-1]
        cases = [Case("raised", "fail", "no exception",
                      f"{type(exc).__name__}: {exc} (raised at "
                      f"{os.path.basename(where.filename)}:{where.lineno})")]
        window = {}
    field = kwargs.get("field", QQ)
    if field != QQ:  # a report over a prime field names it
        window = {**window, "field": field.name}
    for c in cases:
        if c.status == "fail":
            c.repro = repro or f"delannoy verify {name}"
    return VerifyReport(name, window, cases, time.perf_counter() - t0)
