"""`acat._cut_diagonal` against the all-pairs oracle on the Tor complexes.

`hom_space` orders its scan by the cut diagonal.  `_cut_diagonal` reads it
only on the part pairs whose trace term is nonzero, as the elementwise
product of two dense sides; `diagonal_oracle.cut_diagonal` reads every
pair by a sorted key-join.  On the summands of the terms Z_k that
`tor_bmod` builds, cut against the indecomposables M_nu of the Tor window,
both give the same lead keys, the values sum to `hom_dim`, and the scan
composes exactly 2d times.  The terms of `tor_bmod(S_w, S_w, 2)` reach
parts of size 5, whose trace tables come from the structure-constant
join.  `hom_space` contracts the trace terms once and hands them to
`_cut_diagonal`; its output on the assembled terms of `tor_oracle` is
pinned by a hash.
"""

import hashlib
import json

import pytest

from delannoy import acat
from delannoy.acat import AObject, hom_dim, hom_space, indecomposable
from delannoy.bmod import (matrix_complex, min_projective_resolution,
                           named_bmodule, tensor_matrix_complexes)
from delannoy.fields import QQ, PrimeField
from delannoy.schwartz import MU2, compose
from delannoy.weights import enumerate_weights
from diagonal_oracle import cut_diagonal
from tor_oracle import tor_objects as assembled_tor_objects

# (m, n, imax) of tor_bmod(P_ww, S_e, 0) and tor_bmod(S_w, S_w, 1)
TOR_CASES = [(("P", "ww"), ("S", ""), 0), (("S", "w"), ("S", "w"), 1)]


def tor_objects(m, n, imax, field):
    """The summands of the terms Z_0, ..., Z_{imax+1} of the tensor complex
    that `tor_bmod` pushes through the Yoneda functor, degree by degree."""
    ca = matrix_complex(min_projective_resolution(
        named_bmodule(*m, field), imax + 1))
    cb = matrix_complex(min_projective_resolution(
        named_bmodule(*n, field), imax + 1))
    return [z for summands, _ in tensor_matrix_complexes(ca, cb, imax + 1)
            for z in summands]


def _engine_diagonal(x, y):
    return acat._cut_diagonal(x, y, acat._trace_terms(x, y))


def _leads(diag, field):
    return {k for k, v in diag.items() if not field.is_zero(field.of_int(v))}


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
@pytest.mark.parametrize("case", TOR_CASES, ids=lambda c: f"{c[0]}{c[1]}")
def test_cut_diagonal_matches_all_pairs_on_tor_terms(monkeypatch, field,
                                                     case):
    calls = []

    def counting_compose(b, a, measure):
        calls.append(1)
        return compose(b, a, measure)

    monkeypatch.setattr(acat, "compose", counting_compose)
    cut = 0
    for z in tor_objects(*case, field):
        for nu in enumerate_weights(3):
            m_nu = indecomposable(nu, MU2, field)
            got = _engine_diagonal(m_nu, z)
            assert _leads(got, field) == _leads(cut_diagonal(m_nu, z), field)
            d = hom_dim(m_nu, z)
            assert field.of_int(sum(got.values())) == field.of_int(d)
            calls.clear()
            hs = hom_space(m_nu, z)
            assert hs.dim == d
            n_keys = len(acat._span_keys(m_nu, z))
            assert len(calls) == (2 * d if 0 < d < n_keys else 0)
            cut += bool(calls)
    assert cut


def test_cut_diagonal_matches_all_pairs_on_parts_of_size_5():
    # the terms of tor_bmod(S_w, S_w, 2) reach parts of size 5, where
    # `_trace_terms` reads its tables off `_trace_join`; every term there is
    # 0 at nu <= 2, so the engine skips those pairs and the oracle, reading
    # every pair, must find no key on them
    zs = tor_objects(("S", "w"), ("S", "w"), 2, QQ)
    assert max(max(z.ambient) for z in zs) == 5
    for z in zs:
        for nu in enumerate_weights(2):
            m_nu = indecomposable(nu, MU2, QQ)
            got = _engine_diagonal(m_nu, z)
            assert _leads(got, QQ) == _leads(cut_diagonal(m_nu, z), QQ)
            assert sum(got.values()) == hom_dim(m_nu, z)


def test_cut_diagonal_values_match_all_pairs_on_scaled_cuts():
    # every lifted coefficient of a Tor summand and of M_nu is 1; scaled cuts
    # put other values on both sides, so the values, not only the lead keys,
    # show that each side weighs the entries of its own block
    three = QQ.of_int(3)
    for z in tor_objects(("S", "w"), ("S", "w"), 1, QQ):
        zs = AObject(MU2, z.ambient, z.idem.scale(three))
        for nu in enumerate_weights(2):
            m_nu = indecomposable(nu, MU2, QQ)
            xs = AObject(MU2, m_nu.ambient, m_nu.idem.scale(QQ.of_int(2)))
            terms = acat._trace_terms(xs, zs)
            want = {k: v for k, v in cut_diagonal(xs, zs).items()
                    if terms[k[:2]]}
            assert acat._cut_diagonal(xs, zs, terms) == want


# sha256 of the canonical JSON of every hom_space(M_nu, Z_k) below (d, pivot
# keys, basis entries), taken while `hom_dim` and `_cut_diagonal` each
# contracted the trace terms themselves.  Z_k is the whole assembled term
# (`tor_oracle.tor_objects`), a many-part object, not one summand.
HOM_SPACES_SHA256 = (
    "237cf9215ee38bf861a7cbb3d4d3e4533af3a3dcace63ca5e5d800d504cc7a89")


def test_hom_space_contracts_the_trace_terms_once(monkeypatch):
    calls = []

    def counting_terms(x, y):
        calls.append(1)
        return trace_terms(x, y)

    trace_terms = acat._trace_terms
    monkeypatch.setattr(acat, "_trace_terms", counting_terms)
    spaces, scanned = {}, 0
    for field in (QQ, PrimeField(3)):
        for case in TOR_CASES:
            rows = []
            m, n, imax = case
            for z in assembled_tor_objects(named_bmodule(*m, field),
                                           named_bmodule(*n, field), imax)[0]:
                for nu in enumerate_weights(3):
                    m_nu = indecomposable(nu, MU2, field)
                    calls.clear()
                    hs = hom_space(m_nu, z)
                    if 0 < hs.dim < len(acat._span_keys(m_nu, z)):
                        assert len(calls) == 1
                        scanned += 1
                    else:
                        assert len(calls) <= 1
                    rows.append([hs.dim, [list(k) for k in hs.pivots],
                                 [sorted((list(k), field.format(v))
                                         for k, v in b.entries.items())
                                  for b in hs.basis]])
            spaces[f"{field!r} {case}"] = rows
    assert scanned
    text = json.dumps(spaces, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == HOM_SPACES_SHA256
