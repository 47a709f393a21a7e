"""The resolution memo and the offset-indexed Ext cochains.

`min_projective_resolution` keeps one resumable resolution per module in a
bounded memo.  Its results must equal a resolution built from nothing, in
whatever order depths are asked for, must not share state with the caller,
and the memo must stay within its bound.  `_ext_from_resolution` is checked
against its former version, kept verbatim as `oracle_ext_from_resolution`.
"""

import pytest

from delannoy import bmod, rep
from delannoy.bmod import (BModule, _ext_from_resolution, _hom_action,
                           _resolution_memo, min_projective_resolution,
                           named_bmodule)
from delannoy.fields import QQ, PrimeField
from delannoy.linalg import homology_dims, zeros
from delannoy.weights import WeightComplex, enumerate_weights

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
FIELD_IDS = ["QQ", "GF2", "GF3"]
KINDS = ("S", "Stan", "Cost", "Q", "I", "P")
DEPTHS = range(7)


@pytest.fixture(autouse=True)
def cold_memo():
    _resolution_memo.cache_clear()
    yield
    _resolution_memo.cache_clear()


def oracle_resolution(m, max_deg):
    """The resolution loop without a memo: every cover built afresh."""
    terms, diffs = {}, {}
    current, incl = m, None
    for k in range(max_deg + 1):
        symbols, _, cover, offsets = bmod.projective_cover(current)
        if k > 0:
            diffs[-k] = bmod._extract_blocks(symbols, offsets, terms[1 - k],
                                             prev_offsets,
                                             rep.compose(incl, cover))
        terms[-k] = symbols
        if not symbols:
            break
        current, incl = rep.kernel(cover)
        prev_offsets = offsets
    return WeightComplex(terms, diffs, m.field)


def oracle_ext_from_resolution(res, n, imax):
    fld = n.field
    # cochain spaces: C^k = + over symbols mu of n(mu); differentials induced
    # by precomposition with the generator entries
    spaces = []
    for k in range(imax + 2):
        idx = []
        for s, mu in enumerate(res.terms.get(-k, ())):
            idx.extend((s, mu, j) for j in range(n.dim(mu)))
        spaces.append(idx)
    deltas = [None]  # deltas[k]: C^(k-1) -> C^k
    for k in range(imax + 1):
        src, dst = spaces[k], spaces[k + 1]
        mat = zeros(len(dst), len(src), fld)
        for (j, i2), coeff in res.diffs.get(-k - 1, {}).items():
            mu = res.terms[-k - 1][i2]   # row block: symbol in P_{k+1}
            nu = res.terms[-k][j]        # column block: symbol in P_k
            action = _hom_action(n, mu, nu)
            for r in range(n.dim(mu)):
                for c in range(n.dim(nu)):
                    v = action[r][c]
                    if not fld.is_zero(v):
                        ri = dst.index((i2, mu, r))
                        ci = src.index((j, nu, c))
                        mat[ri][ci] = fld.add(mat[ri][ci], fld.mul(coeff, v))
        deltas.append(mat)
    return homology_dims([len(s) for s in spaces], deltas, fld, imax)


def _modules(field):
    return [(kind, lam, named_bmodule(kind, lam, field))
            for kind in KINDS for lam in enumerate_weights(3)]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_memo_equals_a_fresh_resolution_in_any_order(field):
    # S, Stan, Cost, Q, I and P at every weight of length <= 3, depths 0..6
    for kind, lam, m in _modules(field):
        want = [oracle_resolution(m, d) for d in DEPTHS]
        _resolution_memo.cache_clear()
        assert [min_projective_resolution(m, d) for d in DEPTHS] == want, \
            (kind, lam)
        _resolution_memo.cache_clear()
        deep_first = [min_projective_resolution(m, d)
                      for d in reversed(DEPTHS)][::-1]
        assert deep_first == want, (kind, lam)
        for d in DEPTHS:
            _resolution_memo.cache_clear()
            assert min_projective_resolution(m, d) == want[d], (kind, lam, d)


def test_the_empty_last_term_is_kept():
    # Stan_wbb ends after three covers; deeper requests stop there
    m = named_bmodule("Stan", "wbb")
    for d in (3, 6, 4):
        res = min_projective_resolution(m, d)
        assert [res.terms[-k] for k in range(len(res.terms))] == \
            [["wbb"], ["wb"], ["w"], []]
        assert sorted(res.diffs) == [-3, -2, -1] and res.diffs[-3] == {}
    assert _resolution_memo(bmod._module_key(m)).cover is None
    assert min_projective_resolution(named_bmodule("S", "w"), 0).diffs == {}


def test_each_cover_is_built_once(monkeypatch):
    covers = []

    def counting_cover(m):
        covers.append(m)
        return real_cover(m)

    real_cover = bmod.projective_cover
    monkeypatch.setattr(bmod, "projective_cover", counting_cover)
    m = named_bmodule("I", "wb", PrimeField(3))
    for d in (2, 0, 5, 3, 6, 1, 6):
        min_projective_resolution(m, d)
    assert len(covers) == 7
    # a resolution that ends is not covered past its empty term
    m = named_bmodule("Stan", "wbb")
    for d in (6, 2, 8):
        min_projective_resolution(m, d)
    assert len(covers) == 7 + 4


def test_a_returned_complex_does_not_reach_into_the_memo():
    m = named_bmodule("Q", "bw")
    want = oracle_resolution(m, 4)
    res = min_projective_resolution(m, 4)
    res.terms[0].append("ww")
    res.terms[-1] = []
    res.diffs[-1][(7, 7)] = QQ.one
    del res.diffs[-2]
    assert min_projective_resolution(m, 4) == want
    assert min_projective_resolution(m, 2) == oracle_resolution(m, 2)


def test_equal_modules_hit_and_isomorphic_ones_miss():
    min_projective_resolution(named_bmodule("I", "bw"), 3)
    before = _resolution_memo.cache_info()
    min_projective_resolution(named_bmodule("I", "bw"), 3)
    after = _resolution_memo.cache_info()
    assert after.hits == before.hits + 1 and after.misses == before.misses
    # the same support over another field is another module
    for field in FIELDS[1:]:
        res = min_projective_resolution(named_bmodule("I", "bw", field), 3)
        assert res.field == field
        assert all(type(c) is int for d in res.diffs.values()
                   for c in d.values())
    assert _resolution_memo.cache_info().misses == after.misses + 2
    # the same module with one arrow rescaled: isomorphic, not equal
    q = named_bmodule("Q", "w")
    two = QQ.of_int(2)
    arrows = {pair: [[two * x for x in row] for row in mat]
              for pair, mat in q.arrows.items()}
    scaled = BModule(q.dims, arrows, QQ)
    assert scaled != q and rep.find_isomorphism(scaled, q) is not None
    misses = _resolution_memo.cache_info().misses
    got = min_projective_resolution(scaled, 4)
    assert _resolution_memo.cache_info().misses == misses + 1
    assert got.terms == min_projective_resolution(q, 4).terms


def test_the_memo_stays_within_its_bound():
    bound = _resolution_memo.cache_info().maxsize
    assert bound is not None
    weights = enumerate_weights(10)
    assert len(weights) > bound
    for lam in weights:
        min_projective_resolution(named_bmodule("S", lam), 0)
    info = _resolution_memo.cache_info()
    assert info.misses == len(weights)
    assert info.currsize == info.maxsize == bound
    # the oldest entries went first: an early module misses again
    min_projective_resolution(named_bmodule("S", weights[0]), 0)
    assert _resolution_memo.cache_info().misses == len(weights) + 1


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_ext_cochains_against_the_index_oracle(field):
    # every (source, target) pair of `verify bmod-ext` at max_len = 3, plus
    # the simples out to length max_len + max_i, which vanish on every
    # symbol of the shallow sources
    max_len, max_i = 3, 3
    weights = enumerate_weights(max_len)
    targets = [named_bmodule("S", nu, field)
               for nu in enumerate_weights(max_len + max_i)]
    targets += [named_bmodule(kind, nu, field)
                for kind in ("Cost", "Q") for nu in weights]
    checked = vanishing = 0
    for kind in ("S", "Stan", "Cost", "Q", "I"):
        for lam in weights:
            res = min_projective_resolution(named_bmodule(kind, lam, field),
                                            max_i + 1)
            symbols = {mu for syms in res.terms.values() for mu in syms}
            for n in targets:
                assert _ext_from_resolution(res, n, max_i) == \
                    oracle_ext_from_resolution(res, n, max_i), (kind, lam, n)
                checked += 1
                vanishing += not any(n.dim(mu) for mu in symbols)
    assert checked == 5 * 15 * (127 + 30)
    assert vanishing > 0
