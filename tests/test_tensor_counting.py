"""The tensor rule by counting, against the routes it replaced.

`weights.ruffle_counts` counts marked ruffles by a recursion on the last
letters; it must equal the multiset of output weights of `marked_ruffles`.
`acat.multiplicities` solves the hom-pattern system in closed form;
`oracle_multiplicities` is the Fraction `solve` route it replaced, kept here
verbatim (apart from its name) as the oracle.
"""

from collections import Counter

import pytest

from delannoy.acat import (_pattern_inverse, _pattern_sources, hom_dim,
                           indecomposable, multiplicities, tensor_objects)
from delannoy.fields import QQ, PrimeField
from delannoy.linalg import solve
from delannoy.schwartz import MU2
from delannoy.weights import (enumerate_weights, hom_dim_pattern,
                              marked_ruffles, ruffle_counts)


def oracle_multiplicities(x, check=True):
    """The multiset of indecomposable summands of x (weights -> counts).

    Solves, over Q, the linear system pairing the known hom-dimension
    pattern of the indecomposables against the integer dim Hom(x, M_nu), so
    no count wraps modulo the characteristic; with `check`, cross-checks the
    solution against dim Hom(M_nu, x).
    """
    if x.measure != MU2:
        raise ValueError("multiplicities are computed in the second category")
    if not x.ambient:
        return {}
    max_len = max(x.ambient)
    weights = enumerate_weights(max_len)
    f = x.field
    h = [QQ.of_int(hom_dim(x, indecomposable(nu, MU2, f))) for nu in weights]
    rows = [[QQ.of_int(hom_dim_pattern(lam, nu)) for lam in weights]
            for nu in weights]
    sol = solve(rows, h, QQ)
    if sol is None:
        raise ValueError("inconsistent hom system (upstream bug)")
    out = {}
    for lam, c in zip(weights, sol):
        if c:
            if c.denominator != 1:
                raise ValueError("non-integral multiplicity (upstream bug)")
            if c < 0:
                raise ValueError("negative multiplicity (upstream bug)")
            out[lam] = int(c)
    if check:
        for nu in weights:
            expect = sum(out.get(lam, 0) * hom_dim_pattern(nu, lam)
                         for lam in weights)
            got = hom_dim(indecomposable(nu, MU2, f), x)
            if got != expect:
                raise ValueError(f"hom cross-check failed at {nu!r}")
    return out


def _pairs(max_sum):
    return [(lam, mu) for lam in enumerate_weights(max_sum)
            for mu in enumerate_weights(max_sum - len(lam))]


@pytest.mark.parametrize("restricted", [False, True])
def test_counts_match_marked_ruffles(restricted):
    for lam, mu in _pairs(6):
        want = Counter(w for _, w in marked_ruffles(lam, mu, restricted))
        assert dict(ruffle_counts(lam, mu, restricted)) == want, (lam, mu)


@pytest.mark.parametrize("max_len", range(8))
def test_closed_form_inverts_the_pattern(max_len):
    # column mu of A is h(nu) = hom_dim_pattern(mu, nu); B A = I means the
    # closed form sends it to the unit vector at mu
    weights = enumerate_weights(max_len)
    for mu in weights:
        column = {nu: hom_dim_pattern(mu, nu) for nu in weights}
        c = _pattern_inverse(column, max_len)
        assert c == {lam: int(lam == mu) for lam in weights}, mu


@pytest.mark.parametrize("max_len", range(6))
def test_pattern_sources_are_the_rows(max_len):
    weights = enumerate_weights(max_len)
    for nu in weights:
        assert sorted(_pattern_sources(nu, max_len)) == sorted(
            lam for lam in weights if hom_dim_pattern(lam, nu))


TENSOR_RULE_PAIRS = _pairs(3)  # the matrix cases of `verify tensor-rule`


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3),
                                   PrimeField(46337)], ids=str)
def test_multiplicities_match_fraction_solve(field):
    for a, b in TENSOR_RULE_PAIRS:
        x = tensor_objects(indecomposable(a, MU2, field),
                           indecomposable(b, MU2, field))
        assert multiplicities(x) == oracle_multiplicities(x), (a, b)


def test_unsolved_system_raises(monkeypatch):
    import delannoy.acat as acat
    monkeypatch.setattr(acat, "_pattern_inverse",
                        lambda h, max_len: dict.fromkeys(h, 1))
    with pytest.raises(ValueError, match="not solved"):
        multiplicities(indecomposable("b"))
