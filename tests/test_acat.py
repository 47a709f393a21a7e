import random
from fractions import Fraction

import pytest

from delannoy import acat, rep
from delannoy.acat import (AObject, _apply_cut, _span_keys, coords_in_basis,
                           degenerate_quotient_dim, down_map, e_lambda,
                           hom_dim, hom_dim_pattern, hom_space,
                           indecomposable, multiplicities, schwartz_object,
                           tensor_objects, theta_mult, ud_map, up_map)
from delannoy.bmod import BModule, named_bmodule
from delannoy.fields import QQ, PrimeField
from delannoy.linalg import ModSpan, rank
from delannoy.paths import enumerate_paths
from delannoy.schwartz import (MU1, MU2, PermMatrix, compose, identity, trace,
                               transpose)
from delannoy.weights import dual, enumerate_weights, tensor_summands
from module_oracle import yoneda


def test_e_lambda_basics():
    a = e_lambda("b")
    assert set(k[2] for k in a.entries) == {"D", "UR"}  # the y <= x projector
    assert e_lambda("") == identity((0,))
    assert transpose(e_lambda("bw")) == e_lambda("wb")


@pytest.mark.parametrize("lam", enumerate_weights(3))
def test_e_lambda_idempotent_under_both_measures(lam):
    e = e_lambda(lam)
    assert compose(e, e, MU1) == e
    assert compose(e, e, MU2) == e
    indecomposable(lam).validate()


def test_hom_table_matches_pattern():
    for a in enumerate_weights(2):
        for b in enumerate_weights(2):
            got = hom_dim(indecomposable(a), indecomposable(b))
            assert got == hom_dim_pattern(a, b), (a, b)


def test_hom_examples():
    assert hom_dim(indecomposable(""), indecomposable("b")) == 1
    assert hom_dim(indecomposable("b"), indecomposable("")) == 0
    r = schwartz_object(1)
    assert hom_dim(r, r) == 3


def test_hom_space_basis_and_coords():
    x, y = indecomposable("w"), indecomposable("")
    hs = hom_space(x, y)
    assert hs.dim == 1 == len(hs.basis)
    h = hs.basis[0]
    # basis elements are fixed by the double cut
    cut = compose(y.idem, compose(h, x.idem, MU2), MU2)
    assert cut == h
    assert coords_in_basis(h.scale(Fraction(5)), hs) == [Fraction(5)]


def hom_space_objects(field, measure=MU2):
    """Indecomposables and tensor objects, the sources and targets of the
    hom spaces `yoneda` and `tor_bmod` build."""
    simple = [indecomposable(lam, measure, field)
              for lam in ("", "b", "w", "bw", "wb", "bb")]
    b, w = simple[1], simple[2]
    return simple + [tensor_objects(b, b), tensor_objects(b, w),
                     tensor_objects(w, simple[3])]


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)],
                         ids=repr)
def test_hom_space_basis_is_invertible_on_its_pivots(field):
    objects = hom_space_objects(field)
    for x in objects:
        for y in objects:
            hs = hom_space(x, y)
            assert hs.dim == len(hs.basis) == len(hs.pivots) == hom_dim(x, y)
            minor = [[b.get(*k) for b in hs.basis] for k in hs.pivots]
            assert rank(minor, field) == hs.dim, (x.ambient, y.ambient)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_coords_in_basis_round_trips_and_rejects(field):
    rng = random.Random(11)
    objects = hom_space_objects(field)
    outside = 0
    for x in objects:
        for y in objects:
            hs = hom_space(x, y)
            coeffs = [field.of_int(rng.randint(-3, 3)) for _ in hs.basis]
            h = PermMatrix(x.ambient, y.ambient, {}, field)
            for c, b in zip(coeffs, hs.basis):
                h = h + b.scale(c)
            assert coords_in_basis(h, hs) == coeffs
            # a key matrix the cut moves lies outside the hom space, which
            # is the image of the cut
            for k in _span_keys(x, y):
                key = PermMatrix(x.ambient, y.ambient, {k: field.one}, field)
                if _apply_cut(key, x, y) != key:
                    outside += 1
                    with pytest.raises(ValueError, match="not in span"):
                        coords_in_basis(h + key, hs)
                    break
    assert outside > 0


def test_hom_space_falls_back_after_one_scan(monkeypatch):
    x = indecomposable("bw")
    y = tensor_objects(indecomposable("b"), indecomposable("w"))
    expected = hom_space(x, y)
    assert 0 < expected.dim < len(_span_keys(x, y))
    calls = []

    def counting_compose(b, a, measure):
        calls.append(1)
        return compose(b, a, measure)

    monkeypatch.setattr(acat, "compose", counting_compose)
    monkeypatch.setattr(ModSpan, "insert", lambda self, vec: False)
    with pytest.warns(RuntimeWarning, match="missed dimension"):
        hs = hom_space(x, y)
    assert hs.basis == expected.basis
    minor = [[b.get(*k) for b in hs.basis] for k in hs.pivots]
    assert rank(minor) == hs.dim
    # each key is cut once (two compositions); no key is composed again
    assert len(calls) == 2 * len(_span_keys(x, y))


def _diagonal(x, y):
    return acat._cut_diagonal(x, y, acat._trace_terms(x, y))


def _key_image(k, x, y):
    f = x.field
    return _apply_cut(PermMatrix(x.ambient, y.ambient, {k: f.one}, f), x, y)


# The fields of the hom-space tests under each measure; the ids of the mu2
# cases are the fields' alone.
FIELDS_AND_MEASURES = [
    pytest.param(f, mu, id=repr(f) if mu == MU2 else f"{f!r}-mu1")
    for mu in (MU2, MU1) for f in (QQ, PrimeField(2), PrimeField(3))]


@pytest.mark.parametrize("field, measure", FIELDS_AND_MEASURES)
def test_cut_diagonal_is_the_coefficient_of_each_key_in_its_image(field,
                                                                  measure):
    objects = hom_space_objects(field, measure)
    for x in objects:
        for y in objects:
            diag = _diagonal(x, y)
            assert all(diag.values())
            for k in _span_keys(x, y):
                # an integer over the lifts: equal over Q, congruent over F_p
                want = _key_image(k, x, y).get(*k)
                assert field.of_int(diag.get(k, 0)) == want


@pytest.mark.parametrize("field, measure", FIELDS_AND_MEASURES)
def test_cut_diagonal_sums_to_hom_dim(field, measure):
    objects = hom_space_objects(field, measure)
    for x in objects:
        for y in objects:
            total = sum(_diagonal(x, y).values())
            if field == QQ:
                assert total == hom_dim(x, y)
            else:
                assert total % field.p == hom_dim(x, y) % field.p


def test_cut_diagonal_is_exact_beyond_int64():
    # cuts by 2^40 times an idempotent: every P_kk is 2^80 times the
    # idempotent's, so int64 partial sums would wrap
    big = QQ.of_int(2 ** 40)
    x = indecomposable("bw")
    y = tensor_objects(indecomposable("b"), indecomposable("w"))
    xs, ys = (AObject(MU2, o.ambient, o.idem.scale(big)) for o in (x, y))
    diag, small = _diagonal(xs, ys), _diagonal(x, y)
    assert diag and diag == {k: v * 2 ** 80 for k, v in small.items()}
    for k in _span_keys(x, y):
        assert QQ.of_int(diag.get(k, 0)) == _key_image(k, xs, ys).get(*k)


@pytest.mark.parametrize("lead", ["none", "zero images"])
def test_hom_space_needs_no_diagonal_to_be_complete(monkeypatch, lead):
    objects = hom_space_objects(QQ)
    pairs = [(x, y) for x in objects for y in objects]
    dims = [hom_dim(x, y) for x, y in pairs]
    fake = {(x, y): {} if lead == "none" else {
        k: 1 for k in _span_keys(x, y) if _key_image(k, x, y).is_zero()}
        for x, y in pairs}
    monkeypatch.setattr(acat, "_cut_diagonal",
                        lambda x, y, terms: fake[(x, y)])
    for (x, y), d in zip(pairs, dims):
        hs = hom_space(x, y)
        assert hs.dim == len(hs.basis) == len(hs.pivots) == d
        minor = [[b.get(*k) for b in hs.basis] for k in hs.pivots]
        assert rank(minor) == d
        assert all(_apply_cut(b, x, y) == b for b in hs.basis)


def test_hom_space_composes_only_the_keys_on_the_diagonal(monkeypatch):
    x = indecomposable("bw")
    y = tensor_objects(indecomposable("b"), indecomposable("w"))
    d = hom_dim(x, y)
    assert 0 < d < len(_span_keys(x, y))
    calls = []

    def counting_compose(b, a, measure):
        calls.append(1)
        return compose(b, a, measure)

    monkeypatch.setattr(acat, "compose", counting_compose)
    hs = hom_space(x, y)
    assert hs.dim == d
    # the d keys with P_kk != 0 are cut first and are independent
    assert len(calls) == 2 * d


def test_generator_maps():
    for lam in enumerate_weights(3):
        d = down_map(lam)
        u = up_map(lam)
        ud = ud_map(lam)
        assert not d.is_zero() and not u.is_zero() and not ud.is_zero()
        # generators live between the cut objects
        for g, src, dst in ((d, lam + "w", lam), (u, lam, lam + "b"),
                            (ud, lam + "w", lam + "b")):
            e_src, e_dst = e_lambda(src), e_lambda(dst)
            assert compose(e_dst, compose(g, e_src, MU2), MU2) == g


def test_generator_relations():
    # the concrete distinguished maps satisfy the presentation relations;
    # this is what makes the formal-to-matrix translation a functor
    for lam in enumerate_weights(3):
        assert compose(up_map(lam), down_map(lam), MU2) == ud_map(lam)
        assert compose(down_map(lam), down_map(lam + "w"), MU2).is_zero()
        assert compose(up_map(lam + "b"), up_map(lam), MU2).is_zero()
        assert compose(e_lambda(lam), down_map(lam), MU2) == down_map(lam)
        assert compose(down_map(lam), e_lambda(lam + "w"), MU2) == down_map(lam)
        assert compose(ud_map(lam), down_map(lam + "w"), MU2).is_zero()
        assert compose(up_map(lam + "b"), ud_map(lam), MU2).is_zero()


def test_multiplicities_schwartz():
    assert multiplicities(schwartz_object(1)) == {"b": 1, "w": 1}
    assert multiplicities(schwartz_object(2)) == {
        "b": 1, "w": 1, "bb": 1, "bw": 1, "wb": 1, "ww": 1}
    assert multiplicities(indecomposable("bw")) == {"bw": 1}
    assert multiplicities(AObject(MU2, (), identity(()))) == {}


def test_multiplicities_reject_first_measure():
    with pytest.raises(ValueError):
        multiplicities(schwartz_object(1, MU1))


def test_tensor_rule_small():
    x = tensor_objects(indecomposable("b"), indecomposable("w"))
    assert multiplicities(x) == {"b": 1, "w": 1, "bw": 1, "wb": 1}
    for a, b in [("b", "b"), ("w", "bw")]:
        x = tensor_objects(indecomposable(a), indecomposable(b))
        expected = {}
        for w in tensor_summands(a, b, True):
            expected[w] = expected.get(w, 0) + 1
        assert multiplicities(x) == expected, (a, b)


def test_white_weights_closed_under_tensor():
    for a in ("w", "bw"):
        for b in ("w",):
            x = tensor_objects(indecomposable(a), indecomposable(b))
            assert all(w.endswith("w") for w in multiplicities(x))


def test_unit_not_a_summand():
    x = tensor_objects(indecomposable("b"), indecomposable("w"))
    assert theta_mult(x) == 0
    assert theta_mult(schwartz_object(2)) == 0
    assert theta_mult(indecomposable("")) == 1


def test_traces():
    for lam in enumerate_weights(2):
        e = e_lambda(lam)
        if lam:
            assert trace(e, MU2) == 0
        assert trace(e, MU1) == (-1) ** len(lam)


def test_degenerate_quotient_small():
    assert degenerate_quotient_dim(1) == 2
    assert degenerate_quotient_dim(2) == 4


def test_degenerate_quotient_against_plain_rank_oracle():
    # independent oracle: build the products with compose() and rank them
    # with the plain Fraction elimination
    n = 3
    gammas = list(enumerate_paths(n, n))
    rows = []
    for beta in enumerate_paths(n - 1, n):
        cb = PermMatrix((n - 1,), (n,), {(0, 0, beta): Fraction(1)})
        for alpha in enumerate_paths(n, n - 1):
            ca = PermMatrix((n,), (n - 1,), {(0, 0, alpha): Fraction(1)})
            prod = compose(cb, ca, MU2)
            if not prod.is_zero():
                rows.append([prod.get(0, 0, g) for g in gammas])
    oracle = len(gammas) - rank(rows)
    assert oracle == 8 == degenerate_quotient_dim(3)


def test_transpose_duality():
    for lam in enumerate_weights(2):
        x = indecomposable(lam)
        m = AObject(x.measure, x.ambient, transpose(x.idem))
        assert multiplicities(m) == {dual(lam): 1}


def test_end_dims_first_measure():
    # sum over weights of binom(n, l)^2 equals the path count
    from math import comb
    for n in range(4):
        total = sum(comb(n, len(lam)) ** 2 for lam in enumerate_weights(n))
        c = schwartz_object(n, MU1)
        assert hom_dim(c, c) == total


def test_yoneda_of_projective_generators():
    for lam in enumerate_weights(2):
        y = yoneda(indecomposable(lam))
        p = named_bmodule("P", lam)
        assert y.dims == p.dims
        assert rep.find_isomorphism(y, p) is not None


def test_yoneda_zero_and_window():
    assert yoneda(AObject(MU2, (), identity(()))) == BModule({}, {})
    with pytest.raises(ValueError):
        yoneda(indecomposable("b"), max_len=1)


def test_yoneda_of_tensor_matches_rule():
    x = tensor_objects(indecomposable("b"), indecomposable("w"))
    y = yoneda(x)
    expected = {}
    for w in tensor_summands("b", "w", True):
        p = named_bmodule("P", w)
        for k, d in p.dims.items():
            expected[k] = expected.get(k, 0) + d
    assert y.dims == expected
