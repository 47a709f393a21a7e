from fractions import Fraction

import pytest

from delannoy.acat import (AObject, coords_in_basis, degenerate_quotient_dim,
                           down_map, dual_object, e_lambda, hom_dim,
                           hom_dim_pattern, hom_space, indecomposable,
                           multiplicities, phi_blocks, schwartz_object,
                           tensor_objects, theta_mult, ud_map, up_map, yoneda,
                           zero_object)
from delannoy import rep
from delannoy.bmod import BModule, named_bmodule
from delannoy.fields import QQ
from delannoy.linalg import rank
from delannoy.paths import enumerate_paths
from delannoy.schwartz import (MU1, MU2, PermMatrix, compose, identity, trace,
                               transpose)
from delannoy.weights import dual, enumerate_weights, tensor_summands


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
    assert coords_in_basis(h.scale(Fraction(5)), hs.basis) == [Fraction(5)]


def test_generator_maps():
    for lam in enumerate_weights(2):
        d = down_map(lam)
        u = up_map(lam)
        assert not d.is_zero() and not u.is_zero()
        assert not ud_map(lam).is_zero()
        # generators live between the cut objects
        e_src = e_lambda(lam + "w")
        e_dst = e_lambda(lam)
        assert compose(e_dst, compose(d, e_src, MU2), MU2) == d


def test_generator_relations():
    # the concrete distinguished maps satisfy the presentation relations;
    # this is what makes the formal-to-matrix translation a functor
    for lam in enumerate_weights(2):
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
    assert multiplicities(zero_object()) == {}


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


def test_phi_blocks_of_cut_idempotents():
    for lam in [w for w in enumerate_weights(3) if w]:
        a1, a2, a3, a4 = phi_blocks(e_lambda(lam))
        assert a1 == e_lambda(lam)
        assert a4 == e_lambda(lam[:-1])
        if lam.endswith("b"):
            assert a3.is_zero() and not a2.is_zero()
        else:
            assert a2.is_zero() and not a3.is_zero()
    i2 = identity((2,))
    a1, a2, a3, a4 = phi_blocks(i2)
    assert a1 == i2 and a2.is_zero() and a3.is_zero() and a4 == identity((1,))


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
        m = dual_object(indecomposable(lam))
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
    assert yoneda(zero_object()) == BModule({}, {})
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
