from math import comb

import pytest

from delannoy.bmod import named_bmodule
from delannoy.kring import (KA, KC, KD, KElement, _back_substitute,
                            basis_element, i_inverse, i_map, j_map,
                            kb_decompose, mult, phi_map, tilting_class)
from delannoy.weights import enumerate_weights


def phi_inverse(x):
    """KC -> KA by unitriangular back-substitution, longest weight first."""
    assert x.ring == KC
    return _back_substitute(x, phi_map)


def schwartz_class_kc(n):
    """[C(R^(n))] in KC: simples with binomial multiplicities."""
    return KElement.make(KC, {lam: comb(n, len(lam))
                              for lam in enumerate_weights(n)})


def test_product_examples():
    lb, lw = basis_element(KC, "b"), basis_element(KC, "w")
    assert mult(lb, lw).as_dict() == {"": 1, "b": 1, "w": 1, "bw": 1, "wb": 1}
    mb, mw = basis_element(KA, "b"), basis_element(KA, "w")
    assert mult(mb, mw).as_dict() == {"b": 1, "w": 1, "bw": 1, "wb": 1}
    for ring in (KC, KA, KD):
        x = basis_element(ring, "bw")
        assert mult(basis_element(ring, ""), x) == x


def test_ring_tag_mismatch():
    with pytest.raises(ValueError):
        mult(basis_element(KC, "b"), basis_element(KA, "b"))


def test_phi_and_inverse():
    assert phi_map(basis_element(KA, "b")).as_dict() == {"": 1, "b": 1}
    assert phi_map(basis_element(KA, "")).as_dict() == {"": 1}
    for lam in enumerate_weights(3):
        x = basis_element(KA, lam)
        assert phi_inverse(phi_map(x)) == x


def test_i_and_inverse():
    assert i_map(basis_element(KA, "b")) == tilting_class("b")
    assert tilting_class("b").as_dict() == {"": 1, "b": 1}
    for lam in enumerate_weights(3):
        x = basis_element(KA, lam)
        assert i_inverse(i_map(x)) == x


def test_j_map():
    assert j_map(tilting_class("b")).as_dict() == {"": 1, "b": 1}
    # j = phi o i^-1 on a non-basis element
    d = tilting_class("bw") + tilting_class("w").scale(2)
    assert j_map(d) == phi_map(i_inverse(d))


@pytest.mark.parametrize("total", [4])
def test_ring_homomorphisms(total):
    for a in enumerate_weights(total):
        for b in enumerate_weights(total - len(a)):
            xa, xb = basis_element(KA, a), basis_element(KA, b)
            prod = mult(xa, xb)
            assert phi_map(prod) == mult(phi_map(xa), phi_map(xb))
            assert i_map(prod) == mult(i_map(xa), i_map(xb))
            da, db = i_map(xa), i_map(xb)
            assert j_map(mult(da, db)) == mult(j_map(da), j_map(db))


def test_schwartz_decomposition_identity():
    # the class of the big object expands with first-column binomials,
    # mirroring the Pascal-rule proof route
    for n in range(1, 6):
        lhs = phi_inverse(schwartz_class_kc(n) + schwartz_class_kc(n - 1))
        rhs = KElement.make(KA, {lam: comb(n - 1, len(lam) - 1)
                                 for lam in enumerate_weights(n) if lam})
        assert lhs == rhs, n


def test_kb_decompose_generators():
    for lam in enumerate_weights(2):
        chi_c, chi_d, chi_v = kb_decompose(named_bmodule("Q", lam))
        assert chi_c == basis_element(KC, lam)
        assert chi_d.is_zero() and chi_v == 0
        chi_c, chi_d, chi_v = kb_decompose(named_bmodule("I", lam))
        assert chi_c.is_zero() and chi_v == 0
        assert chi_d == tilting_class(lam).scale(-1)
    chi_c, chi_d, chi_v = kb_decompose(named_bmodule("S", ""))
    assert chi_c.is_zero() and chi_d.is_zero() and chi_v == 1


def test_kb_additivity_on_pqi():
    def add(t1, t2):
        return (t1[0] + t2[0], t1[1] + t2[1], t1[2] + t2[2])

    for lam in ("b", "w"):
        lhs = kb_decompose(named_bmodule("P", lam))
        q1 = kb_decompose(named_bmodule("Q", lam))
        q2 = kb_decompose(named_bmodule("Q", ""))
        i1 = kb_decompose(named_bmodule("I", lam))
        rhs = add(q1, q2)
        rhs = (rhs[0] - i1[0], rhs[1] - i1[1], rhs[2] - i1[2])
        assert lhs == rhs


def test_multiplicativity_matches_matrix_level():
    from delannoy.acat import indecomposable, multiplicities, tensor_objects
    for a in ("b", "w"):
        for b in ("b", "w", "bw"):
            x = tensor_objects(indecomposable(a), indecomposable(b))
            prod = mult(basis_element(KA, a), basis_element(KA, b))
            assert multiplicities(x) == prod.as_dict(), (a, b)
