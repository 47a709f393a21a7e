from fractions import Fraction

import pytest

from delannoy import rep
from delannoy.bmod import (BModule, WindowExceeded, ext_bmod, ext_table,
                           gen_kind, has_costandard_filtration,
                           has_standard_filtration, matrix_complex,
                           min_projective_resolution, named_bmodule,
                           projective_cover, top_lifts, tor_bmod,
                           truncated_tilting, standard_filtration_failures)
from delannoy.fields import QQ
from delannoy.linalg import rank
from delannoy.weights import dual, enumerate_weights, is_alternating


def test_named_supports():
    assert named_bmodule("P", "b").dims == {"": 1, "w": 1, "b": 1, "bw": 1}
    assert named_bmodule("P", "w").dims == {"w": 1, "ww": 1}
    assert named_bmodule("S", "bw").dims == {"bw": 1}
    assert named_bmodule("Q", "").dims == {"": 1, "w": 1, "b": 1}
    assert named_bmodule("I", "w").dims == {"w": 1, "wb": 1, "": 1, "b": 1}
    assert named_bmodule("I", "").dims == {"": 1, "b": 1}


def test_q_module_is_uniserial():
    q = named_bmodule("Q", "")
    tops = top_lifts(q)
    assert set(tops) == {"b"}  # top is the black simple
    # socle via duality: the top of the dual is the dual socle
    socle_tops = top_lifts(rep.dual(q))
    assert set(socle_tops) == {"b"}  # dual of Q_e is Q_e; socle S_w


def test_full_module_rejects_bad_support():
    with pytest.raises(ValueError):
        BModule.full({"", "w", "ww"})  # two consecutive ups


def test_truncated_tilting():
    t = truncated_tilting("", 3)
    expected = {""} | {w for w in enumerate_weights(3) if w and is_alternating(w)}
    assert set(t.dims) == expected
    assert truncated_tilting("bw", 2) == named_bmodule("S", "bw")
    with pytest.raises(ValueError):
        truncated_tilting("bw", 1)


def test_dualities():
    for lam in enumerate_weights(2):
        assert rep.dual(named_bmodule("S", lam)) == \
            named_bmodule("S", dual(lam))
        assert rep.dual(named_bmodule("Q", lam)) == \
            named_bmodule("Q", dual(lam))
        assert rep.dual(named_bmodule("Stan", lam)) == \
            named_bmodule("Cost", dual(lam))
        assert rep.dual(named_bmodule("P", lam)) == \
            named_bmodule("I", dual(lam))
        m = named_bmodule("I", lam)
        assert rep.dual(rep.dual(m)) == m


def test_hom_yoneda_property():
    for lam in ["", "w", "b"]:
        p = named_bmodule("P", lam)
        for kind, mu in [("Q", "b"), ("Stan", "w"), ("I", "")]:
            n = named_bmodule(kind, mu)
            assert len(rep.hom(p, n)) == n.dim(lam)


def test_hom_standard_costandard():
    for lam in enumerate_weights(2):
        for mu in enumerate_weights(2):
            d = len(rep.hom(named_bmodule("Stan", lam),
                            named_bmodule("Cost", mu)))
            assert d == (1 if lam == mu else 0), (lam, mu)


def test_end_of_simple():
    assert len(rep.hom(named_bmodule("S", "bw"),
                       named_bmodule("S", "bw"))) == 1


def test_kernel_image_cokernel():
    # the projection P_e = Stan_e -> S_e has kernel S_w
    p = named_bmodule("P", "")
    s = named_bmodule("S", "")
    f = rep.ModuleMap(p, s, {"": [[Fraction(1)]]}).validate()
    k, incl = rep.kernel(f)
    assert k.dims == {"w": 1}
    img, _ = rep.image(f)
    assert img.dims == {"": 1}
    c, proj = rep.cokernel(f)
    assert c.is_zero()
    assert rep.kernel(rep.ModuleMap(p, p, {lam: [[Fraction(1)]]
                                           for lam in p.dims}))[0].is_zero()


def test_cokernel_of_distinguished_projective_map():
    # coker(P_{lam w} -> P_lam) = S_lam for white-ending lam (the standard
    # resolution stage)
    lam = "w"
    src = named_bmodule("P", lam + "w")
    dst = named_bmodule("P", lam)
    homs = rep.hom(src, dst)
    assert len(homs) == 1
    c, proj = rep.cokernel(homs[0])
    assert c == named_bmodule("S", lam)


def test_projective_cover_of_simple():
    symbols, p, cover, _ = projective_cover(named_bmodule("S", "b"))
    assert symbols == ["b"]
    assert p.dims == named_bmodule("P", "b").dims


def test_min_resolution_shapes():
    res = min_projective_resolution(named_bmodule("S", "w"), 3)
    assert res.terms[:4] == [["w"], ["ww"], ["www"], ["wwww"]]
    res.validate()
    res = min_projective_resolution(named_bmodule("Q", "w"), 3)
    assert res.terms[:4] == [["wb"], ["wbw"], ["wbww"], ["wbwww"]]
    res = min_projective_resolution(named_bmodule("Stan", "wbb"), 4)
    assert res.terms == [["wbb"], ["wb"], ["w"], []]


def test_gen_kind():
    assert gen_kind("b", "b") == "id"
    assert gen_kind("bw", "b") == "d"
    assert gen_kind("b", "bb") == "u"
    assert gen_kind("bw", "bb") == "ud"
    assert gen_kind("b", "w") is None


def test_ext_simple_pattern():
    # Ext^i(S_w, S_nu) is 1 exactly at nu = w + w^i
    for i in range(4):
        for nu in enumerate_weights(4):
            want = 1 if nu == "w" + "w" * i else 0
            assert ext_bmod(named_bmodule("S", "w"),
                            named_bmodule("S", nu), i) == want, (i, nu)
    # black tails shift degree: Ext^i(S_{wb}, S_nu)
    tbl = {nu: ext_table(named_bmodule("S", "wb"), named_bmodule("S", nu), 2)
           for nu in enumerate_weights(3)}
    for nu, dims in tbl.items():
        for i, d in enumerate(dims):
            want = 1 if (nu == ("w" if i == 1 else None) or
                         nu == "wb" + "w" * i) else 0
            assert d == want, (nu, i)


def test_ext_injective_vs_q_vanishes():
    for lam in enumerate_weights(2):
        for mu in enumerate_weights(2):
            assert ext_table(named_bmodule("I", lam),
                             named_bmodule("Q", mu), 3) == [0, 0, 0, 0]


def test_ext_zeroth_self():
    for kind in ("S", "Q", "Stan"):
        m = named_bmodule(kind, "b")
        assert ext_bmod(m, m, 0) >= 1


def test_standard_filtrations():
    assert has_standard_filtration(named_bmodule("P", "bb"))
    assert has_standard_filtration(named_bmodule("Stan", "w"))
    assert not has_standard_filtration(named_bmodule("Cost", "b"))
    assert not has_standard_filtration(named_bmodule("S", "w"))
    assert has_standard_filtration(BModule({}, {}))
    assert has_costandard_filtration(named_bmodule("I", "w"))
    assert not has_costandard_filtration(named_bmodule("Stan", "b"))


def test_truncated_tilting_filtration_with_margin():
    t = truncated_tilting("b", 6)
    assert standard_filtration_failures(t, max_check_len=4) == []
    td = rep.dual(t)
    assert standard_filtration_failures(td, max_check_len=4) == []
    # without the margin rule the truncation boundary shows up
    assert standard_filtration_failures(t) != []


def test_direct_sum_offsets():
    a = named_bmodule("S", "b")
    b = named_bmodule("Q", "b")
    s, offs = rep.direct_sum([a, b])
    assert s.dim("b") == 2
    assert offs[0]["b"] == 0 and offs[1]["b"] == 1


def test_find_isomorphism():
    p = named_bmodule("P", "w")
    st = named_bmodule("Stan", "w")
    assert rep.find_isomorphism(p, st) is not None  # P_w literally is Stan_w
    assert rep.find_isomorphism(p, named_bmodule("Q", "w")) is None


def test_matrix_complex_realization():
    res = min_projective_resolution(named_bmodule("S", "w"), 2)
    objects, diffs = matrix_complex(res)
    assert [o.ambient for o in objects] == [(1,), (2,), (3,)]
    assert not diffs[1].is_zero() and not diffs[2].is_zero()


def test_tor_flat_projective():
    # rigid projectives are flat: higher Tor against them vanishes
    dims = tor_bmod(named_bmodule("P", "w"), named_bmodule("Q", "b"), 1,
                    nu_len=2)
    assert dims[1] == 0
    assert dims[0] > 0


def test_tor_kills_unit_simple():
    for lam in ("b", "w"):
        assert tor_bmod(named_bmodule("P", lam),
                        named_bmodule("S", ""), 0) == [0]


def test_tor_window_guard():
    with pytest.raises(WindowExceeded):
        tor_bmod(named_bmodule("S", "ww"), named_bmodule("S", "ww"), 3,
                 max_part=5)
