from fractions import Fraction

import pytest

from delannoy import rep
from delannoy.acat import down_map, e_lambda, indecomposable
from delannoy.bmod import (BModule, WindowExceeded, ext_table, gen_kind,
                           has_standard_filtration, matrix_complex,
                           min_projective_resolution, named_bmodule,
                           projective_cover, tensor_matrix_complexes,
                           top_lifts, tor_bmod, truncated_tilting,
                           standard_filtration_failures)
from delannoy.fields import QQ, PrimeField
from delannoy.linalg import rank
from delannoy.schwartz import MU2, identity, tensor
from delannoy.weights import (WeightComplex, dual, enumerate_weights,
                              is_alternating)
from module_oracle import cokernel, image


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
    img, _ = image(f)
    assert img.dims == {"": 1}
    c, proj = cokernel(f)
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
    c, proj = cokernel(homs[0])
    assert c == named_bmodule("S", lam)


def test_projective_cover_of_simple():
    symbols, p, cover, _ = projective_cover(named_bmodule("S", "b"))
    assert symbols == ["b"]
    assert p.dims == named_bmodule("P", "b").dims


def test_min_resolution_shapes():
    # res.terms[d] holds the symbols in degree d = 0, -1, ...
    res = min_projective_resolution(named_bmodule("S", "w"), 3)
    assert [res.terms[-k] for k in range(4)] == [["w"], ["ww"], ["www"],
                                                 ["wwww"]]
    res.validate()
    res = min_projective_resolution(named_bmodule("Q", "w"), 3)
    assert [res.terms[-k] for k in range(4)] == [["wb"], ["wbw"], ["wbww"],
                                                 ["wbwww"]]
    res = min_projective_resolution(named_bmodule("Stan", "wbb"), 4)
    assert [res.terms[-k] for k in range(len(res.terms))] == \
        [["wbb"], ["wb"], ["w"], []]


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
            assert ext_table(named_bmodule("S", "w"),
                             named_bmodule("S", nu), i)[i] == want, (i, nu)
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
        assert ext_table(m, m, 0)[0] >= 1


def test_standard_filtrations():
    assert has_standard_filtration(named_bmodule("P", "bb"))
    assert has_standard_filtration(named_bmodule("Stan", "w"))
    assert not has_standard_filtration(named_bmodule("Cost", "b"))
    assert not has_standard_filtration(named_bmodule("S", "w"))
    assert has_standard_filtration(BModule({}, {}))
    # costandard filtrations: standard ones of the dual
    assert not standard_filtration_failures(rep.dual(named_bmodule("I", "w")))
    assert standard_filtration_failures(rep.dual(named_bmodule("Stan", "b")))


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
    cpx = matrix_complex(res)
    # one interned indecomposable per symbol, and one generator block per
    # entry of the resolution
    assert [res.terms[-k] for k in range(3)] == [["w"], ["ww"], ["www"]]
    for k, (summands, _) in enumerate(cpx):
        assert len(summands) == 1
        assert summands[0] is indecomposable(res.terms[-k][0], MU2, QQ)
    assert not cpx[0][1]
    for k in (1, 2):
        assert [(dst, src) for dst, src, _, _ in cpx[k][1]] == \
            list(res.diffs[-k])
        assert not any(block.is_zero() for _, _, block, _ in cpx[k][1])


def _blocks(blocks, field):
    """The blocks of a differential as comparable, sorted tuples."""
    return sorted((dst, src, m.source, m.target,
                   tuple(sorted(m.entries.items())), field.format(c))
                  for dst, src, m, c in blocks)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_tensor_complex_blocks_are_the_tensors(field):
    # summand (a, i, j) of degree k is x_i (x) y_j, with x_i the i-th
    # summand of degree a of the first factor and y_j the j-th of degree
    # k - a of the second; each block is one factor's generator block
    # tensored with the other factor's identity, signed (-1)^a on the right
    ca = matrix_complex(min_projective_resolution(
        named_bmodule("S", "w", field), 2))
    cb = matrix_complex(min_projective_resolution(
        named_bmodule("Q", "b", field), 2))
    cpx = tensor_matrix_complexes(ca, cb, 2)
    assert len(cpx) == 3
    index = []  # index[k][a, i, j]: the position of summand (a, i, j)
    for k, (summands, blocks) in enumerate(cpx):
        labels = [(a, i, j) for a in range(k + 1)
                  if a < len(ca) and k - a < len(cb)
                  for i in range(len(ca[a][0]))
                  for j in range(len(cb[k - a][0]))]
        index.append({lab: s for s, lab in enumerate(labels)})
        assert len(summands) == len(labels)
        for z, (a, i, j) in zip(summands, labels):
            t = tensor(ca[a][0][i].idem, cb[k - a][0][j].idem)
            assert z.ambient == t.source
            assert list(z.idem.entries.items()) == list(t.entries.items())
        want = []
        for (a, i, j), src in index[k].items() if k else ():
            b = k - a
            for dst, s, block, c in ca[a][1] if a else ():
                if s == i:
                    y = cb[b][0][j]
                    want.append((index[k - 1][a - 1, dst, j], src,
                                 tensor(block, identity(y.ambient, field)), c))
            for dst, s, block, c in cb[b][1] if b else ():
                if s == j:
                    x = ca[a][0][i]
                    want.append((index[k - 1][a, i, dst], src,
                                 tensor(identity(x.ambient, field), block),
                                 field.mul(field.of_int((-1) ** a), c)))
        assert _blocks(blocks, field) == _blocks(want, field)
        assert bool(want) == bool(k)


def test_matrix_complex_refuses_a_differential_that_does_not_square_to_zero():
    # the identity on P_w followed by the generator P_w -> P_e composes to
    # that generator; `validate` would refuse these symbols, and
    # `matrix_complex` checks the concrete maps without it
    res = WeightComplex({0: [""], -1: ["w"], -2: ["w"]},
                        {-1: {(0, 0): 1}, -2: {(0, 0): 1}}, QQ)
    with pytest.raises(AssertionError, match="square to zero"):
        matrix_complex(res)


def test_square_zero_check_sums_the_paths_through_each_middle_summand():
    # P_w -> P_w + P_w -> P_e: the two composites are the generator with
    # coefficients 1 and -1, so d o d vanishes only once they are summed
    res = WeightComplex({0: [""], -1: ["w", "w"], -2: ["w"]},
                        {-1: {(0, 0): 1, (0, 1): 1},
                         -2: {(0, 0): 1, (1, 0): -1}}, QQ).validate()
    assert len(matrix_complex(res)[2][1]) == 2


def test_tensor_complex_refuses_a_factor_that_does_not_square_to_zero():
    ca = [([indecomposable("")], []),
          ([indecomposable("w")], [(0, 0, down_map("", QQ), 1)]),
          ([indecomposable("w")], [(0, 0, e_lambda("w", QQ), 1)])]
    with pytest.raises(AssertionError, match="square to zero"):
        tensor_matrix_complexes(ca, [([indecomposable("")], [])], 2)


def test_weight_complex_refuses_an_entry_with_no_generator():
    # Hom(M_bw, M_wb) = 0: no generator joins the two weights
    assert gen_kind("bw", "wb") is None
    with pytest.raises(ValueError, match="no generator"):
        WeightComplex({0: ["wb"], -1: ["bw"]}, {-1: {(0, 0): 1}},
                      QQ).validate()


def test_matrix_complex_refuses_an_entry_with_no_generator():
    res = WeightComplex({0: ["wb"], -1: ["bw"]}, {-1: {(0, 0): 1}}, QQ)
    with pytest.raises(ValueError, match="no generator"):
        matrix_complex(res)


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
