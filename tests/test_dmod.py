import pytest

from delannoy import rep
from delannoy.dmod import (DModule, basic_factorization, basic_targets,
                           compose_dist, dist_hom, dist_hom_nonzero, ext_dim,
                           identify_named_dmodule, is_basic, named_dmodule,
                           radical_filtration, tilting_complex,
                           tilting_hom_dim, tilting_map, truncated_projective)
from delannoy.fields import QQ
from delannoy.weights import dual, enumerate_weights, is_alternating


def test_dist_hom_rule():
    assert dist_hom("", "w").nonzero
    assert dist_hom("b", "").nonzero
    assert not dist_hom("b", "w").nonzero
    assert dist_hom("wb", "w").nonzero       # remove a black-ending tail
    assert dist_hom("w", "wbw").nonzero      # append a white-ending tail
    assert not dist_hom("w", "wb").nonzero
    assert not dist_hom("w", "www").nonzero  # tail must alternate


def test_compose_dist():
    f = compose_dist(dist_hom("b", ""), dist_hom("", "w"))
    assert not f.nonzero  # black -> empty -> white dies
    g = compose_dist(dist_hom("wb", ""), dist_hom("", "w"))
    assert g.nonzero
    with pytest.raises(ValueError):
        compose_dist(dist_hom("b", ""), dist_hom("w", "ww"))


def test_basic_morphisms():
    assert is_basic("wb", "")     # remove white-black
    assert is_basic("", "bw")     # append black-white
    assert is_basic("", "w") and is_basic("w", "ww")
    assert not is_basic("b", "bw")
    assert is_basic("bb", "b") and is_basic("b", "")
    assert not is_basic("wb", "w")


def test_basic_factorization_examples():
    # appending a lone white to a black-ending word detours through shorter
    assert basic_factorization(dist_hom("wb", "w")) == [("wb", ""), ("", "w")]
    assert basic_factorization(dist_hom("wbwb", "wbw")) == [
        ("wbwb", "wb"), ("wb", ""), ("", "w"), ("w", "wbw")]
    assert basic_factorization(dist_hom("b", "b")) == []
    assert basic_factorization(dist_hom("", "bw")) == [("", "bw")]
    with pytest.raises(ValueError):
        basic_factorization(dist_hom("b", "w"))


def test_basic_factorization_consistency():
    for lam in enumerate_weights(4):
        for mu in enumerate_weights(4):
            if not dist_hom_nonzero(lam, mu) or lam == mu:
                continue
            steps = basic_factorization(dist_hom(lam, mu))
            assert all(is_basic(a, b) for a, b in steps)
            cur = lam
            for a, b in steps:
                assert a == cur and dist_hom_nonzero(a, b)
                cur = b
            assert cur == mu


def test_full_module_consistency_scan():
    m = DModule.full({"b", "w"})
    assert m.dims == {"b": 1, "w": 1}
    with pytest.raises(ValueError):
        DModule.full({"b", "", "w"})  # b -> e -> w composes to zero


def test_named_modules():
    assert named_dmodule("T", "b").dims == {"": 1, "b": 1}
    assert set(named_dmodule("Delta", "wbwb").dims) == \
        {"wbwb", "wb", "", "w", "wbw"}
    assert named_dmodule("Delta", "w") == named_dmodule("S", "w")
    assert named_dmodule("Nabla", "b") == named_dmodule("S", "b")
    for lam in enumerate_weights(3):
        assert named_dmodule("Nabla", lam) == \
            rep.dual(named_dmodule("Delta", dual(lam)))
        assert rep.dual(named_dmodule("T", lam)) == \
            named_dmodule("T", dual(lam))


def test_truncated_projective():
    p = truncated_projective("b", 4)
    assert "b" in p.dims and "" in p.dims
    assert all(len(k) <= 4 for k in p.dims)


def test_uniserial_radical_layers():
    layers = radical_filtration(named_dmodule("Delta", "wbwb"))
    assert layers == [{"wbwb": 1}, {"wb": 1}, {"": 1}, {"w": 1}, {"wbw": 1}]
    # layer index equals basic factorization length
    for lam in enumerate_weights(4):
        delta = named_dmodule("Delta", lam)
        layers = radical_filtration(delta)
        for i, layer in enumerate(layers):
            for mu in layer:
                assert len(basic_factorization(dist_hom(lam, mu))) == i


def test_tilting_hom_rule_vs_solver():
    for a in enumerate_weights(3):
        for b in enumerate_weights(3):
            got = len(rep.hom(named_dmodule("T", a),
                              named_dmodule("T", b)))
            assert got == tilting_hom_dim(a, b), (a, b)


def test_tilting_composites():
    comp = rep.compose(tilting_map("", "b"), tilting_map("w", ""))
    assert comp.comps == tilting_map("w", "b").comps
    # composites through vanishing hom spaces die
    comp = rep.compose(tilting_map("w", "wb"), tilting_map("ww", "w"))
    assert comp.is_zero() or tilting_hom_dim("ww", "wb") == 1


def test_tilting_complex_shapes():
    c = tilting_complex("S", "wbb")
    assert c.terms == {0: ["wbb"], -1: ["wb"], -2: ["w"]}
    c = tilting_complex("S", "bww")
    assert c.terms == {0: ["bww"], 1: ["bw"], 2: ["b"]}
    assert tilting_complex("T", "bw").terms == {0: ["bw"]}
    assert tilting_complex("Delta", "wb").terms == {0: ["wb"]}
    assert tilting_complex("Nabla", "w").terms == {0: ["w"]}
    c.validate()


def test_ext_delta_nabla():
    for lam in enumerate_weights(2):
        for mu in enumerate_weights(2):
            for i in range(3):
                want = 1 if (lam == mu and i == 0) else 0
                assert ext_dim("Delta", lam, "Nabla", mu, i) == want


def test_ext1_matches_basic_quiver():
    for lam in enumerate_weights(2):
        arrows = set(basic_targets(lam))
        for mu in enumerate_weights(4):
            want = 1 if mu in arrows else 0
            assert ext_dim("S", lam, "S", mu, 1) == want, (lam, mu)


def test_end_of_tilting_complex():
    for lam in enumerate_weights(2):
        assert ext_dim("T", lam, "T", lam, 0) == 1
        assert ext_dim("T", lam, "T", lam, 1) == 0


def test_kernel_and_homology():
    nabla = named_dmodule("Nabla", "w")
    s = named_dmodule("S", "w")
    incl = rep.ModuleMap(s, nabla, {"w": [[QQ.one]]}).validate()
    proj = rep.ModuleMap(nabla, named_dmodule("Delta", ""),
                         {"": [[QQ.one]]}).validate()
    k, _ = rep.kernel(proj)
    assert k.dims == {"w": 1}
    h = rep.homology(incl, proj)
    assert h.is_zero()


def test_identify_named():
    assert identify_named_dmodule(named_dmodule("T", "bw")) is not None
    assert identify_named_dmodule(DModule({}, {})) is None


def test_triangular_factorization_dimension_count():
    # composition upward-after-downward spans every hom space
    def hom_plus(rho, mu):  # length non-increasing side
        return int(dist_hom_nonzero(rho, mu) and len(rho) >= len(mu))

    def hom_minus(lam, rho):  # length non-decreasing side
        return int(dist_hom_nonzero(lam, rho) and len(lam) <= len(rho))

    weights = enumerate_weights(4)
    big = enumerate_weights(6)
    for lam in weights:
        for mu in weights:
            total = sum(hom_plus(rho, mu) * hom_minus(lam, rho)
                        for rho in big)
            assert total == int(dist_hom_nonzero(lam, mu)), (lam, mu)


def test_decomposition_numbers_of_tiltings():
    for lam in enumerate_weights(3):
        supp = {lam}
        for cut in range(len(lam)):
            if is_alternating(lam[cut:]):
                supp.add(lam[:cut])
        assert set(named_dmodule("T", lam).dims) == supp
