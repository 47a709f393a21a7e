import pytest

from delannoy import rep
from delannoy.dmod import (DModule, basic_factorization, basic_targets,
                           dist_hom_nonzero, ext_dim, homotopy_hom_dim,
                           identify_named_dmodule, is_basic, named_dmodule,
                           radical_filtration, tilting_complex, tilting_map)
from delannoy.fields import QQ, PrimeField
from delannoy.linalg import rank
from delannoy.weights import (composite_unit, dual, enumerate_weights,
                              hom_dim_pattern, is_alternating)
from module_oracle import homology


def test_dist_hom_rule():
    assert dist_hom_nonzero("", "w")
    assert dist_hom_nonzero("b", "")
    assert not dist_hom_nonzero("b", "w")
    assert dist_hom_nonzero("wb", "w")       # remove a black-ending tail
    assert dist_hom_nonzero("w", "wbw")      # append a white-ending tail
    assert not dist_hom_nonzero("w", "wb")
    assert not dist_hom_nonzero("w", "www")  # tail must alternate


def test_basic_morphisms():
    assert is_basic("wb", "")     # remove white-black
    assert is_basic("", "bw")     # append black-white
    assert is_basic("", "w") and is_basic("w", "ww")
    assert not is_basic("b", "bw")
    assert is_basic("bb", "b") and is_basic("b", "")
    assert not is_basic("wb", "w")


def test_basic_factorization_examples():
    # appending a lone white to a black-ending word detours through shorter
    assert basic_factorization("wb", "w") == [("wb", ""), ("", "w")]
    assert basic_factorization("wbwb", "wbw") == [
        ("wbwb", "wb"), ("wb", ""), ("", "w"), ("w", "wbw")]
    assert basic_factorization("b", "b") == []
    assert basic_factorization("", "bw") == [("", "bw")]
    with pytest.raises(ValueError):
        basic_factorization("b", "w")


def test_basic_factorization_consistency():
    for lam in enumerate_weights(4):
        for mu in enumerate_weights(4):
            if not dist_hom_nonzero(lam, mu) or lam == mu:
                continue
            steps = basic_factorization(lam, mu)
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


def test_uniserial_radical_layers():
    layers = radical_filtration(named_dmodule("Delta", "wbwb"))
    assert layers == [{"wbwb": 1}, {"wb": 1}, {"": 1}, {"w": 1}, {"wbw": 1}]
    # layer index equals basic factorization length
    for lam in enumerate_weights(4):
        delta = named_dmodule("Delta", lam)
        layers = radical_filtration(delta)
        for i, layer in enumerate(layers):
            for mu in layer:
                assert len(basic_factorization(lam, mu)) == i


def test_tilting_hom_rule_vs_solver():
    for a in enumerate_weights(3):
        for b in enumerate_weights(3):
            got = len(rep.hom(named_dmodule("T", a),
                              named_dmodule("T", b)))
            assert got == hom_dim_pattern(a, b), (a, b)


def test_tilting_composites():
    comp = rep.compose(tilting_map("", "b"), tilting_map("w", ""))
    assert comp.comps == tilting_map("w", "b").comps
    # composites through vanishing hom spaces die
    comp = rep.compose(tilting_map("w", "wb"), tilting_map("ww", "w"))
    assert comp.is_zero() or hom_dim_pattern("ww", "wb") == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["QQ", "GF2"])
def test_every_tilting_map_validates(field):
    # tilting_map builds the common-support identity with rep.full_map,
    # which checks every square: 156 maps between weights of length <= 5
    count = 0
    for a in enumerate_weights(5):
        for b in enumerate_weights(5):
            if hom_dim_pattern(a, b):
                f = tilting_map(a, b, field)
                assert set(f.comps) == set(f.src.dims) & set(f.dst.dims)
                count += 1
            else:
                with pytest.raises(ValueError, match="zero hom space"):
                    tilting_map(a, b, field)
    assert count == 156


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


def _homotopy_hom_dim_oracle(x, y, shift=0):
    """The hand-built homotopy Hom: chain maps from the commuting conditions,
    minus the rank of the boundary map of the homotopies."""
    f = x.field
    # chain map variables: per degree d, per (i in x.terms[d], j in y.terms[d+shift])
    var_index = {}
    for d, xs in x.terms.items():
        ys = y.terms.get(d + shift, [])
        for i, lam in enumerate(xs):
            for j, mu in enumerate(ys):
                if hom_dim_pattern(lam, mu):
                    var_index[(d, i, j)] = len(var_index)
    nvars = len(var_index)
    rows = []
    # commuting condition per degree d: d_y o f_d = f_{d+1} o d_x, as a map
    # from x.terms[d] to y.terms[d+shift+1], expanded per canonical target hom
    for d, xs in x.terms.items():
        ys_next = y.terms.get(d + shift + 1, [])
        for i, lam in enumerate(xs):
            for j2, nu in enumerate(ys_next):
                if not hom_dim_pattern(lam, nu):
                    continue
                row = [f.zero] * nvars
                nz = False
                for j, mu in enumerate(y.terms.get(d + shift, [])):
                    c = y.diffs.get(d + shift, {}).get((j2, j))
                    if c is not None and (d, i, j) in var_index and \
                            composite_unit(lam, mu, nu):
                        idx = var_index[(d, i, j)]
                        row[idx] = f.add(row[idx], c)
                        nz = True
                for i2, mu in enumerate(x.terms.get(d + 1, [])):
                    c = x.diffs.get(d, {}).get((i2, i))
                    if c is not None and (d + 1, i2, j2) in var_index and \
                            composite_unit(lam, mu, nu):
                        idx = var_index[(d + 1, i2, j2)]
                        row[idx] = f.sub(row[idx], c)
                        nz = True
                if nz:
                    rows.append(row)
    chain_dim = nvars - rank(rows, f) if rows else nvars
    # homotopies: per degree d, maps x.terms[d] -> y.terms[d+shift-1];
    # boundary h -> d_y h + h d_x lands in the chain-map space
    h_index = {}
    for d, xs in x.terms.items():
        ys = y.terms.get(d + shift - 1, [])
        for i, lam in enumerate(xs):
            for j, mu in enumerate(ys):
                if hom_dim_pattern(lam, mu):
                    h_index[(d, i, j)] = len(h_index)
    if not h_index or not var_index:
        return chain_dim
    boundary = [[f.zero] * len(h_index) for _ in range(nvars)]
    for (d, i, j), col in h_index.items():
        lam = x.terms[d][i]
        mu = y.terms[d + shift - 1][j]
        # d_y o h contributes at (d, i, j2)
        for j2, nu in enumerate(y.terms.get(d + shift, [])):
            c = y.diffs.get(d + shift - 1, {}).get((j2, j))
            if c is not None and (d, i, j2) in var_index and \
                    composite_unit(lam, mu, nu):
                r = var_index[(d, i, j2)]
                boundary[r][col] = f.add(boundary[r][col], c)
        # h o d_x contributes at (d - 1, i2, j)
        for i2, lam2 in enumerate(x.terms.get(d - 1, [])):
            c = x.diffs.get(d - 1, {}).get((i, i2))
            if c is not None and (d - 1, i2, j) in var_index and \
                    composite_unit(lam2, lam, mu):
                r = var_index[(d - 1, i2, j)]
                boundary[r][col] = f.add(boundary[r][col], c)
    return chain_dim - rank(boundary, f)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)],
                         ids=repr)
def test_homotopy_hom_dim_matches_the_hand_built_oracle(field):
    # every pair of named tilting complexes at weights of length <= 3
    complexes = [tilting_complex(kind, lam, field)
                 for kind in ("S", "Delta", "Nabla", "T")
                 for lam in enumerate_weights(3)]
    for x in complexes:
        for y in complexes:
            for shift in range(-2, 5):
                assert homotopy_hom_dim(x, y, shift) == \
                    _homotopy_hom_dim_oracle(x, y, shift), (x, y, shift)


def test_kernel_and_homology():
    nabla = named_dmodule("Nabla", "w")
    s = named_dmodule("S", "w")
    incl = rep.ModuleMap(s, nabla, {"w": [[QQ.one]]}).validate()
    proj = rep.ModuleMap(nabla, named_dmodule("Delta", ""),
                         {"": [[QQ.one]]}).validate()
    k, _ = rep.kernel(proj)
    assert k.dims == {"w": 1}
    h = homology(incl, proj)
    assert h.is_zero()


def test_identify_named():
    assert identify_named_dmodule(named_dmodule("T", "bw")) is not None
    assert identify_named_dmodule(DModule({}, {})) is None


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3)], ids=repr)
def test_identify_named_decides_over_small_fields(field):
    for lam in enumerate_weights(3):
        for kind in ("S", "Delta", "Nabla", "T"):
            m = named_dmodule(kind, lam, field)
            name = identify_named_dmodule(m)
            assert name is not None and named_dmodule(*name, field) == m
    # a zeroed arrow leaves the support of a named module but no isomorphism
    m = DModule({"": 1, "w": 1}, {}, field)
    assert identify_named_dmodule(m) is None


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
