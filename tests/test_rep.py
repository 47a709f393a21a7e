"""The shared representation core on the named modules of both categories."""

from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from delannoy import rep
from delannoy.bmod import BModule, named_bmodule
from delannoy.dmod import DModule, named_dmodule
from delannoy.fields import QQ, PrimeField
from delannoy.weights import enumerate_weights
from module_oracle import cokernel, homology, image

KINDS = {"B": ("S", "Stan", "Cost", "P", "I", "Q"),
         "D": ("S", "Delta", "Nabla", "T")}
NAMED = {"B": named_bmodule, "D": named_dmodule}
MODULES = [(cat, kind, lam) for cat in ("B", "D") for kind in KINDS[cat]
           for lam in enumerate_weights(3)]


def _ids(case):
    cat, kind, lam = case
    return f"{cat}-{kind}-{lam or 'e'}"


def _module(case):
    cat, kind, lam = case
    return NAMED[cat](kind, lam)


def _maps_out(case):
    """Hom basis maps into every named module at the same weight."""
    cat, _, lam = case
    m = _module(case)
    out = []
    for kind in KINDS[cat]:
        out.extend(rep.hom(m, NAMED[cat](kind, lam)))
    return out


@pytest.mark.parametrize("case", MODULES, ids=_ids)
def test_dual_is_an_involution(case):
    m = _module(case)
    assert rep.dual(rep.dual(m)) == m


@pytest.mark.parametrize("case", MODULES, ids=_ids)
def test_kernel_image_cokernel_dimensions(case):
    maps = _maps_out(case)
    assert maps  # the identity at least
    for f in maps:
        f.validate()
        k, k_incl = rep.kernel(f)
        im, im_incl = image(f)
        c, c_proj = cokernel(f)
        for mor in (k_incl, im_incl, c_proj):
            mor.validate()
        for lam in set(f.src.dims) | set(f.dst.dims):
            assert k.dim(lam) + im.dim(lam) == f.src.dim(lam), lam
            assert c.dim(lam) == f.dst.dim(lam) - im.dim(lam), lam


@pytest.mark.parametrize("case", MODULES, ids=_ids)
def test_homology_of_zero_maps_is_the_module(case):
    m = _module(case)
    zero = type(m)({}, {}, m.field)
    h = homology(rep.ModuleMap(zero, m, {}), rep.ModuleMap(m, zero, {}))
    assert h == m


@pytest.mark.parametrize("cls, dims, key", [
    (BModule, {"": 1, "ww": 1}, ("", "ww")),
    (BModule, {"": 1, "b": 1}, ("", "b")),     # down runs lam + 'b' -> lam
    (BModule, {"w": 1}, ("w", "w")),
    (DModule, {"b": 1, "w": 1}, ("b", "w")),   # the distinguished map is 0
    (DModule, {"w": 1}, ("w", "w")),           # identities are not arrows
])
def test_matrix_on_a_non_arrow_raises(cls, dims, key):
    with pytest.raises(ValueError):
        cls(dims, {key: [[QQ.one]]})


# ---------------------------------------------------------------------------
# Isomorphism onto a full module, decided exactly.
# ---------------------------------------------------------------------------

SMALL_FIELDS = (PrimeField(2), PrimeField(3))
CLASSES = {"B": BModule, "D": DModule}
# the supports of the named modules at weights of length <= 2
SMALL_SUPPORTS = sorted({(case[0], tuple(_module(case).support))
                         for case in MODULES if len(case[2]) <= 2})


def _support_id(value):
    return value if isinstance(value, str) else "-".join(w or "e" for w in value)


def _units(fld):
    return [x for x in range(fld.p) if not fld.is_zero(x)]


def _rescaled(cls, support, phi, fld):
    """The full module transported along the scalars phi: isomorphic to it."""
    return cls({lam: 1 for lam in support},
               {(lam, mu): [[fld.mul(phi[lam], fld.inv(phi[mu]))]]
                for lam, mu in cls.pairs(support)}, fld)


@pytest.mark.parametrize("fld", SMALL_FIELDS, ids=repr)
@pytest.mark.parametrize("cls", (BModule, DModule), ids=lambda c: c.__name__)
@pytest.mark.parametrize("size", (6, 8))
def test_full_module_on_arrow_free_weights_is_self_isomorphic(size, cls, fld):
    # weights of one length are pairwise arrow-free in both categories
    support = [lam for lam in enumerate_weights(3) if len(lam) == 3][:size]
    assert cls.pairs(support) == []
    full = cls.full(support, fld)
    iso = rep.find_isomorphism(full, full)
    assert iso is not None
    assert all(iso.component(lam) == [[fld.one]] for lam in support)


@pytest.mark.parametrize("fld", SMALL_FIELDS, ids=repr)
@pytest.mark.parametrize("cat, support", SMALL_SUPPORTS, ids=_support_id)
def test_a_rescaled_module_is_isomorphic_to_the_full_module(cat, support, fld):
    cls = CLASSES[cat]
    phi = {lam: _units(fld)[i % len(_units(fld))]
           for i, lam in enumerate(support)}
    m = _rescaled(cls, support, phi, fld)
    iso = rep.find_isomorphism(m, cls.full(support, fld))
    assert iso is not None
    iso.validate()
    assert all(not fld.is_zero(iso.component(lam)[0][0]) for lam in support)


@pytest.mark.parametrize("fld", SMALL_FIELDS, ids=repr)
@pytest.mark.parametrize("cat, support", SMALL_SUPPORTS, ids=_support_id)
def test_a_zeroed_arrow_is_no_isomorphism(cat, support, fld):
    cls = CLASSES[cat]
    full = cls.full(support, fld)
    for arrow in full.arrows:
        try:
            m = cls(full.dims, {a: x for a, x in full.arrows.items()
                                if a != arrow}, fld)
        except ValueError:  # the zero breaks a composition relation
            continue
        assert rep.find_isomorphism(m, full) is None


@pytest.mark.parametrize("cls", (BModule, DModule), ids=lambda c: c.__name__)
def test_a_target_that_is_not_full_raises(cls):
    fld = PrimeField(3)
    two = _rescaled(cls, ["", "w"], {"": fld.one, "w": fld.of_int(2)}, fld)
    with pytest.raises(ValueError):
        rep.find_isomorphism(cls.full(["", "w"], fld), two)
    wide = cls({"": 2}, {}, fld)
    with pytest.raises(ValueError):
        rep.find_isomorphism(wide, wide)


def _brute_force_isomorphic(m, full):
    """Whether some choice of one unit per weight is a module map m -> full."""
    fld, support = m.field, full.support
    for scalars in product(_units(fld), repeat=len(support)):
        comps = {lam: [[x]] for lam, x in zip(support, scalars)}
        try:
            rep.ModuleMap(m, full, comps).validate()
        except ValueError:
            continue
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(SMALL_SUPPORTS),
       st.sampled_from(SMALL_FIELDS))
def test_find_isomorphism_agrees_with_brute_force(data, case, fld):
    cat, support = case
    cls = CLASSES[cat]
    arrows = {pair: [[data.draw(st.integers(0, fld.p - 1))]]
              for pair in cls.pairs(support)}
    try:
        m = cls({lam: 1 for lam in support}, arrows, fld)
    except ValueError:  # arrow values breaking a relation
        assume(False)
    full = cls.full(support, fld)
    iso = rep.find_isomorphism(m, full)
    assert (iso is not None) == _brute_force_isomorphic(m, full)
    if fld.p == 2:  # the only unit is 1
        assert (iso is not None) == (m == full)


@pytest.mark.parametrize("fld", [QQ, PrimeField(2)], ids=["QQ", "GF2"])
def test_full_map_is_the_common_support_identity(fld):
    s_w = named_bmodule("S", "w", fld)
    q_e, i_e = named_bmodule("Q", "", fld), named_bmodule("I", "", fld)
    assert rep.full_map(s_w, q_e).comps == {"w": [[fld.one]]}
    assert rep.full_map(q_e, i_e).comps == {"": [[fld.one]], "b": [[fld.one]]}
    # the simple at e is a quotient of the projective at e, not a submodule
    p_e, s_e = named_bmodule("P", "", fld), named_bmodule("S", "", fld)
    assert rep.full_map(p_e, s_e).comps == {"": [[fld.one]]}
    with pytest.raises(ValueError, match="square fails at '' -> 'w'"):
        rep.full_map(s_e, p_e)
