"""The shared representation core on the named modules of both categories."""

import pytest

from delannoy import rep
from delannoy.bmod import BModule, named_bmodule
from delannoy.dmod import DModule, named_dmodule
from delannoy.fields import QQ
from delannoy.weights import enumerate_weights

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
    """Hom basis maps into every named module at the same weight, plus sums."""
    cat, _, lam = case
    m = _module(case)
    out = []
    for kind in KINDS[cat]:
        homs = rep.hom(m, NAMED[cat](kind, lam))
        out.extend(homs)
        if len(homs) > 1:
            total = homs[0]
            for h in homs[1:]:
                total = total + h
            out.append(total)
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
        im, im_incl = rep.image(f)
        c, c_proj = rep.cokernel(f)
        for mor in (k_incl, im_incl, c_proj):
            mor.validate()
        for lam in set(f.src.dims) | set(f.dst.dims):
            assert k.dim(lam) + im.dim(lam) == f.src.dim(lam), lam
            assert c.dim(lam) == f.dst.dim(lam) - im.dim(lam), lam


@pytest.mark.parametrize("case", MODULES, ids=_ids)
def test_homology_of_zero_maps_is_the_module(case):
    m = _module(case)
    zero = type(m)({}, {}, m.field)
    h = rep.homology(rep.ModuleMap(zero, m, {}), rep.ModuleMap(m, zero, {}))
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
