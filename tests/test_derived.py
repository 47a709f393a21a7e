import random

from delannoy import rep
from delannoy.bmod import min_projective_resolution, named_bmodule
from delannoy.derived import (euler_characteristics, l_phi, l_psi, l_theta,
                              phi_on_proj, psi_on_proj, theta_on_proj)
from delannoy.dmod import named_dmodule
from delannoy.fields import QQ
from delannoy.linalg import rank
from delannoy.weights import enumerate_weights


def test_phi_on_projectives():
    res = min_projective_resolution(named_bmodule("P", "bw"), 0)
    per = phi_on_proj(res)
    assert set(per) == {"bw", "b"}
    assert per["bw"][0] == [1] and per["b"][0] == [1]


def test_l_phi_tables_small():
    assert l_phi(named_bmodule("S", "w"), 4) == {0: {"": 1}}
    assert l_phi(named_bmodule("S", "b"), 4) == {}
    assert l_phi(named_bmodule("S", ""), 4) == {}
    assert l_phi(named_bmodule("S", "wbb"), 5) == {2: {"": 1}}
    assert l_phi(named_bmodule("Q", "wb"), 4) == {0: {"wb": 1}}
    assert l_phi(named_bmodule("Cost", "b"), 4) == {}
    assert l_phi(named_bmodule("Stan", "bb"), 4) == {0: {"bb": 1}}


def test_l_theta_tables_small():
    assert l_theta(named_bmodule("S", "bb"), 4) == [0, 0, 1, 0, 0]
    assert l_theta(named_bmodule("S", "wb"), 4) == [0] * 5
    assert l_theta(named_bmodule("Q", "w"), 4) == [0] * 5
    assert l_theta(named_bmodule("Stan", "b"), 4) == [0, 1, 0, 0, 0]


def _matches(value, kind, lam):
    want = named_dmodule(kind, lam)
    if isinstance(value, tuple):
        return named_dmodule(*value) == want
    return rep.find_isomorphism(value, want) is not None


def test_l_psi_tables_small():
    assert _matches(l_psi(named_bmodule("S", "w"), 3)[0], "Delta", "")
    assert _matches(l_psi(named_bmodule("S", "b"), 3)[1], "S", "")
    assert _matches(l_psi(named_bmodule("S", "wb"), 3)[1], "Nabla", "w")
    assert _matches(l_psi(named_bmodule("Stan", "w"), 3)[0], "Nabla", "w")
    assert l_psi(named_bmodule("Q", "b"), 3) == {}
    assert _matches(l_psi(named_bmodule("I", "w"), 3)[1], "T", "w")
    assert l_psi(named_bmodule("S", ""), 3) == {}


def test_psi_amplitude():
    for lam in enumerate_weights(2):
        for kind in ("S", "Stan", "Cost", "Q"):
            psi = l_psi(named_bmodule(kind, lam), 4, identify=False)
            assert all(k < 2 for k in psi), (kind, lam)


def test_gauge_independence():
    # rescaling the distinguished generator images by nonzero scalars (with
    # the composite forced to the product) never changes homology dims
    rng = random.Random(2)
    for lam, kind in [("w", "S"), ("b", "S"), ("wb", "Q")]:
        m = named_bmodule(kind, lam)
        res = min_projective_resolution(m, 5)
        base = l_phi(m, 4)
        cd = {mu: QQ.of_int(rng.choice([1, 2, -1, 3]))
              for mu in enumerate_weights(8)}
        cu = {mu: QQ.of_int(rng.choice([1, -2, 5]))
              for mu in enumerate_weights(8)}

        def twist(kind_g, mu, nu):
            if kind_g == "id":
                return QQ.one
            if kind_g == "d":
                return cd[nu]
            if kind_g == "u":
                return cu[mu]
            return QQ.mul(cu[mu[:-1]], cd[mu[:-1]])

        twisted = res.__class__(
            res.terms,
            [{} if k == 0 else
             {key: (QQ.mul(c, twist(kindg, res.terms[k][key[1]],
                                    res.terms[k - 1][key[0]])), kindg)
              for key, (c, kindg) in res.diffs[k].items()}
             for k in range(len(res.diffs))],
            res.field)
        per = phi_on_proj(twisted)  # also re-checks d^2 = 0 under the twist
        got = {}
        from delannoy.derived import _complex_homology_dims
        for nu, (dims, diffs) in per.items():
            hom = _complex_homology_dims(dims, diffs, QQ, 4)
            for k, d in enumerate(hom):
                if d:
                    got.setdefault(k, {})[nu] = d
        assert got == base, (kind, lam)


def test_euler_characteristics_on_generators():
    chi_c, chi_d, chi_v = euler_characteristics(named_bmodule("Q", "b"), 6)
    assert chi_c == {"b": 1} and chi_d == {} and chi_v == 0
    chi_c, chi_d, chi_v = euler_characteristics(named_bmodule("S", ""), 6)
    assert chi_c == {} and chi_d == {} and chi_v == 1


def test_white_middle_homology_detection():
    # for a white complex composing to zero, the middle homology is a sum of
    # unit simples exactly when the first derived functor kills it: among
    # white modules the only killed simple is the unit one (this is the
    # module-level content of the exactness-in-the-middle criterion)
    rng = random.Random(5)
    whites = [named_bmodule("S", ""), named_bmodule("S", "w"),
              named_bmodule("Stan", ""), named_bmodule("Stan", "w"),
              named_bmodule("P", ""), named_bmodule("P", "ww")]
    checked = 0
    for trial in range(40):
        a = rng.choice(whites)
        b, _ = rep.direct_sum([rng.choice(whites), rng.choice(whites)])
        c = rng.choice(whites)
        homs_ab = rep.hom(a, b)
        if not homs_ab:
            continue
        f = homs_ab[rng.randrange(len(homs_ab))]
        gs = [g for g in rep.hom(b, c)
              if rep.compose(g, f).is_zero()]
        if not gs:
            continue
        g = gs[rng.randrange(len(gs))]
        h = rep.homology(f, g)
        killed = l_phi(h, 3) == {}
        assert killed == (set(h.dims) <= {""}), (trial, h.dims)
        checked += 1
    assert checked >= 10
