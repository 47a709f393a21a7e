"""Helpers of the verification suites, checked on their own."""

from collections import Counter

import pytest

from delannoy import dmod, rep, verify
from delannoy.fields import QQ, PrimeField
from delannoy.weights import enumerate_weights, is_alternating

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
FIELD_IDS = ["QQ", "GF2", "GF3"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_pqi_sequence_is_exact(field):
    # 0 -> P_lam -> Q_lam + Q_flat -> I_lam -> 0 at every nonempty weight
    # of length <= 4
    for lam in enumerate_weights(4):
        if lam:
            assert verify.check_pqi(lam, field), lam


def test_check_pqi_builds_its_maps_without_a_hom_search(monkeypatch):
    def no_hom(m, n):
        raise AssertionError("check_pqi must not search a hom space")

    monkeypatch.setattr(rep, "hom", no_hom)
    assert all(verify.check_pqi(lam) for lam in ("w", "b", "wb", "bww"))


def _tilt_pattern(lam, mu):
    """The expected dim Hom(T_lam, T_mu) of the tilting-hom suite as it was
    written out before the suite called `dmod.dist_hom_nonzero(mu, lam)`."""
    if lam == mu:
        return 1
    if len(mu) > len(lam) and mu.startswith(lam):
        tail = mu[len(lam):]
        return int(tail.endswith("b") and is_alternating(tail))
    if len(lam) > len(mu) and lam.startswith(mu):
        tail = lam[len(mu):]
        return int(tail.endswith("w") and is_alternating(tail))
    return 0


def test_tilting_hom_pattern_is_the_reversed_distinguished_rule():
    weights = enumerate_weights(6)
    for lam in weights:
        for mu in weights:
            assert int(dmod.dist_hom_nonzero(mu, lam)) == \
                _tilt_pattern(lam, mu), (lam, mu)


def test_dmod_ext_builds_each_module_and_complex_once(monkeypatch):
    # the homT loop used to build T for both ends of every pair, and the
    # HomExt and Ext1-quiver loops both tilting complexes of every case
    built_t, built_cx = Counter(), Counter()
    named, complex_ = dmod.named_dmodule, dmod.tilting_complex

    def spy_named(kind, lam, field=QQ):
        if kind == "T":
            built_t[lam] += 1
        return named(kind, lam, field)

    def spy_complex(kind, lam, field=QQ):
        built_cx[(kind, lam)] += 1
        return complex_(kind, lam, field)

    monkeypatch.setattr(dmod, "named_dmodule", spy_named)
    monkeypatch.setattr(dmod, "tilting_complex", spy_complex)
    report = verify.run_suite("dmod-ext", max_len=3, max_i=2,
                              uniserial_len=3)
    assert report.counts == \
        {"pass": 612, "fail": 0, "inconclusive": 0}
    # 15 for homT, the rest for the tilting maps, the corestriction
    # sequences and the tilting quotients
    assert sum(built_t.values()) <= 136
    # S_lam for white-ending lam comes once directly, once via Delta_lam
    assert max(built_cx.values()) <= 2
