from collections import Counter

import pytest
from hypothesis import given, strategies as st

from delannoy.weights import (alternating_suffixes, black_tail, dual,
                              enumerate_weights, flat, format_weight,
                              is_alternating, marked_ruffles, parse_weight,
                              sort_key, tensor_summands)

weights_st = st.text(alphabet="bw", max_size=5)


def ruffle_weight(rho, lam, mu):
    """The output weight of a marked ruffle of lam and mu, read position by
    position off its injections and marks (the reference for the weights
    `marked_ruffles` pairs with each ruffle)."""
    length = max(rho.rho1 + rho.rho2, default=0)
    pos1 = {p: i for i, p in enumerate(rho.rho1)}
    pos2 = {p: i for i, p in enumerate(rho.rho2)}
    marks = dict(rho.rho3)
    letters = []
    for p in range(1, length + 1):
        if p in marks:
            letters.append(marks[p])
        elif p in pos1 and p in pos2:
            letters.append(lam[pos1[p]])  # non-neutral collision, both agree
        elif p in pos1:
            letters.append(lam[pos1[p]])
        else:
            letters.append(mu[pos2[p]])
    return "".join(letters)


def test_flat():
    assert flat("bw") == "b"
    assert flat("") is None
    assert flat("w") == ""


def test_dual():
    assert dual("bw") == "wb"
    assert dual("") == ""
    assert dual("bb") == "ww"


def test_is_alternating():
    assert is_alternating("bwb")
    assert not is_alternating("bww")
    assert is_alternating("")


@given(weights_st)
def test_dual_involution(lam):
    assert dual(dual(lam)) == lam


@given(weights_st.filter(bool))
def test_flat_commutes_with_dual(lam):
    assert flat(dual(lam)) == dual(flat(lam))


def test_enumerate_weights():
    assert enumerate_weights(0) == [""]
    assert enumerate_weights(1) == ["", "b", "w"]
    assert len(enumerate_weights(2)) == 7
    ws = enumerate_weights(3)
    assert ws == sorted(ws, key=sort_key)
    with pytest.raises(ValueError):
        enumerate_weights(-1)


def test_weight_literals():
    assert parse_weight("e") == ""
    assert parse_weight("bw") == "bw"
    assert format_weight("") == "e"
    with pytest.raises(ValueError):
        parse_weight("bx")
    with pytest.raises(ValueError):
        parse_weight("")


def test_black_tail():
    assert black_tail("wbb") == ("w", 2)
    assert black_tail("w") == ("w", 0)
    assert black_tail("bb") == ("", 2)
    assert black_tail("") == ("", 0)


def test_alternating_suffixes():
    assert set(alternating_suffixes(2)) == {"b", "w", "bw", "wb"}
    assert alternating_suffixes(3) == ["b", "w", "bw", "wb", "bwb", "wbw"]


def test_ruffles_of_b_and_w():
    full = marked_ruffles("b", "w", restricted=False)
    assert len(full) == 5
    assert Counter(w for _, w in full) == Counter(["bw", "wb", "b", "w", ""])
    restr = marked_ruffles("b", "w", restricted=True)
    assert len(restr) == 4
    assert Counter(w for _, w in restr) == Counter(["bw", "wb", "b", "w"])


def test_ruffles_unit():
    for restricted in (False, True):
        out = marked_ruffles("", "w", restricted)
        assert [w for _, w in out] == ["w"]


def test_ruffle_weight_consistency():
    for lam, mu in [("b", "w"), ("bw", "w"), ("bb", "ww")]:
        for rho, w in marked_ruffles(lam, mu):
            assert ruffle_weight(rho, lam, mu) == w


def test_ruffle_count_symmetric_under_dual_relabeling():
    for lam, mu in [("b", "w"), ("bw", "wb"), ("bw", "bb")]:
        a = len(marked_ruffles(lam, mu))
        b = len(marked_ruffles(mu, lam))
        assert a == b


def test_restricted_outputs_are_submultiset():
    for lam in enumerate_weights(2):
        for mu in enumerate_weights(2):
            omega = Counter(tensor_summands(lam, mu, False))
            omega_r = Counter(tensor_summands(lam, mu, True))
            assert all(omega_r[k] <= omega[k] for k in omega_r)


def flat_or_drop(ws):
    out = []
    for w in ws:
        f = flat(w)
        if f is not None:
            out.append(f)
    return out


def test_joint_bijection_identity():
    # multiset{w, w^flat over restricted} == multiset{w over the four
    # unrestricted enumerations with flattened arguments}, absent dropped
    for lam in enumerate_weights(3):
        for mu in enumerate_weights(3):
            if len(lam) + len(mu) > 6:
                continue
            left = list(tensor_summands(lam, mu, True))
            left += flat_or_drop(left)
            right = list(tensor_summands(lam, mu, False))
            fl, fm = flat(lam), flat(mu)
            if fm is not None:
                right += list(tensor_summands(lam, fm, False))
            if fl is not None:
                right += list(tensor_summands(fl, mu, False))
            if fl is not None and fm is not None:
                right += list(tensor_summands(fl, fm, False))
            assert Counter(left) == Counter(right), (lam, mu)
