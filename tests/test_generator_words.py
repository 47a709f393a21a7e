"""e_lambda and the generator maps as path words, against the composed route.

`acat` writes e_lambda and the distinguished maps down directly as path
words with coefficient 1.  The oracles below are the routes they replaced,
kept verbatim: `_e_lambda_entries` scans every (n, n) path through an
integer representative, and `_gen_cached` / `_gen_map` compose
e o push o e and e o pull o e over Q and convert the result to the field,
with push and pull the coordinate omission R^(n) -> R^(n-1) and its
transpose (`projection_matrices`).
The comparison at weights of length 4 composes through large size triples
(about 16 s and 1.2 GB), so it runs only with DELANNOY_TOR=1.
"""

import os
from functools import lru_cache

import pytest

from delannoy import acat, paths, schwartz
from delannoy.acat import down_map, e_lambda, ud_map, up_map
from delannoy.fields import QQ, PrimeField
from delannoy.paths import enumerate_paths
from delannoy.schwartz import MU2, PermMatrix, compose, transpose
from delannoy.weights import enumerate_weights

FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(46337))

# The scan reads each path's representative once for all weights of a
# length, so that length 7 (D(7, 7) = 48,639 paths) takes seconds.
representative = lru_cache(maxsize=None)(paths.representative)


def _e_lambda_entries(lam):
    n = len(lam)
    entries = {}
    for p in enumerate_paths(n, n):
        y, x = representative(p)
        ok = True
        for i, letter in enumerate(lam):
            if letter == "b" and not y[i] <= x[i]:
                ok = False
                break
            if letter == "w" and not x[i] <= y[i]:
                ok = False
                break
        if ok:
            for i in range(n - 1):
                if not (y[i] < x[i + 1] and x[i] < y[i + 1]):
                    ok = False
                    break
        if ok:
            entries[(0, 0, p)] = 1
    return entries


def projection_matrices(n, i, field=QQ):
    """Push-forward and pull-back of coordinate omission R^(n) -> R^(n-1).

    1 <= i <= n names the omitted coordinate.  push is the (n-1) x n
    indicator of x = p(y); pull is its transpose.
    """
    if not 1 <= i <= n:
        raise ValueError("coordinate index out of range")
    entries = {}
    for gamma in enumerate_paths(n, n - 1):
        x_t, y_s = representative(gamma)
        if y_s[:i - 1] + y_s[i:] == x_t:
            entries[(0, 0, gamma)] = field.one
    push = PermMatrix((n,), (n - 1,), entries, field)
    return push, transpose(push)


@lru_cache(maxsize=None)
def _gen_cached(kind, lam):
    f = QQ
    n = len(lam)
    if kind == "d":  # M_{lam w} -> M_lam
        push, _ = projection_matrices(n + 1, n + 1, f)
        return compose(e_lambda(lam, f),
                       compose(push, e_lambda(lam + "w", f), MU2), MU2)
    if kind == "u":  # M_lam -> M_{lam b}
        _, pull = projection_matrices(n + 1, n + 1, f)
        return compose(e_lambda(lam + "b", f),
                       compose(pull, e_lambda(lam, f), MU2), MU2)
    raise ValueError(kind)


def _gen_map(kind, lam, field):
    """The cached generator map over Q, converted to `field`."""
    m = _gen_cached(kind, lam)
    if field == QQ:
        return m
    return PermMatrix(m.source, m.target,
                      {k: field.parse(str(c)) for k, c in m.entries.items()},
                      field)


def _check_generators(lam, field):
    d, u = _gen_map("d", lam, field), _gen_map("u", lam, field)
    assert down_map(lam, field) == d
    assert up_map(lam, field) == u
    assert ud_map(lam, field) == compose(u, d, MU2)


@pytest.mark.parametrize("lam", enumerate_weights(7))
def test_e_lambda_words_are_the_path_scan(lam):
    e = e_lambda.__wrapped__(lam, QQ)
    scan = _e_lambda_entries(lam)
    assert e.entries == {k: QQ.of_int(v) for k, v in scan.items()}
    # the words come in `enumerate_paths` order, as the scan finds them
    assert list(e.entries) == list(scan)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("lam", enumerate_weights(3))
def test_generator_words_are_the_composed_maps(lam, field):
    _check_generators(lam, field)


@pytest.mark.skipif(not os.environ.get("DELANNOY_TOR"),
                    reason="large compositions; opt in with DELANNOY_TOR=1")
@pytest.mark.parametrize("lam", [w for w in enumerate_weights(4)
                                 if len(w) == 4])
def test_generator_words_at_length_4(lam):
    _check_generators(lam, QQ)


def test_constructors_neither_compose_nor_scan(monkeypatch):
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module in (acat, schwartz):
        monkeypatch.setattr(module, "compose",
                            spy("compose", schwartz.compose))
    monkeypatch.setattr(paths, "representative",
                        spy("representative", paths.representative))
    for field in (QQ, PrimeField(3)):
        for lam in enumerate_weights(3):
            e_lambda.__wrapped__(lam, field)
            down_map(lam, field)
            up_map(lam, field)
            ud_map(lam, field)
    assert calls == []
