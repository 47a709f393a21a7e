"""`hom_dim`'s one trace route against the dense operator it replaced.

`_bulk_matrix`, `_left_operator`, `_right_operator` and `_hom_dim_prime` are
the prime-field route `acat.hom_dim` used to take (with `mod_product`, its
only helper outside `acat`): assemble the n x n cut operator H -> e_y o H o
e_x densely and eliminate it mod p.  They stay here as the oracle, kept
verbatim apart from imports; `dense_hom_dim` is their entry point.
"""

from fractions import Fraction

import numpy as np
import pytest

from delannoy.acat import (AObject, _apply_cut, _idempotent_over_z,
                           _integer_entries, _span_keys, hom_dim, hom_space,
                           indecomposable, multiplicities)
from delannoy.cli import parse_aobject
from delannoy.fields import QQ, PrimeField
from delannoy.linalg import _as_int_array, _exact_product, rank, rank_big
from delannoy.schwartz import MU1, MU2, PermMatrix, _pair_index, identity


def mod_product(a, b, p):
    """a @ b mod p for integer arrays, exact for every p."""
    a, b = (_as_int_array(m) % p for m in (a, b))
    return _exact_product(a, b) % p


def _bulk_matrix(n, triples):
    """Sum of the (row, col, value) triples as an n x n matrix: in int64 when
    the sum of |value| bounds every entry below 2**63, over Python ints
    otherwise (over a prime field a coefficient -1 arrives as p - 1)."""
    if not triples:
        return np.zeros((n, n), dtype=np.int64)
    rows, cols, vals = zip(*triples)
    out = np.zeros((n, n), dtype=np.int64
                   if sum(map(abs, vals)) < 2 ** 63 else object)
    np.add.at(out, (np.array(rows), np.array(cols)),
              np.array(vals, dtype=out.dtype))
    return out


def _left_operator(y, x_ambient, keys, key_pos, measure):
    """Matrix of H -> idem_y o H on the span, as integer numpy."""
    by_mid = {}
    for (tp, mid, beta), c in y.idem.entries.items():
        by_mid.setdefault(mid, []).append((tp, beta, int(c)))
    triples = []
    for col, (tmid, sp, delta) in enumerate(keys):
        for tp, beta, c in by_mid.get(tmid, ()):
            index = _pair_index(y.ambient[tp], y.ambient[tmid], x_ambient[sp],
                                measure)
            for gamma, v in index[(beta, delta)].items():
                triples.append((key_pos[(tp, sp, gamma)], col, c * v))
    return _bulk_matrix(len(keys), triples)


def _right_operator(x, y_ambient, keys, key_pos, measure):
    """Matrix of H -> H o idem_x on the span, as integer numpy."""
    by_mid = {}
    for (mid, sp, alpha), c in x.idem.entries.items():
        by_mid.setdefault(mid, []).append((sp, alpha, int(c)))
    triples = []
    for col, (tp, smid, gamma) in enumerate(keys):
        for sp, alpha, c in by_mid.get(smid, ()):
            index = _pair_index(y_ambient[tp], x.ambient[smid], x.ambient[sp],
                                measure)
            for delta, v in index[(gamma, alpha)].items():
                triples.append((key_pos[(tp, sp, delta)], col, c * v))
    return _bulk_matrix(len(keys), triples)


def _hom_dim_prime(x, y, keys, mu, f):
    key_pos = {k: i for i, k in enumerate(keys)}
    id_left = y.identity_cut
    id_right = x.identity_cut
    left = None if id_left else _left_operator(y, x.ambient, keys, key_pos, mu)
    right = None if id_right else _right_operator(x, y.ambient, keys, key_pos, mu)
    if left is None or right is None:
        return rank_big(right if left is None else left, f)
    return rank_big(mod_product(left, right, f.p), f)


def dense_hom_dim(x, y):
    """dim Hom(x, y) over a prime field by the dense operator's rank."""
    keys = _span_keys(x, y)
    if not keys:
        return 0
    if x.identity_cut and y.identity_cut:
        return len(keys)
    return _hom_dim_prime(x, y, keys, x.measure, x.field)


# Indecomposables, Schwartz spaces and tensor objects whose spans have
# 1 to 233 keys, so each small prime falls inside the range of len(keys).
# The dense operator costs quadratically in the keys: larger spans (the
# 919 keys of End(M:bw*M:b)) are left out.
OBJECTS = ("M:e", "M:b", "M:w", "M:bw", "M:wb", "M:bb", "M:ww", "A:1", "A:2",
           "M:b*M:w", "M:w*M:w", "M:b*M:b", "M:bw*M:b")
MAX_KEYS = 250


def _objects(field, measure):
    """OBJECTS over `field`, cut by the same idempotents under `measure`
    (each is idempotent under both measures)."""
    return [AObject(measure, x.ambient, x.idem)
            for x in (parse_aobject(lit, field) for lit in OBJECTS)]


@pytest.mark.parametrize("p, measure", [
    pytest.param(p, mu, id=f"{p}" if mu == MU2 else f"{p}-mu1")
    for mu in (MU2, MU1) for p in (2, 3, 5, 46337, 4294967311)])
def test_hom_dim_matches_the_dense_operator(p, measure):
    f = PrimeField(p)
    over_q = _objects(QQ, measure)
    over_p = _objects(f, measure)
    sizes = set()
    for xq, x in zip(over_q, over_p):
        for yq, y in zip(over_q, over_p):
            n = len(_span_keys(x, y))
            if n > MAX_KEYS:
                continue
            sizes.add(n)
            assert hom_dim(x, y) == dense_hom_dim(x, y) == hom_dim(xq, yq)
    # both certificates ran: spans below p (trace mod p) and, for the
    # small primes, spans of at least p keys (lifts idempotent over Z)
    assert min(sizes) < p
    assert p > 5 or max(sizes) >= p


def _one_minus_a(field):
    """1 - A for the idempotent A = D + UR of `matrix-examples`."""
    minus_ur = {(0, 0, "UR"): field.of_int(-1)}
    return AObject(MU2, (1,), PermMatrix((1,), (1,), minus_ur, field))


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(46337)])
def test_minus_one_entry_lifts_symmetrically(field):
    x = _one_minus_a(field).validate()
    assert hom_dim(x, x) == 1


def test_idempotent_needing_minus_one_raises_over_f2():
    # over F_2 the entry -1 reads as 1, and UR is not idempotent over Z
    # (UR o UR = -UR); with 3 >= 2 keys in the span nothing certifies it
    x = _one_minus_a(PrimeField(2)).validate()
    with pytest.raises(ValueError, match="GF\\(2\\)"):
        hom_dim(x, x)


def test_non_integral_entry_raises():
    half = PermMatrix((1,), (1,), {(0, 0, "D"): Fraction(1, 2)}, QQ)
    x = AObject(MU2, (1,), half)
    with pytest.raises(ValueError, match="non-integral"):
        hom_dim(x, x)
    with pytest.raises(ValueError, match="non-integral"):
        hom_dim(x, AObject(MU2, (1,), identity((1,), QQ)))


def test_non_integral_off_diagonal_entry_gets_the_brute_force_rank():
    # the trace reads only the diagonal blocks, so an off-diagonal 1/2 is
    # never lifted to an integer
    e = PermMatrix((1, 1), (1, 1), {(0, 0, "D"): QQ.one,
                                    (0, 1, "D"): Fraction(1, 2)}, QQ)
    x = AObject(MU2, (1, 1), e).validate()
    keys = _span_keys(x, x)
    images = [_apply_cut(PermMatrix(x.ambient, x.ambient, {k: QQ.one}, QQ),
                         x, x) for k in keys]
    brute = rank([[h.get(*k) for k in keys] for h in images], QQ)
    assert hom_dim(x, x) == brute == hom_space(x, x).dim == 3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_multiplicities_do_not_wrap_mod_p(p):
    # 2 and 3 vanish mod 2 and mod 3: the counts are solved over Q
    x = parse_aobject("M:b*M:bb", PrimeField(p))
    assert multiplicities(x) == {"bb": 2, "bbb": 3}


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3),
                                   PrimeField(46337)])
def test_identity_cuts_and_z_lifts_compare_within_one_field(field):
    # matrix equality tells fields apart; both readers stay in one field
    for lit, is_identity in (("A:2", True), ("M:e", True), ("M:bw", False),
                             ("M:b*M:w", False)):
        x = parse_aobject(lit, field)
        assert x.identity_cut is is_identity
        lifted = frozenset(_integer_entries(x.idem.entries, x.field).items())
        assert _idempotent_over_z(x.measure, x.ambient, lifted)
    doubled = frozenset({((0, 0, "D"), 2)})
    assert not _idempotent_over_z(MU2, (1,), doubled)
