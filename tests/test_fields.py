"""Exact element types of the rationals.

An integral rational is a Python int and only a non-integral one a Fraction,
so that elimination with unit pivots runs on ints.  The differential tests
hold the kernel's answers on int and mixed int/Fraction matrices to its
answers on the same matrices with every entry a Fraction.  A prime field
accepts exactly the primes, large ones included.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delannoy.bmod import min_projective_resolution, named_bmodule
from delannoy.fields import QQ, PrimeField
from delannoy.linalg import homology_dims, nullspace, rank, rref, solve
from delannoy.weights import enumerate_weights


def _exact(value):
    """True if every number in `value` (nested lists, tuples) is an int or
    a Fraction."""
    if isinstance(value, (list, tuple)):
        return all(_exact(v) for v in value)
    return value is None or type(value) in (int, Fraction)


def test_prime_field_takes_large_primes_at_once():
    start = time.perf_counter()
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.5
    for p in (2, 3, 41, 43, 46337, 999999999989):
        assert PrimeField(p).p == p


# 561 is a Carmichael number, 2047 a strong pseudoprime to base 2,
# 3215031751 to the bases 2, 3, 5, 7, and 3825123056546413051 to every
# base up to 31.
@pytest.mark.parametrize("n", [0, 1, 4, 561, 2047, 3215031751,
                               3825123056546413051])
def test_prime_field_rejects_non_primes(n):
    with pytest.raises(ValueError, match="not a prime"):
        PrimeField(n)


def test_prime_field_refuses_what_it_cannot_decide():
    with pytest.raises(ValueError, match="below 3317044064679887385961981"):
        PrimeField(2 ** 89 - 1)


def test_inverse_of_a_non_unit_is_a_fraction():
    half = QQ.inv(2)
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert type(QQ.inv(Fraction(2, 3))) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_inverse_of_a_unit_is_an_int():
    for a in (1, -1, Fraction(1), Fraction(-1)):
        assert type(QQ.inv(a)) is int and QQ.inv(a) == a


def test_of_int_takes_integers_only():
    three = QQ.of_int(np.int64(3))
    assert type(three) is int and three == 3
    assert type(QQ.zero) is int and type(QQ.one) is int
    with pytest.raises(TypeError):
        QQ.of_int(2.0)


def test_parse_gives_an_int_for_an_integer():
    assert type(QQ.parse("4/2")) is int and QQ.parse("4/2") == 2
    assert QQ.parse("-3") == -3 and type(QQ.parse("-3")) is int
    assert QQ.parse("3/6") == Fraction(1, 2)


RATIONALS = st.one_of(st.integers(-5, 5),
                      st.builds(Fraction, st.integers(-5, 5),
                                st.integers(1, 4)))


@settings(max_examples=200, deadline=None)
@given(RATIONALS, RATIONALS)
def test_no_operation_returns_a_float(a, b):
    results = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a),
               QQ.parse(QQ.format(a))]
    if b != 0:
        results.append(QQ.inv(b))
    assert _exact(results)
    assert QQ.parse(QQ.format(a)) == a


def test_unit_pivots_keep_elimination_in_ints():
    red, piv = rref([[1, 2, 3], [2, 3, 4], [3, 5, 7]])
    assert piv == [0, 1] and red == [[1, 0, -1], [0, 1, 2]]
    assert all(type(x) is int for row in red for x in row)


@st.composite
def int_and_mixed_matrices(draw):
    """(rows, ncols, rhs): int or mixed int/Fraction matrices, zero-heavy,
    with rows that are combinations of others (so the rank drops) and
    non-unit pivots (2, 3, 1/2)."""
    ncols = draw(st.integers(0, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -2])
    if draw(st.booleans()):
        entry = st.one_of(entry, st.sampled_from(
            [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]))
    basis = [[draw(entry) for _ in range(ncols)]
             for _ in range(draw(st.integers(0, 4)))]
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if basis and draw(st.booleans()):
            row = [0] * ncols
            for b in basis:
                c = draw(st.integers(-2, 2))
                row = [x + c * y for x, y in zip(row, b)]
            rows.append(row)
        else:
            rows.append([draw(entry) for _ in range(ncols)])
    rhs = [draw(entry) for _ in rows]
    return rows, ncols, rhs


def _as_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(int_and_mixed_matrices())
@example(([[2, 4], [3, 6]], 2, [1, 2]))
@example(([[Fraction(1, 2), 1], [1, 2], [0, 3]], 2, [1, 2, 3]))
@example(([[3, 0, 1], [0, 2, 1], [3, 2, 2]], 3, [0, 0, 1]))
def test_kernel_on_ints_equals_kernel_on_fractions(case):
    rows, ncols, rhs = case
    fr, fr_rhs = _as_fractions(rows), [Fraction(x) for x in rhs]
    got = (rref(rows), rank(rows), nullspace(rows, ncols),
           solve(rows, rhs),
           homology_dims([len(rows), ncols], [None, rows]))
    want = (rref(fr), rank(fr), nullspace(fr, ncols),
            solve(fr, fr_rhs),
            homology_dims([len(fr), ncols], [None, fr]))
    assert got == want
    assert _exact(got[:4])


def test_resolution_coefficients_over_q_are_unit_ints():
    # The elimination over Q stays in ints because every differential
    # coefficient of the resolutions the suites read is the int 1 or -1.
    coeffs = [c for kind in ("S", "Stan", "Cost", "Q", "I")
              for lam in enumerate_weights(3)
              for diff in min_projective_resolution(
                  named_bmodule(kind, lam), 4).diffs.values()
              for c in diff.values()]
    assert len(coeffs) == 396
    assert all(type(c) is int and c in (1, -1) for c in coeffs)
