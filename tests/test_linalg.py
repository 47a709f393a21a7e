import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delannoy import linalg
from delannoy.acat import degenerate_quotient_dim
from delannoy.fields import QQ, PrimeField
from delannoy.linalg import (_MOD_PRIMES, SpanBuilder, _rat_reconstruct,
                             _verifies, nullspace, rank, rank_big,
                             rank_kernel_int, rref, solve)


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_rref_small():
    red, piv = rref(frac_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    assert piv == [0, 2]
    assert red == frac_rows([[1, 2, 0], [0, 0, 1]])


def test_rank_and_nullspace():
    rows = frac_rows([[1, 2, 3], [2, 4, 6]])
    assert rank(rows) == 1
    ker = nullspace(rows, 3)
    assert len(ker) == 2
    for v in ker:
        assert all(sum(r[i] * v[i] for i in range(3)) == 0 for r in rows)


def test_solve():
    rows = frac_rows([[1, 1], [1, -1]])
    x = solve(rows, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    assert solve(frac_rows([[1, 1], [2, 2]]), [Fraction(1), Fraction(3)]) is None
    # multiple right-hand sides
    xs = solve(rows, [[Fraction(3), Fraction(1)], [Fraction(0), Fraction(2)]])
    assert xs == [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(-1)]]


def test_span_builder_matches_rank():
    rng = random.Random(7)
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(10)]
    sb = SpanBuilder(6)
    for r in rows:
        sb.insert(r)
    assert sb.dim == rank(rows)
    for r in rows:
        assert sb.contains(r)


def test_rank_kernel_int_certified():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    r, ker = rank_kernel_int(rows, 3)
    assert r == 2
    assert len(ker) == 1
    v = ker[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_rank_big_matches_fraction_rank():
    rng = random.Random(11)
    for trial in range(20):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 9)
        base = [[rng.randint(-5, 5) for _ in range(ncols)]
                for _ in range(rng.randint(1, min(nrows, ncols)))]
        rows = [list(rng.choice(base)) for _ in range(nrows)]
        for i in range(0, nrows, 2):
            rows[i] = [a + b for a, b in zip(rows[i], rng.choice(base))]
        fr = frac_rows(rows)
        assert rank_big(fr) == rank(fr)


def test_rank_big_with_fractions():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert rank_big(rows) == rank(rows) == 1  # det = 1/2 - 1/2
    rows2 = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert rank_big(rows2) == rank(rows2) == 2


def test_prime_field_rank():
    f = PrimeField(5)
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    gf_rows = [[f.of_int(x) for x in r] for r in rows]
    assert rank(gf_rows, f) == 2
    assert rank_big(gf_rows, f) == 2
    # 5 | 10, so this matrix drops rank mod 5 but not over Q
    rows2 = [[10, 0], [0, 1]]
    assert rank([[f.of_int(x) for x in r] for r in rows2], f) == 1
    assert rank_big(frac_rows(rows2), QQ) == 2


def test_rat_reconstruct():
    m = _MOD_PRIMES[0] * _MOD_PRIMES[1]
    assert _rat_reconstruct(0, m) == 0
    assert _rat_reconstruct(m, m) == 0
    assert _rat_reconstruct(-7 * pow(3, -1, m) % m, m) == Fraction(-7, 3)
    # largest numerator and denominator the bound isqrt(m // 2) admits
    b = 32761
    assert b * b <= m // 2 < (b + 1) * (b + 1)
    assert _rat_reconstruct(-b * pow(b - 1, -1, m) % m, m) == Fraction(-b, b - 1)
    # no n/d with |n|, d <= 152 is 12345 mod 46337
    assert _rat_reconstruct(12345, 46337) is None


def _no_fraction_fallback(*args, **kwargs):
    raise AssertionError("Fraction fallback ran")


@pytest.mark.parametrize("rows, ncols, expected", [
    ([[1, 0, 0], [0, 1, 0]], 3, 2),
    ([[0, 0, 0]], 3, 0),
    ([[2, 3, 0, 0, 0], [4, 6, 0, 0, 0], [0, 0, 0, 1, -1], [0, 0, 0, 2, -2]],
     5, 2),
    ([[1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 5]], 6, 3),
])
def test_rank_kernel_int_certifies_zero_heavy(monkeypatch, rows, ncols,
                                              expected):
    monkeypatch.setattr(linalg, "rref", _no_fraction_fallback)
    r, ker = rank_kernel_int(rows, ncols)
    assert r == expected and len(ker) == ncols - r
    for v in ker:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degenerate_ideal_certifies_without_fallback(monkeypatch, n):
    monkeypatch.setattr(linalg, "rref", _no_fraction_fallback)
    assert degenerate_quotient_dim(n) == 2 ** n


def test_rank_kernel_int_fallback_warns(monkeypatch):
    monkeypatch.setattr(linalg, "_rat_reconstruct", lambda a, m: None)
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    with pytest.warns(RuntimeWarning, match=r"3x3 .* 18 primes"):
        r, ker = rank_kernel_int(rows, 3)
    assert r == rank(frac_rows(rows)) == 2
    assert len(ker) == 1
    assert all(sum(a * b for a, b in zip(row, ker[0])) == 0 for row in rows)


def test_verifies_int64_and_python_int_branches():
    a = np.array([[1, -1, 0], [0, 2, -2]], dtype=np.int64)
    assert _verifies(a, [[Fraction(1)] * 3])
    assert not _verifies(a, [[Fraction(1), Fraction(1), Fraction(0)]])
    assert _verifies(a, [])
    # 2**32 * 2**31 * 2 = 2**64 wraps to 0 in int64; the bound must
    # route this product through Python ints and reject the vector.
    a = np.array([[2 ** 32, 2 ** 32]], dtype=np.int64)
    assert not _verifies(a, [[Fraction(2 ** 31), Fraction(2 ** 31)]])
    assert _verifies(a, [[Fraction(2 ** 31), Fraction(-2 ** 31)]])


@st.composite
def low_rank_int_matrices(draw):
    """Integer matrices of low rank with zero columns, zero-heavy kernels,
    and rows perturbed by multiples of the first primes so that the rank
    drops mod those primes; `big` shifts the entries near 2**40."""
    ncols = draw(st.integers(1, 7))
    k = draw(st.integers(0, min(ncols, 4)))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    big = draw(st.booleans())
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    basis = [[0 if c in zero_cols else draw(entry) + (big << 40)
              for c in range(ncols)] for _ in range(k)]
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        coeffs = [draw(st.integers(-2, 2)) for _ in range(k)]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, basis))
                     for j in range(ncols)])
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, ncols - 1))
        rows[i][j] += draw(st.sampled_from([_MOD_PRIMES[0],
                                            _MOD_PRIMES[0] * _MOD_PRIMES[1]]))
    return rows, ncols


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(low_rank_int_matrices())
@example(([[1, 2 ** 40, 5], [2 ** 40 + 1, 3, 7], [2 ** 40 + 2, 2 ** 40 + 3, 12]],
          3))
@example(([[1, 0, 0], [0, _MOD_PRIMES[0], 0]], 3))
def test_rank_big_against_fraction_rank(case):
    rows, ncols = case
    fr = frac_rows(rows)
    expected = rank(fr)
    assert rank_big(fr) == expected
    r, ker = rank_kernel_int(rows, ncols)
    assert r == expected and len(ker) == ncols - r
    for v in ker:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


def test_big_entries_verify_over_python_ints():
    # rank 2; the kernel is spanned by the cross product of the first two
    # rows, whose entries are ~2**80, far beyond the int64 bound
    rows = [[1, 2 ** 40, 5], [2 ** 40 + 1, 3, 7]]
    rows.append([x + y for x, y in zip(*rows)])
    r, ker = rank_kernel_int(rows, 3)
    assert r == 2 and len(ker) == 1
    v = ker[0]
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
    den = max(x.denominator for x in v)
    row_l1 = max(sum(abs(a) for a in row) for row in rows)
    assert row_l1 * max(abs(x * den) for x in v) >= 2 ** 63


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rank_big_entries_beyond_int64():
    # scaling the first row by 2**70 puts entries outside int64; the rows
    # stay Python ints, are reduced mod p, and still certify
    rows = [[Fraction(1, 2 ** 70), Fraction(1)], [Fraction(1), Fraction(2 ** 70)]]
    assert rank_big(rows) == rank(rows) == 1
    rows[1][1] += 1
    assert rank_big(rows) == rank(rows) == 2
    r, ker = rank_kernel_int([[2 ** 70, 3, 1], [2 ** 71, 6, 2]], 3)
    assert r == 1 and len(ker) == 2


# ---------------------------------------------------------------------------
# Property tests of the exact kernel (`rref`, `nullspace`, `solve` all run on
# `SpanBuilder`) against the independent batch kernel `_mod_rref`.
# ---------------------------------------------------------------------------

GF = PrimeField(46337)
BIG = PrimeField(4294967311)  # (p-1)**2 > 2**63: object arrays in _mod_rref


def _oracle_rank(rows, field):
    """Rank by the other elimination kernel: `_mod_rref` over a prime field,
    the certified modular path over Q."""
    return rank_big(rows, field) if rows and rows[0] else 0


@st.composite
def field_matrices(draw, fields=(QQ, GF)):
    """(field, rows, ncols) with empty, zero, duplicate and rank-deficient
    rows; rational entries carry small denominators, prime-field entries
    include p - 1."""
    field = draw(st.sampled_from(fields))
    ncols = draw(st.integers(0, 6))
    if field == QQ:
        entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    else:
        entry = st.sampled_from([0, 0, 1, 2, field.p - 1, field.p // 2])
    basis = [[draw(entry) for _ in range(ncols)]
             for _ in range(draw(st.integers(0, 4)))]
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["zero", "dup", "combo", "free"]))
        if kind == "zero" or (kind != "free" and not basis):
            rows.append([field.zero] * ncols)
        elif kind == "dup":
            rows.append(list(draw(st.sampled_from(basis))))
        elif kind == "combo":
            row = [field.zero] * ncols
            for b in basis:
                c = field.of_int(draw(st.integers(-2, 2)))
                row = [field.add(x, field.mul(c, y)) for x, y in zip(row, b)]
            rows.append(row)
        else:
            rows.append([draw(entry) for _ in range(ncols)])
    return field, rows, ncols


def _is_zero_vec(v, field):
    return all(field.is_zero(x) for x in v)


@settings(max_examples=200, deadline=None)
@given(field_matrices())
def test_rref_is_reduced_echelon_with_input_rank(case):
    field, rows, ncols = case
    red, piv = rref(rows, field)
    assert len(red) == len(piv) == _oracle_rank(rows, field)
    assert piv == sorted(set(piv))
    for i, (row, c) in enumerate(zip(red, piv)):
        assert len(row) == ncols
        assert all(field.is_zero(x) for x in row[:c])
        assert field.eq(row[c], field.one)
        assert all(field.is_zero(other[c]) for j, other in enumerate(red) if j != i)
    # every input row is the combination of the RREF rows read off its
    # pivot entries, so the row spaces agree
    for row in rows:
        combo = [field.zero] * ncols
        for r, c in zip(red, piv):
            combo = [field.add(x, field.mul(row[c], y)) for x, y in zip(combo, r)]
        assert all(field.eq(x, y) for x, y in zip(combo, row))


@settings(max_examples=200, deadline=None)
@given(field_matrices())
def test_nullspace_vectors_are_kernel_and_count(case):
    field, rows, ncols = case
    ker = nullspace(rows, ncols, field)
    assert len(ker) == ncols - _oracle_rank(rows, field)
    for v in ker:
        assert len(v) == ncols
        assert _is_zero_vec(linalg.mat_vec(rows, v, field), field)
    assert _oracle_rank(ker, field) == len(ker)


@settings(max_examples=200, deadline=None)
@given(field_matrices(), st.data())
def test_solve_solves_and_is_none_exactly_when_rank_grows(case, data):
    field, rows, ncols = case
    small = st.integers(-3, 3).map(field.of_int)
    consistent = linalg.mat_vec(rows, [data.draw(small) for _ in range(ncols)],
                                field)
    anything = [data.draw(small) for _ in rows]

    def solves(x, rhs):
        got = linalg.mat_vec(rows, x, field)
        return all(field.eq(a, b) for a, b in zip(got, rhs))

    for rhs in (consistent, anything):
        x = solve(rows, rhs, field)
        aug = [list(r) + [c] for r, c in zip(rows, rhs)]
        grows = _oracle_rank(aug, field) > _oracle_rank(rows, field)
        assert (x is None) == grows
        assert x is None or solves(x, rhs)
    # several right-hand sides at once: None if any column is inconsistent
    xs = solve(rows, [consistent, anything], field)
    if rows:
        assert (xs is None) == (solve(rows, anything, field) is None)
    assert xs is None or (solves(xs[0], consistent) and solves(xs[1], anything))


@settings(max_examples=150, deadline=None)
@given(field_matrices(fields=(BIG,)))
def test_rank_big_over_a_prime_beyond_the_int64_rule(case):
    field, rows, ncols = case
    assert _oracle_rank(rows, field) == rank(rows, field)


@pytest.mark.parametrize("a, b, nu", [
    ("", "w", ""), ("", "w", "w"), ("", "bw", "bw"), ("w", "w", "ww"),
    ("w", "b", "b"), ("w", "bw", "wb"), ("b", "wb", "bb"), ("b", "bw", "bw"),
])
def test_hom_dim_over_a_big_prime_matches_the_trace_route(a, b, nu):
    # over QQ hom_dim is a trace; over BIG it is rank_big of the dense
    # operator, eliminated over Python ints
    from delannoy.acat import hom_dim, indecomposable, tensor_objects
    x = [tensor_objects(indecomposable(a, field=f), indecomposable(b, field=f))
         for f in (QQ, BIG)]
    y = [indecomposable(nu, field=f) for f in (QQ, BIG)]
    assert hom_dim(x[0], y[0]) == hom_dim(x[1], y[1])
    assert hom_dim(y[0], x[0]) == hom_dim(y[1], x[1])


def test_operator_assembly_keeps_sums_beyond_int64():
    # over a prime field a coefficient -1 arrives as p - 1, so the summed
    # terms of one operator entry can pass 2**63; they must not wrap
    from delannoy.acat import _bulk_matrix
    m = _bulk_matrix(2, [(0, 1, 2 ** 62), (0, 1, 2 ** 62), (1, 0, 3)])
    assert m.tolist() == [[0, 2 ** 63], [3, 0]]
    assert _bulk_matrix(2, [(1, 0, 3)]).dtype == np.int64
