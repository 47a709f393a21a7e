import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delannoy.acat import indecomposable, tensor_objects
from delannoy.fields import QQ, PrimeField
from delannoy.paths import enumerate_paths
from delannoy.schwartz import (BOUNDED, FULL_LINE, MEASURES, MU1, MU2, MU3,
                               MU4, UNBOUNDED_ABOVE, UNBOUNDED_BELOW,
                               PermMatrix, compose, gap_measure, identity,
                               matrix_from_json, matrix_to_json, tensor,
                               tensor_object, trace, transpose)
from test_generator_words import projection_matrices

# A measure and its image under reflecting the line (x -> -x).
MIRROR = {MU1: MU1, MU2: MU3, MU3: MU2, MU4: MU4}


def mat(source, target, coeffs, field=QQ):
    entries = {k: field.of_int(v) for k, v in coeffs.items()}
    return PermMatrix(source, target, entries, field)


# The two rank-one-part matrices supported on y <= x and x <= y.
A_LEQ = mat((1,), (1,), {(0, 0, "UR"): 1, (0, 0, "D"): 1})
B_GEQ = mat((1,), (1,), {(0, 0, "RU"): 1, (0, 0, "D"): 1})
ID1 = identity((1,))


def random_matrix(rng, source, target, field=QQ, density=0.5):
    entries = {}
    for ti, nt in enumerate(target):
        for si, ns in enumerate(source):
            for p in enumerate_paths(ns, nt):
                if rng.random() < density:
                    c = rng.randint(-2, 2)
                    if c:
                        entries[(ti, si, p)] = field.of_int(c)
    return PermMatrix(source, target, entries, field)


# ---------------------------------------------------------------------------
# Measures.
# ---------------------------------------------------------------------------

def test_measure_table_on_projections():
    # fiber of p_{2,1} is an interval unbounded below; p_{2,2} unbounded above
    below = [gap_measure(mu, UNBOUNDED_BELOW, 1) for mu in MEASURES]
    above = [gap_measure(mu, UNBOUNDED_ABOVE, 1) for mu in MEASURES]
    assert below == [-1, -1, 0, 0]
    assert above == [-1, 0, -1, 0]


def test_measure_examples():
    assert gap_measure(MU1, UNBOUNDED_ABOVE, 1) == -1
    assert gap_measure(MU2, UNBOUNDED_ABOVE, 1) == 0
    assert gap_measure(MU4, FULL_LINE, 1) == 1
    for mu in MEASURES:
        for kind in (BOUNDED, UNBOUNDED_ABOVE, UNBOUNDED_BELOW, FULL_LINE):
            assert gap_measure(mu, kind, 0) == 1


def test_mu4_fibration_derivation():
    # dropping the last coordinate of I^(2), I unbounded above, has fiber
    # (x_1, oo): the product rule forces the frozen value 0
    fiber = gap_measure(MU4, UNBOUNDED_ABOVE, 1)
    base = gap_measure(MU4, UNBOUNDED_ABOVE, 1)
    assert fiber * base == 0
    assert gap_measure(MU4, UNBOUNDED_ABOVE, 2) == 0
    # bounded intervals behave like mu1 under the same rule
    for k in range(5):
        assert gap_measure(MU4, BOUNDED, k) == (-1) ** k
    # the full line: mu4(R) = 1 but every higher power dies on the fiber
    assert [gap_measure(MU4, FULL_LINE, k) for k in range(4)] == [1, 1, 0, 0]


def test_mu1_is_minus_one_to_the_k_everywhere():
    for kind in (BOUNDED, UNBOUNDED_ABOVE, UNBOUNDED_BELOW, FULL_LINE):
        for k in range(5):
            assert gap_measure(MU1, kind, k) == (-1) ** k


# ---------------------------------------------------------------------------
# The one-variable matrix identities.
# ---------------------------------------------------------------------------

def test_projector_squares():
    for mu in MEASURES:
        assert compose(A_LEQ, A_LEQ, mu) == A_LEQ
        assert compose(B_GEQ, B_GEQ, mu) == B_GEQ


def test_ab_products():
    for mu in (MU1, MU3):
        assert compose(A_LEQ, B_GEQ, mu).is_zero()
    for mu in (MU2, MU4):
        assert compose(A_LEQ, B_GEQ, mu) == A_LEQ + B_GEQ - ID1
    for mu in (MU1, MU2):
        assert compose(B_GEQ, A_LEQ, mu).is_zero()
    for mu in (MU3, MU4):
        assert compose(B_GEQ, A_LEQ, mu) == A_LEQ + B_GEQ - ID1


def test_identity_unit_law():
    rng = random.Random(3)
    for _ in range(5):
        m = random_matrix(rng, (2, 1), (1, 2))
        for mu in MEASURES:
            assert compose(identity((1, 2)), m, mu) == m
            assert compose(m, identity((2, 1)), mu) == m


def test_identity_empty_object():
    assert identity(()).is_zero()
    assert identity(()).source == ()


def test_associativity():
    rng = random.Random(5)
    for _ in range(4):
        a = random_matrix(rng, (2,), (1,))
        b = random_matrix(rng, (1,), (3,))
        c = random_matrix(rng, (3,), (2,))
        for mu in MEASURES:
            left = compose(c, compose(b, a, mu), mu)
            right = compose(compose(c, b, mu), a, mu)
            assert left == right, mu


def test_transpose_is_involutive_antihomomorphism():
    rng = random.Random(9)
    a = random_matrix(rng, (2,), (1,))
    b = random_matrix(rng, (1,), (2,))
    assert transpose(transpose(a)) == a
    for mu in MEASURES:
        lhs = transpose(compose(b, a, mu))
        rhs = compose(transpose(a), transpose(b), mu)
        assert lhs == rhs, mu


@st.composite
def small_matrices(draw, source, target, field):
    keys = [(ti, si, p) for ti, nt in enumerate(target)
            for si, ns in enumerate(source)
            for p in enumerate_paths(ns, nt)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=5, unique=True))
    return PermMatrix(source, target,
                      {k: field.of_int(draw(st.integers(-2, 2)))
                       for k in chosen}, field)


small_objects = st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([QQ, PrimeField(3)]))
def test_transpose_is_an_antihomomorphism_property(data, field):
    src, mid, tgt = (data.draw(small_objects) for _ in range(3))
    a = data.draw(small_matrices(src, mid, field))
    b = data.draw(small_matrices(mid, tgt, field))
    # (B o A)^T(x, z) = int A(y, x) B(z, y) dmu(y) = (A^T o B^T)(x, z): the
    # same measure on both sides (the mirror measure differs from it as soon
    # as a middle coordinate sits in a half-line, e.g. A = U on (0,) -> (1,))
    for mu in MEASURES:
        assert transpose(compose(b, a, mu)) == compose(
            transpose(a), transpose(b), mu), mu


def reverse_paths(amat):
    """The image of a matrix under reflecting the line (x -> -x): every
    configuration reverses its order, so every path is read backwards."""
    return PermMatrix(amat.source, amat.target,
                      {(ti, si, p[::-1]): c
                       for (ti, si, p), c in amat.entries.items()},
                      amat.field)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([QQ, PrimeField(3)]))
def test_reflecting_the_line_mirrors_the_measure(data, field):
    src, mid, tgt = (data.draw(small_objects) for _ in range(3))
    a = data.draw(small_matrices(src, mid, field))
    b = data.draw(small_matrices(mid, tgt, field))
    # rev(B o_mu A) = rev(B) o_mirror(mu) rev(A): reflecting the line swaps
    # the half-lines bounded above and below, so mu2 and mu3 trade places
    for mu in MEASURES:
        assert reverse_paths(compose(b, a, mu)) == compose(
            reverse_paths(b), reverse_paths(a), MIRROR[mu]), mu


factor_objects = st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([QQ, PrimeField(3)]))
def test_tensor_interchanges_with_compose_property(data, field):
    # (A (x) B) o (C (x) D) = (A o C) (x) (B o D)
    s1, m1, t1, s2, m2, t2 = (data.draw(factor_objects) for _ in range(6))
    a = data.draw(small_matrices(m1, t1, field))
    c = data.draw(small_matrices(s1, m1, field))
    b = data.draw(small_matrices(m2, t2, field))
    d = data.draw(small_matrices(s2, m2, field))
    for mu in MEASURES:
        assert compose(tensor(a, b), tensor(c, d), mu) == tensor(
            compose(a, c, mu), compose(b, d, mu)), mu


def test_transpose_swaps_the_two_projectors():
    assert transpose(A_LEQ) == B_GEQ
    assert transpose(identity((2, 1))) == identity((2, 1))


def test_trace_values():
    assert trace(ID1, MU1) == -1
    assert trace(ID1, MU2) == 0
    assert trace(ID1, MU4) == 1
    assert trace(identity((0,)), MU2) == 1
    for n in range(4):
        assert trace(identity((n,)), MU1) == (-1) ** n


def test_trace_commutativity():
    rng = random.Random(13)
    for _ in range(4):
        a = random_matrix(rng, (2,), (1,))
        b = random_matrix(rng, (1,), (2,))
        for mu in MEASURES:
            assert trace(compose(a, b, mu), mu) == trace(compose(b, a, mu), mu)


def pure_black(matrix):
    return all(p and p[-1] in "RD" for (_, _, p) in matrix.entries)


def test_pure_black_products_agree_under_mu1_mu2():
    rng = random.Random(17)
    for _ in range(6):
        a = random_matrix(rng, (2,), (2,))
        b = random_matrix(rng, (2,), (2,))
        a = PermMatrix(a.source, a.target,
                       {k: v for k, v in a.entries.items() if k[2][-1] in "RD"})
        b = PermMatrix(b.source, b.target,
                       {k: v for k, v in b.entries.items() if k[2][-1] in "RD"})
        p1 = compose(b, a, MU1)
        p2 = compose(b, a, MU2)
        assert p1 == p2
        assert pure_black(p1) or p1.is_zero()


# ---------------------------------------------------------------------------
# Tensor.
# ---------------------------------------------------------------------------

def test_tensor_object_of_line_with_line():
    parts, index = tensor_object((1,), (1,))
    assert parts == (2, 2, 1)  # R x R = R^(2) + R^(2) + R (orbit order UR, RU, D)
    assert index[(0, 0, "D")] == 2


def test_tensor_of_identities_is_identity():
    t = tensor(identity((1,)), identity((1,)))
    assert t == identity((2, 2, 1))


def test_tensor_unit_object():
    rng = random.Random(21)
    a = random_matrix(rng, (2, 1), (1,))
    assert tensor(a, identity((0,))) == a
    assert tensor(identity((0,)), a) == a


def test_tensor_bifunctoriality():
    rng = random.Random(23)
    for _ in range(3):
        a = random_matrix(rng, (1,), (1,), density=0.7)
        b = random_matrix(rng, (1,), (2,), density=0.4)
        a2 = random_matrix(rng, (1,), (1,), density=0.7)
        b2 = random_matrix(rng, (1,), (1,), density=0.7)
        for mu in MEASURES:
            lhs = tensor(compose(b, a, mu), compose(b2, a2, mu))
            rhs = compose(tensor(b, b2), tensor(a, a2), mu)
            assert lhs == rhs, mu


def test_tensor_keys_hold_one_string_per_joint_path():
    # many entry pairs share a joint path: 7,880 entries on 1,118 paths
    t = tensor_objects(indecomposable("bw"), indecomposable("wbw")).idem
    paths = [path for _, _, path in t.entries]
    assert len(paths) == 7880
    assert len(set(paths)) == len({id(path) for path in paths}) == 1118


# ---------------------------------------------------------------------------
# Projections, serialization, fields.
# ---------------------------------------------------------------------------

def test_projection_round_trip():
    push, pull = projection_matrices(1, 1)
    assert pull == transpose(push)
    assert compose(push, pull, MU1) == identity((0,)).scale(Fraction(-1))
    assert compose(push, pull, MU2).is_zero()
    with pytest.raises(ValueError):
        projection_matrices(2, 3)


def test_json_round_trip():
    rng = random.Random(29)
    m = random_matrix(rng, (2,), (1, 2))
    data = matrix_to_json(m)
    assert matrix_from_json(data) == m


def test_prime_field_matrices():
    f = PrimeField(7)
    a = mat((1,), (1,), {(0, 0, "UR"): 1, (0, 0, "D"): 1}, field=f)
    for mu in MEASURES:
        assert compose(a, a, mu) == a
    assert trace(a, MU1) == f.of_int(-1)


def test_equality_and_hash_respect_the_field():
    gf3, gf5 = PrimeField(3), PrimeField(5)
    two3 = PermMatrix((1,), (1,), {(0, 0, "D"): 2}, gf3)
    two5 = PermMatrix((1,), (1,), {(0, 0, "D"): 2}, gf5)
    assert two3 != two5 and hash(two3) != hash(two5)
    one_q = PermMatrix((1,), (1,), {(0, 0, "D"): Fraction(1)})
    one_2 = PermMatrix((1,), (1,), {(0, 0, "D"): 1}, PrimeField(2))
    assert one_q != one_2 and hash(one_q) != hash(one_2)
    assert len({two3, two5, one_q, one_2}) == 4
    # within one field nothing changes: 5 is 2 in GF(3)
    assert two3 == PermMatrix((1,), (1,), {(0, 0, "D"): 5}, gf3)
    assert one_q == PermMatrix((1,), (1,), {(0, 0, "D"): 1})
    assert hash(one_q) == hash(identity((1,)))


def test_unreduced_prime_field_entries_hash_like_their_residues():
    gf3 = PrimeField(3)
    x = PermMatrix((1,), (1,), {(0, 0, "D"): 5, (0, 0, "UR"): -1}, gf3)
    y = PermMatrix((1,), (1,), {(0, 0, "D"): 2, (0, 0, "UR"): 2}, gf3)
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1
    assert x.entries == {(0, 0, "D"): 2, (0, 0, "UR"): 2}


def test_entries_given_as_items_are_checked_like_a_dict():
    gf3 = PrimeField(3)
    items = [((0, 0, "UR"), 4), ((0, 0, "D"), 3), ((0, 0, "UR"), 5)]
    x = PermMatrix((1,), (1,), iter(items), gf3)
    assert list(x.entries.items()) == [((0, 0, "UR"), 2)]
    assert x == PermMatrix((1,), (1,), dict(items), gf3)
    with pytest.raises(ValueError):
        PermMatrix((1,), (1,), iter([((0, 0, "RR"), Fraction(1))]))


def test_shape_validation():
    with pytest.raises(ValueError):
        PermMatrix((1,), (1,), {(0, 0, "RR"): Fraction(1)})
    with pytest.raises(ValueError):
        compose(A_LEQ, identity((2,)), MU1)
    with pytest.raises(ValueError):
        trace(PermMatrix((1,), (2,), {}), MU1)
