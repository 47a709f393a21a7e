"""`compose` against the two-loop composition it replaced.

`oracle_compose` is `schwartz.compose` as it was before matrices kept their
grouped operands: it converts both operands' entries on every call and runs
one inner loop for integral rationals and another for field elements.  It
stays here verbatim as the oracle, apart from its name and its reads of the
structure constants, which now come one measure at a time.  The property draws
integral and non-integral rational operands and prime-field ones, and reuses
one operand on both sides of many calls, so a stale or shared operand cache
would show.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from delannoy.fields import QQ, PrimeField
from delannoy.paths import enumerate_paths
from delannoy.schwartz import (MEASURES, PermMatrix, _int_value, _pair_index,
                               compose)


def oracle_compose(bmat, amat, measure):
    """The product B*A with respect to the measure; B's source = A's target."""
    if bmat.source != amat.target:
        raise ValueError("object mismatch: source of left factor != target of right")
    if bmat.field != amat.field:
        raise ValueError("field mismatch")
    f = bmat.field
    # integral rational matrices compose in plain int arithmetic
    fast = f == QQ
    if fast:
        b_items, a_items = [], []
        for k, c in bmat.entries.items():
            v = _int_value(c)
            if v is None:
                fast = False
                break
            b_items.append((k, v))
        if fast:
            for k, c in amat.entries.items():
                v = _int_value(c)
                if v is None:
                    fast = False
                    break
                a_items.append((k, v))
    if not fast:
        b_items = list(bmat.entries.items())
        a_items = list(amat.entries.items())
    a_by_mid = {}
    for (mi, si, alpha), c in a_items:
        a_by_mid.setdefault(mi, []).append((si, alpha, c))
    out = {}
    if fast:
        for (ti, mi, beta), bc in b_items:
            hits = a_by_mid.get(mi)
            if not hits:
                continue
            tgt, mid = bmat.target[ti], bmat.source[mi]
            for si, alpha, ac in hits:
                per = _pair_index(tgt, mid, amat.source[si],
                                  measure)[(beta, alpha)]
                if not per:
                    continue
                bac = bc * ac
                for gamma, c in per.items():
                    key = (ti, si, gamma)
                    out[key] = out.get(key, 0) + bac * c
        # plain ints are valid rational coefficients; skip the boxing
        out = {k: v for k, v in out.items() if v}
        return PermMatrix(amat.source, bmat.target, out, f)
    for (ti, mi, beta), bc in b_items:
        hits = a_by_mid.get(mi)
        if not hits:
            continue
        for si, alpha, ac in hits:
            per = _pair_index(bmat.target[ti], bmat.source[mi],
                              amat.source[si], measure)[(beta, alpha)]
            if not per:
                continue
            bac = f.mul(bc, ac)
            for gamma, c in per.items():
                key = (ti, si, gamma)
                out[key] = f.add(out.get(key, f.zero), f.mul(bac, f.of_int(c)))
    return PermMatrix(amat.source, bmat.target, out, f)


PRIMES = (PrimeField(2), PrimeField(3), PrimeField(46337))

objects = st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple)


@st.composite
def matrices(draw, source, target, field, non_integral=False):
    """A matrix over `field`; a rational one holds Fractions and plain ints,
    and at least one non-integral entry when `non_integral` is set."""
    keys = [(ti, si, p) for ti, nt in enumerate(target)
            for si, ns in enumerate(source)
            for p in enumerate_paths(ns, nt)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=int(non_integral),
                           max_size=8, unique=True))
    entries = {}
    for k in chosen:
        if field == QQ:
            n = draw(st.integers(-3, 3))
            entries[k] = n if draw(st.booleans()) else Fraction(n)
        else:
            entries[k] = draw(st.integers(0, field.p - 1))
    if non_integral:
        entries[chosen[0]] = Fraction(2 * draw(st.integers(-2, 2)) + 1,
                                      draw(st.integers(2, 5)))
    return PermMatrix(source, target, entries, field)


def _same(got, want):
    assert got == want
    assert got.entries == want.entries
    assert (got.source, got.target, got.field) == \
        (want.source, want.target, want.field)


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(("integral", "non-integral", "prime")))
def test_compose_matches_the_oracle_under_all_measures(data, kind):
    field = data.draw(st.sampled_from(PRIMES)) if kind == "prime" else QQ
    src, mid, tgt = data.draw(objects), data.draw(objects), data.draw(objects)

    def draw(source, target, non_integral=False):
        return data.draw(matrices(source, target, field, non_integral))

    frac = kind == "non-integral"
    e = draw(mid, mid, frac)                      # used on both sides
    a = draw(src, mid, frac and data.draw(st.booleans()))
    b = draw(mid, tgt, frac and data.draw(st.booleans()))
    before = [(m, PermMatrix(m.source, m.target, m.entries, m.field), hash(m))
              for m in (e, a, b)]
    for mu in MEASURES:
        for left, right in ((e, e), (e, a), (b, e), (b, a), (e, e)):
            _same(compose(left, right, mu), oracle_compose(left, right, mu))
        ee, ea = compose(e, e, mu), compose(e, a, mu)
        _same(compose(ee, ea, mu), oracle_compose(
            oracle_compose(e, e, mu), oracle_compose(e, a, mu), mu))
        _same(compose(b, ea, mu), oracle_compose(b, ea, mu))
    for m, copy, h in before:
        assert m == copy and hash(m) == h
