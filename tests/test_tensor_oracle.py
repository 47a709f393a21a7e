"""`tensor` against the coordinate construction it replaced.

`oracle_tensor` is `schwartz.tensor` as it was before the tensor walked the
steps of `paths.interleavings`: it realises both entry paths as integer
configurations, relabels them along every interleaving and reads the three
paths back with `path_of_pair`.  It stays here verbatim (apart from its
name, and `_relabel` beside it) as the oracle.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from delannoy.acat import e_lambda
from delannoy.fields import QQ, PrimeField
from delannoy.paths import enumerate_paths, path_of_pair, representative
from delannoy.schwartz import PermMatrix, tensor, tensor_object
from delannoy.weights import enumerate_weights


def _relabel(tup, mapping):
    return tuple(mapping[v] for v in tup)


def oracle_tensor(amat, bmat):
    """Kronecker product, re-expanded over orbit parts of the product objects.

    Measure-independent.  An entry of the result at a joint orbit is the
    product of the two component entries at the reconstructed component
    configurations.
    """
    if amat.field != bmat.field:
        raise ValueError("field mismatch")
    f = amat.field
    src_parts, src_index = tensor_object(amat.source, bmat.source)
    tgt_parts, tgt_index = tensor_object(amat.target, bmat.target)
    entries = {}
    for (ta, sa, pa), ca in amat.entries.items():
        ya, xa = representative(pa)
        pts_a = sorted(set(ya) | set(xa))
        la = len(pts_a)
        for (tb, sb, pb), cb in bmat.entries.items():
            yb, xb = representative(pb)
            pts_b = sorted(set(yb) | set(xb))
            lb = len(pts_b)
            coeff = f.mul(ca, cb)
            # every relative interleaving of the a-points with the b-points
            for walk in enumerate_paths(lb, la):
                map_a, map_b = {}, {}
                ia = ib = 0
                for pos, step in enumerate(walk, start=1):
                    if step in ("U", "D"):
                        map_a[pts_a[ia]] = pos
                        ia += 1
                    if step in ("R", "D"):
                        map_b[pts_b[ib]] = pos
                        ib += 1
                ya2, xa2 = _relabel(ya, map_a), _relabel(xa, map_a)
                yb2, xb2 = _relabel(yb, map_b), _relabel(xb, map_b)
                dt = path_of_pair(ya2, yb2)
                ds = path_of_pair(xa2, xb2)
                gamma = path_of_pair(tuple(sorted(set(ya2) | set(yb2))),
                                     tuple(sorted(set(xa2) | set(xb2))))
                key = (tgt_index[(ta, tb, dt)], src_index[(sa, sb, ds)], gamma)
                entries[key] = coeff
    return PermMatrix(src_parts, tgt_parts, entries, f)


# One or two parts of size 0 to 3, so empty paths and empty walks occur.
objects = st.lists(st.integers(0, 3), min_size=1, max_size=2).map(tuple)


@st.composite
def matrices(draw, field):
    source, target = draw(objects), draw(objects)
    keys = [(ti, si, p) for ti, nt in enumerate(target)
            for si, ns in enumerate(source)
            for p in enumerate_paths(ns, nt)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    if field == QQ:
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        coeffs = st.integers(0, field.p - 1).map(field.of_int)
    return PermMatrix(source, target, {k: draw(coeffs) for k in chosen},
                      field)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([QQ, PrimeField(3)]))
def test_tensor_matches_oracle_property(data, field):
    a = data.draw(matrices(field))
    b = data.draw(matrices(field))
    assert tensor(a, b) == oracle_tensor(a, b)


def test_tensor_of_size_zero_parts_matches_oracle():
    a = PermMatrix((0, 2), (0, 1), {(0, 0, ""): Fraction(2),
                                     (1, 1, "RUR"): Fraction(-1, 3)})
    b = PermMatrix((0,), (0, 0), {(0, 0, ""): Fraction(5),
                                  (1, 0, ""): Fraction(1)})
    for x, y in ((a, b), (b, a), (b, b)):
        assert tensor(x, y) == oracle_tensor(x, y)


def test_tensor_of_idempotents_matches_oracle():
    weights = enumerate_weights(2)
    for lam in weights:
        for mu in weights:
            a, b = e_lambda(lam), e_lambda(mu)
            assert tensor(a, b) == oracle_tensor(a, b), (lam, mu)
