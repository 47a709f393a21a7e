"""`bmod.tor_bmod` against the assembled route of `tor_oracle`.

The engine keeps each degree Z_k of Tor's tensor complex as its summands
x (x) y and its differential as blocks between them, and reads
Hom(M_nu, Z_k) summand by summand.  `tor_oracle` assembles each degree
into one object and one differential first.  On pairs of named modules
over Q and GF(3) both give the same Tor dims; the blocks, shifted to the
summands' part offsets and summed, are the assembled differential; and the
summands' hom dimensions add up to that of the assembled term.
"""

from itertools import accumulate

import pytest

from delannoy.acat import hom_dim, indecomposable
from delannoy.bmod import (matrix_complex, min_projective_resolution,
                           named_bmodule, tensor_matrix_complexes, tor_bmod)
from delannoy.fields import QQ, PrimeField
from delannoy.schwartz import MU2
from delannoy.weights import enumerate_weights
import tor_oracle

FIELDS = [QQ, PrimeField(3)]

# Pairs of named modules whose Tor_{<=1} at nu <= 2 takes well under a
# second on each route, over both fields.
PAIRS = [(("S", "w"), ("S", "w")), (("S", "w"), ("S", "b")),
         (("S", "w"), ("P", "b")), (("S", "w"), ("I", "")),
         (("S", "b"), ("S", "b")), (("S", "b"), ("Stan", "w")),
         (("S", "b"), ("I", "")), (("Stan", "w"), ("I", "")),
         (("I", ""), ("I", ""))]


def _modules(pair, field):
    return [named_bmodule(*x, field) for x in pair]


def _pair_id(pair):
    return "-".join(f"{kind}_{lam or 'e'}" for kind, lam in pair)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_tor_matches_the_assembled_route(field, pair):
    m, n = _modules(pair, field)
    assert tor_bmod(m, n, 1, nu_len=2) == \
        tor_oracle.tor_bmod(m, n, 1, nu_len=2)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("pair", PAIRS[:4], ids=_pair_id)
def test_summands_and_blocks_assemble_to_the_oracle_complex(field, pair):
    m, n = _modules(pair, field)
    cpx = tensor_matrix_complexes(
        matrix_complex(min_projective_resolution(m, 2)),
        matrix_complex(min_projective_resolution(n, 2)), 2)
    objects, diffs = tor_oracle.tor_objects(m, n, 1)
    assert len(cpx) == len(objects)
    starts = []
    for k, ((summands, blocks), z) in enumerate(zip(cpx, objects)):
        assert tuple(s for x in summands for s in x.ambient) == z.ambient
        starts.append(list(accumulate((len(x.ambient) for x in summands),
                                      initial=0)))
        for nu in enumerate_weights(2):
            m_nu = indecomposable(nu, MU2, field)
            assert sum(hom_dim(m_nu, x) for x in summands) == \
                hom_dim(m_nu, z)
        if not k:
            assert not blocks
            continue
        total = {}
        for dst, src, block, c in blocks:
            for (ti, si, p), v in block.entries.items():
                key = ti + starts[k - 1][dst], si + starts[k][src], p
                total[key] = field.add(total.get(key, field.zero),
                                       field.mul(c, v))
        assert {key: v for key, v in total.items()
                if not field.is_zero(v)} == diffs[k].entries
