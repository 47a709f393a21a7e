"""Marked ruffles and `paths.interleavings` against the recursion they replaced.

`oracle_marked_ruffles` is `weights.marked_ruffles` as it was before ruffles
were read off `paths.interleavings`: a recursion that places one letter of
either word, or a collision of both, per position.  It stays here verbatim
(apart from its name) as the oracle.  The new enumeration lists the same
ruffles in another order, so they are compared as multisets.
"""

from collections import Counter

from delannoy.paths import delannoy, interleavings
from delannoy.weights import (BLACK, EMPTY_MARK, WHITE, MarkedRuffle,
                              enumerate_weights, marked_ruffles, sort_key,
                              tensor_summands)


def oracle_marked_ruffles(lam, mu, restricted=False):
    """All marked ruffles of lam and mu with their output weights.

    Ruffles correspond to interleavings of the two words where positions can
    collide; equal-letter collisions keep their letter, neutral ones take
    each of the three marks.  With `restricted` a neutral collision in the
    final position may not take the empty mark (this is the variant that
    computes tensor products of indecomposables rather than simples).
    """
    m, n = len(lam), len(mu)
    out = []

    def rec(a, b, pos, rho1, rho2, rho3, letters):
        if a == m and b == n:
            if restricted and rho3 and rho3[-1][0] == pos and rho3[-1][1] == EMPTY_MARK:
                return
            rho = MarkedRuffle(tuple(rho1), tuple(rho2), tuple(rho3))
            out.append((rho, "".join(letters)))
            return
        p = pos + 1
        if a < m:
            rho1.append(p)
            letters.append(lam[a])
            rec(a + 1, b, p, rho1, rho2, rho3, letters)
            letters.pop()
            rho1.pop()
        if b < n:
            rho2.append(p)
            letters.append(mu[b])
            rec(a, b + 1, p, rho1, rho2, rho3, letters)
            letters.pop()
            rho2.pop()
        if a < m and b < n:
            rho1.append(p)
            rho2.append(p)
            if lam[a] == mu[b]:
                letters.append(lam[a])
                rec(a + 1, b + 1, p, rho1, rho2, rho3, letters)
                letters.pop()
            else:
                for mark in (BLACK, WHITE, EMPTY_MARK):
                    rho3.append((p, mark))
                    letters.append(mark)
                    rec(a + 1, b + 1, p, rho1, rho2, rho3, letters)
                    letters.pop()
                    rho3.pop()
            rho1.pop()
            rho2.pop()

    rec(0, 0, 0, [], [], [], [])
    return out


def ruffle_counts(ruffles):
    return Counter((rho.rho1, rho.rho2, rho.rho3, w) for rho, w in ruffles)


def test_marked_ruffles_match_oracle():
    weights = enumerate_weights(4)
    for lam in weights:
        for mu in weights:
            for restricted in (False, True):
                assert ruffle_counts(marked_ruffles(lam, mu, restricted)) == \
                    ruffle_counts(oracle_marked_ruffles(lam, mu, restricted)), \
                    (lam, mu, restricted)


def test_tensor_summands_match_oracle():
    weights = enumerate_weights(6)
    pairs = [(lam, mu) for lam in weights for mu in weights
             if len(lam) + len(mu) <= 6]
    assert len(pairs) == 769
    for lam, mu in pairs:
        for restricted in (False, True):
            expected = tuple(sorted(
                (w for _, w in oracle_marked_ruffles(lam, mu, restricted)),
                key=sort_key))
            assert tensor_summands(lam, mu, restricted) == expected, (lam, mu)


def test_interleavings_are_delannoy_paths():
    for a in ("", "x", "xy", "xyz"):
        for b in ("", "1", "12", "123"):
            walks = list(interleavings(a, b))
            assert len(walks) == delannoy(len(b), len(a))
            assert len(set(map(tuple, walks))) == len(walks)
            for walk in walks:
                assert "".join(x for x, _ in walk) == a
                assert "".join(y for _, y in walk) == b
                assert all(x or y for x, y in walk)
