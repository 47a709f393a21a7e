"""The integer-encoded composition structure constants against plain oracles.

`_oracle_pair_index` and `_oracle_trace_table` are the string-keyed builders
the engine used before its structure constants became arrays: every gamma
and every middle-cell pattern assembled as path strings, and the trace table
as a join of two dicts.  They keep the four measures side by side, as
4-vectors over their own copy of the cell enumeration
(`_oracle_middle_cells`), summing repeated keys and dropping zero ones.
They are slow and obviously faithful to the cell calculus, so each
measure's array builders must agree exactly with that measure's column.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delannoy import acat, schwartz
from delannoy.fields import QQ
from delannoy.linalg import rank_big
from delannoy.paths import enumerate_paths, representative
from delannoy.schwartz import (BOUNDED, FULL_LINE, MAX_MIDDLE, MEASURES,
                               UNBOUNDED_ABOVE, UNBOUNDED_BELOW, PermMatrix,
                               _middle_cells, _pair_arrays, _pair_index,
                               _path_pos, compose, gap_measure)


@lru_cache(maxsize=None)
def _oracle_middle_cells(r, k):
    """Order types of a strictly increasing k-tuple relative to r fixed points.

    Returns tuples (pattern, cvec): `pattern` alternates gap and pin counts
    (g0, p0, g1, p1, ..., gr) with gaps holding any number of middle
    coordinates and pins at most one; `cvec` is the 4-vector of cell measures
    under the four measures (a gap of c coordinates contributes
    gap_measure(mu, kind, c), pins are points of measure one).
    """
    if r == 0:
        kinds = (FULL_LINE,)
    else:
        kinds = (UNBOUNDED_BELOW,) + (BOUNDED,) * (r - 1) + (UNBOUNDED_ABOVE,)
    results = []
    pattern = [0] * (2 * r + 1)

    def rec(slot, remaining, cvec):
        # slots alternate gap 0, pin 0, gap 1, pin 1, ..., gap r
        if slot == 2 * r:
            if remaining == 0:
                results.append((tuple(pattern), cvec))
                return
            kind = kinds[r]
            vec = tuple(a * gap_measure(mu, kind, remaining)
                        for a, mu in zip(cvec, MEASURES))
            if any(vec):
                pattern[slot] = remaining
                results.append((tuple(pattern), vec))
                pattern[slot] = 0
            return
        if slot % 2 == 1:  # pin: holds zero or one middle coordinate
            rec(slot + 1, remaining, cvec)
            if remaining:
                pattern[slot] = 1
                rec(slot + 1, remaining - 1, cvec)
                pattern[slot] = 0
            return
        i = slot // 2
        rec(slot + 1, remaining, cvec)  # empty gap
        kind = kinds[i]
        for c in range(1, remaining + 1):
            vec = tuple(a * gap_measure(mu, kind, c)
                        for a, mu in zip(cvec, MEASURES))
            if any(vec):
                pattern[slot] = c
                rec(slot + 1, remaining - c, vec)
                pattern[slot] = 0

    rec(0, k, (1, 1, 1, 1))
    return tuple(results)


@lru_cache(maxsize=None)
def _oracle_pair_index(tgt_size, mid_size, src_size):
    """Composition structure constants for one triple of part sizes.

    Maps (beta, alpha) -> {gamma -> (c1, c2, c3, c4)}: composing a matrix
    supported on beta (middle -> target) with one supported on alpha
    (source -> middle) contributes c_mu * product-of-coefficients to gamma.
    The component paths are assembled slotwise from the cell pattern: a
    middle coordinate in a gap is a lone source (resp. target) point for the
    left (resp. right) factor, and a pinned one collides with the fixed
    point when the latter belongs to the relevant tuple.
    """
    if mid_size > MAX_MIDDLE:
        raise ValueError(
            f"middle object R^({mid_size}) exceeds the composition window "
            f"(MAX_MIDDLE = {MAX_MIDDLE})")
    index = {}
    rs = "R", "RR", "RRR", "RRRR", "RRRRR", "RRRRRR", "RRRRRRR", "RRRRRRRR"
    us = "U", "UU", "UUU", "UUUU", "UUUUU", "UUUUUU", "UUUUUUU", "UUUUUUUU"
    for gamma in enumerate_paths(src_size, tgt_size):
        z, x = representative(gamma)
        zset, xset = set(z), set(x)
        r = len(zset | xset)
        # per pin: the step the left factor takes if the middle uses the pin
        # (or skips it), and likewise for the right factor
        pin_beta_used = ["D" if (v + 1) in zset else "R" for v in range(r)]
        pin_beta_skip = ["U" if (v + 1) in zset else "" for v in range(r)]
        pin_alpha_used = ["D" if (v + 1) in xset else "U" for v in range(r)]
        pin_alpha_skip = ["R" if (v + 1) in xset else "" for v in range(r)]
        for pattern, cvec in _oracle_middle_cells(r, mid_size):
            beta_parts, alpha_parts = [], []
            for i in range(r):
                g = pattern[2 * i]
                if g:
                    beta_parts.append(rs[g - 1])
                    alpha_parts.append(us[g - 1])
                if pattern[2 * i + 1]:
                    beta_parts.append(pin_beta_used[i])
                    alpha_parts.append(pin_alpha_used[i])
                else:
                    beta_parts.append(pin_beta_skip[i])
                    alpha_parts.append(pin_alpha_skip[i])
            g = pattern[2 * r]
            if g:
                beta_parts.append(rs[g - 1])
                alpha_parts.append(us[g - 1])
            beta = "".join(beta_parts)
            alpha = "".join(alpha_parts)
            slot = index.setdefault((beta, alpha), {})
            old = slot.get(gamma)
            slot[gamma] = (tuple(a + b for a, b in zip(old, cvec))
                           if old else cvec)
    for slot in index.values():
        for gamma in [g for g, v in slot.items() if not any(v)]:
            del slot[gamma]
    return index


def _oracle_trace_table(s_t, s_src):
    """Structure table for operator traces on the matrix span.

    U[(beta, alpha)] is the 4-vector (per measure) of
    sum over paths delta, gamma between the parts of
    c(gamma; beta, delta) * c(delta; gamma, alpha):
    the trace of H -> C_beta o H o C_alpha on the span of matrices from the
    size-s_src part to the size-s_t part.  Traces of the cut operators are
    bilinear contractions of this table against the diagonal idempotent
    blocks.
    """
    idx1 = _oracle_pair_index(s_t, s_t, s_src)    # c(gamma; beta, delta)
    idx2 = _oracle_pair_index(s_t, s_src, s_src)  # c(delta; gamma, alpha)
    by_dg = {}
    for (beta, delta), per in idx1.items():
        for gamma, c1 in per.items():
            by_dg.setdefault((delta, gamma), []).append((beta, c1))
    table = {}
    for (gamma, alpha), per in idx2.items():
        for delta, c2 in per.items():
            hits = by_dg.get((delta, gamma))
            if not hits:
                continue
            for beta, c1 in hits:
                key = (beta, alpha)
                add = (c1[0] * c2[0], c1[1] * c2[1],
                       c1[2] * c2[2], c1[3] * c2[3])
                old = table.get(key)
                table[key] = add if old is None else (
                    old[0] + add[0], old[1] + add[1],
                    old[2] + add[2], old[3] + add[3])
    return table


def _column(index, mu):
    """Measure mu's column of an oracle index: (beta, alpha) -> {gamma: c},
    the zero entries and empty rows left out."""
    out = {}
    for key, per in index.items():
        row = {g: c[mu - 1] for g, c in per.items() if c[mu - 1]}
        if row:
            out[key] = row
    return out


SIZES = range(5)


@pytest.fixture(scope="module", autouse=True)
def _drop_oracle_tables():
    yield
    _oracle_pair_index.cache_clear()


@pytest.mark.parametrize("sizes", list(itertools.product(SIZES, repeat=3)),
                         ids=lambda s: "-".join(map(str, s)))
def test_pair_arrays_and_rows_match_oracle(sizes):
    t, m, s = sizes
    betas, alphas = enumerate_paths(m, t), enumerate_paths(s, m)
    gammas = enumerate_paths(s, t)
    for mu in MEASURES:
        want = _column(_oracle_pair_index(t, m, s), mu)
        beta, alpha, gamma, c = _pair_arrays(t, m, s, mu)
        assert c.dtype == np.int8
        assert set(c.tolist()) <= {1, -1}, mu
        key = (beta.astype(np.int64) * len(alphas) + alpha) * len(gammas) \
            + gamma
        assert np.all(key[1:] > key[:-1])  # sorted by (beta, alpha, gamma)
        got = {}
        for b, a, g, v in zip(beta.tolist(), alpha.tolist(), gamma.tolist(),
                              c.tolist()):
            got.setdefault((betas[b], alphas[a]), {})[gammas[g]] = v
        assert got == want, mu
        rows = _pair_index.__wrapped__(t, m, s, mu)  # not kept once checked
        for key in itertools.product(betas, alphas):
            assert rows[key] == want.get(key, {}), (mu, key)


@pytest.mark.parametrize("sizes", list(itertools.product(SIZES, repeat=2)),
                         ids=lambda s: "-".join(map(str, s)))
def test_trace_table_matches_oracle(sizes):
    s_t, s_src = sizes
    want = _oracle_trace_table(s_t, s_src)
    for mu in MEASURES:
        table = acat._trace_table(s_t, s_src, mu)
        beta_pos, alpha_pos = _path_pos(s_t, s_t), _path_pos(s_src, s_src)
        assert table.dtype == np.int64
        assert table.shape == (len(beta_pos), len(alpha_pos))
        expect = np.zeros_like(table)
        for (beta, alpha), vec in want.items():
            expect[beta_pos[beta], alpha_pos[alpha]] = vec[mu - 1]
        assert np.array_equal(table, expect), mu


def test_trace_table_join_in_many_chunks(monkeypatch):
    want = [acat._trace_join(3, 3, mu) for mu in MEASURES]
    monkeypatch.setattr(acat, "_JOIN_CHUNK", 7)
    for mu, table in zip(MEASURES, want):
        got = acat._trace_join(3, 3, mu)
        assert np.array_equal(got, table)


def _patch_pair_arrays(monkeypatch, arrays):
    """Serve `_pair_arrays` from `arrays`, keyed by (sizes, measure)."""
    monkeypatch.setattr(acat, "_pair_arrays",
                        lambda *sizes: arrays[sizes[:3], sizes[3]])


def test_trace_table_refuses_possible_int64_overflow(monkeypatch):
    assert acat._max_abs(np.array([-128, 5], dtype=np.int8)) == 128
    ids = np.zeros(1, dtype=np.int32)
    big = np.array([2 ** 40], dtype=np.int64)
    _patch_pair_arrays(monkeypatch, {((0, 0, 0), 1): (ids, ids, ids, big)})
    with pytest.raises(OverflowError):
        acat._trace_join(0, 0, 1)


@pytest.mark.parametrize("empty", ["first", "second", "both"])
def test_join_with_an_empty_side_gives_zeros(monkeypatch, empty):
    # (1, 0) reads the sides (1, 1, 0) and (1, 0, 0); under mu1 the empty
    # sides have no row, under mu2 every side has one
    one = (np.zeros(1, dtype=np.int32),) * 3 + (np.ones(1, dtype=np.int8),)
    none = (np.zeros(0, dtype=np.int32),) * 3 + (np.zeros(0, dtype=np.int8),)
    first = none if empty in ("first", "both") else one
    second = none if empty in ("second", "both") else one
    _patch_pair_arrays(monkeypatch, {((1, 1, 0), 1): first,
                                     ((1, 0, 0), 1): second,
                                     ((1, 1, 0), 2): one,
                                     ((1, 0, 0), 2): one})
    table = acat._trace_join(1, 0, 1)
    assert table.shape == (3, 1) and not table.any()
    block = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64), 1)

    def diagonal(mu):
        return acat._block_diagonal(1, 0, block, block, mu).tolist()

    assert diagonal(1) == [0]
    # under mu2 both sides keep their row, which joins
    assert acat._trace_join(1, 0, 2)[0, 0] == 1
    assert diagonal(2) == [1]


def test_too_large_middle_raises_before_any_allocation(monkeypatch):
    def refuse(*args):
        raise AssertionError("built something before the size check")
    monkeypatch.setattr(schwartz, "np", None)
    monkeypatch.setattr(schwartz, "enumerate_paths", refuse)
    monkeypatch.setattr(schwartz, "_middle_cells", refuse)
    with pytest.raises(ValueError, match="MAX_MIDDLE"):
        _pair_arrays(1, MAX_MIDDLE + 1, 1, 2)
    with pytest.raises(ValueError, match="MAX_MIDDLE"):
        _pair_index(0, MAX_MIDDLE + 1, 0, 2)
    # D(16, 16) paths gamma: more ids than int32 holds
    with pytest.raises(ValueError, match="int64"):
        _pair_arrays(16, 1, 16, 2)
    # a key space below 2**63, but D(16, 15) = 103,706,427,393 gamma ids
    with pytest.raises(ValueError, match="int32"):
        _pair_arrays(15, 0, 16, 2)
    # every id below 2**31, but a key space of about 1.99 * 2**62: no room
    # left for the sign bit of the signed keys
    with pytest.raises(ValueError, match="int64"):
        _pair_arrays(7, 7, 17, 2)


def test_repeated_patterns_raise(monkeypatch):
    real = _middle_cells
    # a repeat with the opposite sign differs from its pattern's key in the
    # low bit only
    for flip in (1, -1):
        def doubled(r, k, measure):
            pat, c = real(r, k, measure)
            return np.concatenate((pat, pat)), np.concatenate((c, flip * c))
        monkeypatch.setattr(schwartz, "_middle_cells", doubled)
        with pytest.raises(RuntimeError,
                           match="one \\(beta, alpha, gamma\\)"):
            _pair_arrays.__wrapped__(2, 2, 2, 2)


def test_degenerate_quotient_matches_row_oracle():
    # the matrix the string tables gave: one row per (beta, alpha) with a
    # nonzero mu entry, one column per gamma
    for mu in MEASURES:
        for n in range(1, 4):
            gammas = enumerate_paths(n, n)
            rows = []
            for _, per in sorted(_column(_oracle_pair_index(n, n - 1, n),
                                         mu).items()):
                row = [0] * len(gammas)
                for g, c in per.items():
                    row[gammas.index(g)] = c
                rows.append(row)
            want = len(gammas) - rank_big(rows, QQ) if rows else len(gammas)
            assert acat.degenerate_quotient_dim(n, mu) == want, (mu, n)
    assert [acat.degenerate_quotient_dim(n) for n in range(1, 4)] == [2, 4, 8]


# ---------------------------------------------------------------------------
# Associativity, whichever builder reaches a size triple first.
# ---------------------------------------------------------------------------

@st.composite
def composable_triples(draw):
    objs = [tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=2)))
            for _ in range(4)]

    def matrix(source, target):
        keys = [(ti, si, p) for ti, nt in enumerate(target)
                for si, ns in enumerate(source)
                for p in enumerate_paths(ns, nt)]
        chosen = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))
        return PermMatrix(source, target,
                          {k: QQ.of_int(draw(st.integers(-3, 3)))
                           for k in chosen})

    return matrix(objs[0], objs[1]), matrix(objs[1], objs[2]), \
        matrix(objs[2], objs[3])


def _clear_structure_caches():
    for cached in (_pair_index, _pair_arrays, acat._trace_table):
        cached.cache_clear()


@settings(max_examples=60, deadline=None)
@given(composable_triples(), st.booleans())
def test_compose_associative_under_all_measures(mats, traces_first):
    a, b, c = mats
    sizes = sorted(set(a.source + a.target + c.source + c.target))
    _clear_structure_caches()
    try:
        if traces_first:
            for s_t, s_src in itertools.product(sizes, repeat=2):
                for mu in MEASURES:
                    acat._trace_table(s_t, s_src, mu)
        for mu in MEASURES:
            left = compose(c, compose(b, a, mu), mu)
            if not traces_first:
                for s_t, s_src in itertools.product(sizes, repeat=2):
                    acat._trace_table(s_t, s_src, mu)
            assert left == compose(compose(c, b, mu), a, mu), mu
    finally:
        _clear_structure_caches()
