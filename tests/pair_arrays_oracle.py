"""The composition structure constants by base-4 path codes, as
`schwartz._pair_arrays` built them before it folded path ids from rank
offsets.

Each (gamma x middle-cell pattern) grid entry is folded slot by slot into
the base-4 codes of beta and alpha (U = 1, R = 2, D = 3, most significant
first; the digits are nonzero, so different paths get different codes), and
the codes are mapped to path ids by `searchsorted` against the sorted codes
of all paths of that shape.  The tests compare the engine's arrays against
it: the same dtypes, the same order and the same values.
"""

from functools import lru_cache

import numpy as np

from delannoy.paths import delannoy, enumerate_paths
from delannoy.schwartz import _middle_cells

# A path of at most this many steps has an int64 code.
CODE_LEN = 31
DIGITS = str.maketrans("URD", "123")
CHUNK = 1 << 16


@lru_cache(maxsize=None)
def path_codes(m, n):
    """Sorted codes of the (m, n) paths and the path id of each sorted code."""
    codes = np.array([int("0" + p.translate(DIGITS), 4)
                      for p in enumerate_paths(m, n)], dtype=np.int64)
    order = np.argsort(codes)
    return codes[order], order.astype(np.int32)


def path_ids(codes, m, n):
    """Ids of coded (m, n) paths."""
    sorted_codes, ids = path_codes(m, n)
    return ids[np.searchsorted(sorted_codes, codes)]


def pair_arrays(tgt_size, mid_size, src_size, measure):
    """(beta, alpha, gamma, c) as `schwartz._pair_arrays` returns them."""
    n_beta, n_alpha, n_gamma = (delannoy(mid_size, tgt_size),
                                delannoy(src_size, mid_size),
                                delannoy(src_size, tgt_size))
    assert max(tgt_size + mid_size, mid_size + src_size,
               src_size + tgt_size) <= CODE_LEN
    assert n_beta * n_alpha * n_gamma < 2 ** 63
    gammas = enumerate_paths(src_size, tgt_size)
    by_len = {}
    for gid, g in enumerate(gammas):
        by_len.setdefault(len(g), []).append(gid)
    keys, cells = [], []
    for r, gids in by_len.items():
        pat, cell = _middle_cells(r, mid_size, measure)
        if not len(cell):
            continue
        pat = pat.astype(np.int64)
        letters = np.array([[int(c) for c in gammas[g].translate(DIGITS)]
                            for g in gids], dtype=np.int64)
        in_tgt, in_src = letters != 2, letters != 1
        gap_mult = 4 ** pat[:, 0::2]
        gap_r, gap_u = 2 * (gap_mult - 1) // 3, (gap_mult - 1) // 3
        used = pat[:, 1::2] == 1
        step = max(1, CHUNK // len(cell))
        for lo in range(0, len(gids), step):
            hi = min(lo + step, len(gids))
            beta = np.zeros((hi - lo, len(cell)), dtype=np.int64)
            alpha = np.zeros_like(beta)
            for i in range(r + 1):
                # a gap of g middle points: R^g in beta, U^g in alpha
                beta = beta * gap_mult[:, i] + gap_r[:, i]
                alpha = alpha * gap_mult[:, i] + gap_u[:, i]
                if i == r:
                    break
                t, s = in_tgt[lo:hi, i, None], in_src[lo:hi, i, None]
                u = used[:, i]
                b = np.where(u, np.where(t, 3, 2), np.where(t, 1, 0))
                a = np.where(u, np.where(s, 3, 1), np.where(s, 2, 0))
                beta = np.where(b > 0, 4 * beta + b, beta)
                alpha = np.where(a > 0, 4 * alpha + a, alpha)
            b_ids = path_ids(beta, mid_size, tgt_size).astype(np.int64)
            a_ids = path_ids(alpha, src_size, mid_size)
            g_ids = np.array(gids[lo:hi], dtype=np.int64)[:, None]
            keys.append(((b_ids * n_alpha + a_ids) * n_gamma + g_ids).ravel())
            cells.append(np.broadcast_to(cell, beta.shape).ravel())
    key = np.concatenate(keys or [np.zeros(0, dtype=np.int64)])
    order = np.argsort(key)
    key = key[order]
    assert not np.any(key[1:] == key[:-1])
    c = np.concatenate(cells or [np.zeros(0, dtype=np.int8)])[order]
    gamma = (key % n_gamma).astype(np.int32)
    key //= n_gamma
    alpha = (key % n_alpha).astype(np.int32)
    key //= n_alpha
    return key.astype(np.int32), alpha, gamma, c
