"""The cut diagonal on every pair of parts, as `acat` read it before it
skipped the pairs whose trace term is zero.

`cut_diagonal(x, y)` is {key: P_kk} over every key with P_kk != 0, where
P_kk is the coefficient of C_key in idem_y o C_key o idem_x over the
integer lifts of the idempotents.  Each part pair's diagonal is one join of
the two sides of the trace table, reduced afresh on every call; the tests
compare `acat._cut_diagonal`, which skips pairs and keeps source sides with
the object, against it.
"""

import numpy as np

from delannoy.acat import _INT64_LIMIT, _join_keys, _join_side
from delannoy.linalg import _max_abs
from delannoy.paths import delannoy, enumerate_paths
from delannoy.schwartz import _pair_arrays


def block_diagonal(s_t, s_src, y_block, x_block, mu):
    """The diagonal of the cut on one part block, indexed by path id delta:
    sum_gamma (sum_beta y_beta c(gamma; beta, delta))
              * (sum_alpha x_alpha c(delta; gamma, alpha))."""
    beta, delta1, gamma1, c1 = _pair_arrays(s_t, s_t, s_src, mu)
    alpha, key2, c2 = _join_side(s_t, s_src, mu)
    n_span = delannoy(s_src, s_t)
    b_ids, b_coeffs, _ = y_block
    a_ids, a_coeffs, _ = x_block
    lo = np.searchsorted(beta, b_ids, "left")
    n = np.searchsorted(beta, b_ids, "right") - lo
    rows1 = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(int(n.sum()))
    a_used = np.zeros(delannoy(s_src, s_src), dtype=bool)
    a_used[a_ids] = True
    rows2 = np.flatnonzero(np.take(a_used, alpha))
    if not len(rows1) or not len(rows2):
        return np.zeros(n_span, dtype=np.int64)
    c1, c2 = c1[rows1], c2[rows2]
    bound = (len(rows1) * _max_abs(b_coeffs) * _max_abs(c1)
             * len(rows2) * _max_abs(a_coeffs) * _max_abs(c2))
    dtype = np.int64 if bound < _INT64_LIMIT else object
    wx = np.zeros(len(a_used), dtype=dtype)
    wx[a_ids] = a_coeffs
    key2 = key2[rows2]
    starts = np.flatnonzero(np.r_[True, key2[1:] != key2[:-1]])
    sums2 = np.add.reduceat(wx[alpha[rows2]] * c2.astype(dtype), starts)
    key2 = key2[starts]
    w1 = np.repeat(b_coeffs.astype(dtype), n) * c1.astype(dtype)
    key1 = _join_keys(delta1[rows1], gamma1[rows1], n_span)
    at = np.minimum(np.searchsorted(key2, key1), len(key2) - 1)
    hit = key2[at] == key1
    out = np.zeros(n_span, dtype=dtype)
    np.add.at(out, delta1[rows1[hit]], w1[hit] * sums2[at[hit]])
    return out


def cut_diagonal(x, y):
    """The nonzero diagonal of the cut over the integer lifts, {key: P_kk},
    read on every pair of diagonal part-blocks."""
    out = {}
    for tp, y_block in y.diag_blocks.items():
        s_t = y.ambient[tp]
        for sp, x_block in x.diag_blocks.items():
            s_src = x.ambient[sp]
            diag = block_diagonal(s_t, s_src, y_block, x_block, x.measure)
            paths = enumerate_paths(s_src, s_t)
            for i in np.flatnonzero(diag).tolist():
                out[(tp, sp, paths[i])] = int(diag[i])
    return out
