"""The mu2 character tables behind `acat._trace_table`.

Under mu2 a trace table on parts of size at most `_CHARACTER_MAX_SIZE` is
chi_t H chi_s^T, with chi_n the character table of S(R^(n)) over (n, n)
paths by weights (`acat._characters`).  The block rule that builds chi is
checked, not proven: `test_trace_table_matches_oracle` compares every table
of the window with the string-keyed structure-constant oracle.  Here the
characters of the identity give the multiplicities of S(R^(n)), the window
stays inside that oracle's sizes, and, opted in with DELANNOY_TOR=1, the
characters match the structure-constant join at size 5, outside the window.
"""

import os
from math import comb

import numpy as np
import pytest

from delannoy import acat
from delannoy.paths import DIAG, enumerate_paths
from delannoy.schwartz import MU2, _pair_arrays
from delannoy.weights import enumerate_weights
from test_structure_constants import SIZES


def test_empty_path_has_the_unit_character():
    assert acat._characters(0).tolist() == [[1]]


@pytest.mark.parametrize("n", range(1, 5))
def test_identity_characters_are_the_multiplicities(n):
    # C_(D^n) is the identity of S(R^(n)), whose trace on the multiplicity
    # space of M_lam is C(n-1, |lam|-1), the count `schwartz-decomp` checks
    chi = acat._characters(n)
    weights = enumerate_weights(n)
    assert chi.dtype == np.int64
    assert chi.shape == (len(enumerate_paths(n, n)), len(weights))
    row = chi[enumerate_paths(n, n).index(DIAG * n)]
    assert row.tolist() == [comb(n - 1, len(lam) - 1) if lam else 0
                            for lam in weights]
    assert not chi[:, weights.index("")].any()


def test_window_stays_inside_the_oracle_check():
    assert acat._CHARACTER_MAX_SIZE <= max(SIZES)


@pytest.mark.skipif(not os.environ.get("DELANNOY_TOR"),
                    reason="size-5 joins; opt in with DELANNOY_TOR=1")
@pytest.mark.parametrize("sizes", [(t, 5) for t in range(4)]
                         + [(5, t) for t in range(4)],
                         ids=lambda s: "-".join(map(str, s)))
def test_characters_match_the_join_at_size_5(sizes):
    try:
        want = acat._trace_join(*sizes, MU2)
        assert np.array_equal(acat._character_trace(*sizes), want)
    finally:
        _pair_arrays.cache_clear()
