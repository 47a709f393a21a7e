"""`schwartz._pair_arrays` against the base-4 fold of `pair_arrays_oracle`.

The engine folds the path ids of beta and alpha from rank offsets, one table
row per slot; the oracle folds base-4 codes and looks them up among the
sorted codes of all paths.  On size triples with parts of size 5, where the
paths are longest and every letter and pin kind occurs, both must give the
same arrays: the same dtypes, the same order and the same values.
"""

import numpy as np
import pytest

from delannoy.schwartz import MEASURES, _pair_arrays
import pair_arrays_oracle

TRIPLES = [(3, 5, 4), (5, 2, 5), (5, 4, 3), (1, 5, 5)]


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("sizes", TRIPLES,
                         ids=lambda s: "-".join(map(str, s)))
def test_pair_arrays_match_base4_oracle(sizes, measure):
    got = _pair_arrays.__wrapped__(*sizes, measure)  # not kept once checked
    want = pair_arrays_oracle.pair_arrays(*sizes, measure)
    assert len(want[0]) > 0
    for name, g, w in zip(("beta", "alpha", "gamma", "c"), got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), name
