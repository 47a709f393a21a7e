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

# (size triple, measure); (7, 7, 1) under mu2 has at most 8 gammas per
# length against tens of thousands of patterns, so its offset tables are
# built one slot at a time
TRIPLES = [(sizes, measure)
           for sizes in ((3, 5, 4), (5, 2, 5), (5, 4, 3), (1, 5, 5))
           for measure in MEASURES] + [((7, 7, 1), 2)]


@pytest.mark.parametrize("sizes, measure", TRIPLES,
                         ids=["-".join(map(str, sizes + (measure,)))
                              for sizes, measure in TRIPLES])
def test_pair_arrays_match_base4_oracle(sizes, measure):
    got = _pair_arrays.__wrapped__(*sizes, measure)  # not kept once checked
    want = pair_arrays_oracle.pair_arrays(*sizes, measure)
    assert len(want[0]) > 0
    for name, g, w in zip(("beta", "alpha", "gamma", "c"), got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), name
