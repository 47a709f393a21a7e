"""The same answers over Q and over small prime fields.

The envelope behaves uniformly in the coefficient field: every idempotent
the engine builds is integral and idempotent over Z, so hom dimensions,
multiplicities, Ext dimensions and the Grothendieck rings do not depend on
the field.  Each suite's case values over F_p must equal its values over Q
(equal pass counts would not show a value that moved), with a Q field
element such as a trace of -1 read in F_p.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from delannoy import verify
from delannoy.fields import QQ, PrimeField

SUITES = {"idempotents": {"max_len": 3}, "hom-table": {},
          "schwartz-decomp": {"max_n": 3}, "dmod-ext": {}, "kring-iso": {},
          "tensor-rule": {}, "bmod-ext": {"max_len": 3, "max_i": 3},
          "derived-functors": {}, "sod": {}, "tilting-hom": {}}


@lru_cache(maxsize=None)
def _actuals(name, field):
    report = verify.run_suite(name, field=field, **SUITES[name])
    assert not report.failed, report.failed
    return {c.id: c.actual for c in report.cases}


def _in_field(value, field):
    """A case value over Q read over `field`: field elements are mapped,
    counts and dimensions (ints) and everything else kept."""
    if isinstance(value, Fraction):
        return field.parse(str(value))
    if isinstance(value, (list, tuple)):
        return type(value)(_in_field(v, field) for v in value)
    if isinstance(value, dict):
        return {k: _in_field(v, field) for k, v in value.items()}
    return value


@pytest.mark.parametrize("name, p", [
    (name, p) for name in SUITES if name != "tensor-rule" for p in (2, 3, 5)
] + [("tensor-rule", 2)])
def test_case_values_equal_the_values_over_q(name, p):
    f = PrimeField(p)
    want = _actuals(name, QQ)
    got = _actuals(name, f)
    assert list(got) == list(want)
    for cid, value in want.items():
        assert got[cid] == _in_field(value, f), cid
