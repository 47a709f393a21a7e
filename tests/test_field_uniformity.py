"""The same answers over Q and over small prime fields.

The envelope behaves uniformly in the coefficient field: every idempotent
the engine builds is integral and idempotent over Z, so hom dimensions,
multiplicities, Ext dimensions and the Grothendieck rings do not depend on
the field.  Each suite's case values over F_p must equal its values over Q
(equal pass counts would not show a value that moved), with a Q field
element such as a trace of -1 read in F_p.
"""

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


def _field_valued(cid):
    """Whether case `cid` holds a field element (a trace of mu1 or mu2).

    Over Q an integral field element is an int, just like a count, so the
    field-valued cases are named by id; every other value (counts,
    dimensions, booleans and tables of them) reads the same over any field.
    """
    return cid.startswith("trace-mu")


def test_the_field_valued_cases_are_found():
    ids = [cid for cid in _actuals("idempotents", QQ) if _field_valued(cid)]
    assert len(ids) == 29


@pytest.mark.parametrize("name, p", [
    (name, p) for name in SUITES if name != "tensor-rule" for p in (2, 3, 5)
] + [("tensor-rule", 2)])
def test_case_values_equal_the_values_over_q(name, p):
    f = PrimeField(p)
    want = _actuals(name, QQ)
    got = _actuals(name, f)
    assert list(got) == list(want)
    for cid, value in want.items():
        if _field_valued(cid):
            value = f.parse(str(value))
        assert got[cid] == value, cid
