"""Acceptance gate: one test per criterion, each at its stated window.

Every criterion is exact equality at desk scale; a test prints one pass/fail
line (visible with `pytest -s tests/test_acceptance.py`).  The stretch Tor
suite (criterion 13) is opted out by default and runs with DELANNOY_TOR=1;
its window rules report inconclusive cases rather than silently passing.
"""

import os
import sys
import time

import pytest

from delannoy.verify import run_suite


def _check(criterion, name, **kwargs):
    t0 = time.time()
    rep = run_suite(name, **kwargs)
    elapsed = time.time() - t0
    npass = sum(c.status == "pass" for c in rep.cases)
    status = "PASS" if rep.ok else "FAIL"
    line = (f"[criterion {criterion:>2}] {name:<17} {status} "
            f"({npass} pass, {len(rep.failed)} fail, "
            f"{len(rep.inconclusive)} inconclusive, {elapsed:.1f}s)")
    print(line, file=sys.stderr, flush=True)
    for c in rep.failed[:10]:
        print(f"    FAIL {c.id}: expected {c.expected!r}, got {c.actual!r}",
              file=sys.stderr, flush=True)
    assert rep.ok, f"criterion {criterion} ({name}) failed"
    return rep


def test_criterion_01_measure_table():
    _check(1, "measures")


def test_criterion_02_matrix_identities():
    _check(2, "matrix-examples")


def test_criterion_03_idempotency_and_uniqueness():
    _check(3, "idempotents", max_len=4)


def test_criterion_04_hom_table():
    _check(4, "hom-table", max_len=3)


def test_criterion_05_schwartz_decomposition():
    _check(5, "schwartz-decomp", max_n=4)


def test_criterion_06_degenerate_ideal():
    _check(6, "degenerate-ideal", max_n=4)


def test_criterion_07_tensor_rule():
    _check(7, "tensor-rule", max_sum=3, kring_sum=6)


def test_criterion_08_bmod_homology_tables():
    _check(8, "bmod-ext", max_len=5, max_i=5)


def test_criterion_09_dmod_tables():
    _check(9, "dmod-ext", max_len=4, max_i=4, uniserial_len=5)


def test_criterion_10_derived_functor_tables():
    _check(10, "derived-functors", max_len=4, max_deg=6, psi_i_len=3)


def test_criterion_11_sod():
    _check(11, "sod", max_len=4, max_i=5)


def test_criterion_12_kb_decomposition():
    _check(12, "kring-iso", gen_len=3)


@pytest.mark.skipif(not os.environ.get("DELANNOY_TOR"),
                    reason="stretch window; opt in with DELANNOY_TOR=1")
def test_criterion_13_tor_stretch():
    rep = _check(13, "tor")
    # the window rules must not silently drop the cheap full-window facts
    ids = {c.id for c in rep.cases}
    assert any(c.startswith("P-tensor-S_e") for c in ids)


def test_criterion_14_truncated_tilting_checks():
    _check(14, "tilting-hom", window=6, margin=2)
