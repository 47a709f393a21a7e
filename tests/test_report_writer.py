"""`VerifyReport.json_pieces`, the writer behind `delannoy verify --json`.

Its pieces must join to the bytes of `json.dumps(<the report as one dict>,
sort_keys=True)`, so no consumer of a report sees a change, while printing a
report holds one batch of cases at a time and never the whole text.
"""

import contextlib
import json
import os
import tracemalloc
from fractions import Fraction

import pytest

from delannoy import cli, verify
from delannoy.verify import Case, VerifyReport


def _as_dict(report):
    """The report as one dict, each case's values written by repr."""
    return {
        "schema": 1,
        "suite": report.suite,
        "window": report.window,
        "cases": [{"id": c.id, "status": c.status,
                   "expected": repr(c.expected), "actual": repr(c.actual),
                   **({"repro": c.repro} if c.repro else {})}
                  for c in report.cases],
        "counts": report.counts,
        "elapsed_s": round(report.elapsed, 3),
    }


def _passing(n):
    return [Case(f"ext[{k}]", "pass", (k, Fraction(1, k + 2)),
                 (k, Fraction(1, k + 2))) for k in range(n)]


REPORTS = {
    "no-cases": VerifyReport("measures", {}, [], 0.0004),
    "failed-with-repro": VerifyReport(
        "bmod-ext", {"max_len": 3, "max_i": 3},
        [Case("ext[w,b]", "fail", [1, 0], [1, 1],
              "delannoy verify bmod-ext --max-len 3"),
         Case("ext[b,w]", "pass", [0, 1], [0, 1])], 1.23456),
    "inconclusive": VerifyReport(
        "sod", {"max_len": 4},
        [Case("sod[bw]", "inconclusive", "window too short: ν \"> 3\"",
              None)], 0.5),
    "prime-field-window": VerifyReport(
        "hom-table", {"max_len": 3, "field": "p2"},
        [Case("hom[w,b]", "pass", 1, 1)], 2.0),
    "one-batch": VerifyReport("tensor-rule", {}, _passing(verify._BATCH),
                              0.25),
    "one-batch-and-one": VerifyReport("tensor-rule", {},
                                      _passing(verify._BATCH + 1), 0.25),
}


@pytest.mark.parametrize("name", REPORTS)
def test_pieces_join_to_the_dumped_dict(name):
    report = REPORTS[name]
    pieces = list(report.json_pieces())
    assert "".join(pieces) == json.dumps(_as_dict(report), sort_keys=True)
    # an opening, one piece per batch of cases and the trailer
    batches = -(-len(report.cases) // verify._BATCH)
    assert len(pieces) == batches + 2


def test_printing_a_report_holds_one_batch():
    # the `tables` window of bmod-ext: 20,259 cases, about 2 MB of JSON
    report = verify.run_suite("bmod-ext", max_len=4, max_i=3)
    assert len(report.cases) > 20_000
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            cli._print_report(report, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # measured: 0.5 MiB with the writer; 11.0 MiB for one dict and one
    # string of the whole report, whose text alone is about 2 MiB
    assert peak < 1.5 * 2**20


def test_verify_over_two_suites_prints_one_document_per_line(monkeypatch,
                                                             capsys):
    two = {name: verify.SUITES[name] for name in ("measures",
                                                  "matrix-examples")}
    monkeypatch.setattr(verify, "SUITES", two)
    assert cli.main(["verify", "all", "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    reports = [json.loads(line) for line in lines]
    assert [r["suite"] for r in reports] == sorted(two)
    assert all(r["counts"]["fail"] == 0 for r in reports)


def test_text_mode_writes_no_json(capsys):
    report = REPORTS["failed-with-repro"]
    cli._print_report(report, False)
    assert capsys.readouterr().out.splitlines() == [
        "suite bmod-ext: 1 pass, 1 fail, 0 inconclusive (1.2s)",
        "  FAIL ext[w,b]: expected [1, 0], got [1, 1]  "
        "[delannoy verify bmod-ext --max-len 3]"]
