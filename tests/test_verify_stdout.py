"""Each `tables` benchmark item prints exactly the report committed under
tests/verify_stdout/.

The items are the `delannoy verify <suite> --json` calls of the `tables`
workload in `perfbench/workloads.py`, which is loaded from its file and only
read.  Every answer of a suite is deterministic; only the report's
`elapsed_s` is blanked before the comparison, so a change in any case id,
expected or actual value, status or window shows up as a diff here.  After an
intended change of output, regenerate the files with
`PYTHONPATH=src python tests/test_verify_stdout.py`.
"""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

from delannoy.cli import main

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
STDOUT = ROOT / "tests" / "verify_stdout"


def _tables():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [args for kind, args in mod.WORKLOADS["tables"]]


TABLES = _tables()


def _report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    out, n = re.subn(r'"elapsed_s": [0-9.e+-]+', '"elapsed_s": null',
                     buf.getvalue())
    assert n == 1, out[:200]
    return rc, out


def test_one_file_per_item():
    assert all(argv[0] == "verify" and "--json" in argv for argv in TABLES)
    assert sorted(p.stem for p in STDOUT.glob("*.json")) == \
        sorted(argv[1] for argv in TABLES)


@pytest.mark.parametrize("argv", TABLES, ids=lambda argv: argv[1])
def test_report_is_unchanged(argv):
    rc, out = _report(argv)
    assert rc == 0
    assert out == (STDOUT / f"{argv[1]}.json").read_text()


if __name__ == "__main__":
    STDOUT.mkdir(exist_ok=True)
    for argv in TABLES:
        rc, out = _report(argv)
        assert rc == 0, argv
        (STDOUT / f"{argv[1]}.json").write_text(out)
