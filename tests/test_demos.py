"""Every narrative script in demos/ runs to completion and prints exactly
the output committed under tests/demo_stdout/.

The demos are deterministic, so a change in any printed value shows up as a
diff here.  After an intended change of output, regenerate the file with
`PYTHONPATH=src python demos/<name>.py > tests/demo_stdout/<name>.txt`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT = ROOT / "tests" / "demo_stdout"


def test_demos_exist():
    assert len(DEMOS) == 7
    assert sorted(p.stem for p in STDOUT.glob("*.txt")) == \
        [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == (STDOUT / f"{demo.stem}.txt").read_text()
