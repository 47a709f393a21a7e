"""Every engine module imports first, in a fresh interpreter.

The engine's modules import each other at module level only.  A cycle
between two of them shows only when one particular module is imported
before the others, so each module is imported first in its own `python -B`
process (no bytecode is written).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "delannoy").glob("*.py")
                 if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-B", "-c",
                           f"import delannoy.{module}"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
