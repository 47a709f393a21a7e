"""The engine names the benchmark tracer binds by attribute all exist.

`perfbench/tracer.py` wraps functions by (module, attribute); a rename in
the engine would otherwise surface only when `perfbench/run.py --trace 1`
fails.  The tracer module is loaded from its file and only read.  A change
in a traced memo's signature shows only when the tracer runs, so
`perfbench/selftest.py` runs here too, without writing bytecode there.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = BENCH / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_span_resolves():
    for name, module_name, attr in _tracer().SPANS:
        assert callable(_resolve(module_name, attr)), name


def test_every_traced_memo_is_an_lru_cache():
    for prefix, module_name, attr in _tracer().MEMOS:
        fn = _resolve(module_name, attr)
        assert hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__"), prefix



def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "-B", str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout
