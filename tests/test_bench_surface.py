"""The engine surface the benchmark uses all exists.

`perfbench/tracer.py` wraps functions by (module, attribute); a rename in
the engine would otherwise surface only when `perfbench/run.py --trace 1`
fails.  Likewise every item of `perfbench/workloads.py` must still reach
the engine: each CLI argv parses, and each Tor item's arguments bind to
`bmod.tor_bmod` and name modules `bmod.named_bmodule` builds, so a removed
name, option or parameter fails here before a benchmark run.  Both files
are loaded from their paths and only read; nothing is run.  A change in a
traced memo's signature shows only when the tracer runs, so
`perfbench/selftest.py` runs here too, without writing bytecode there.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from delannoy import bmod, cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module, with no bytecode written."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = write
    return mod


def _items(kind):
    return [args for items in _load("workloads").WORKLOADS.values()
            for k, args in items if k == kind]


def _resolve(module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_span_resolves():
    for name, module_name, attr in _load("tracer").SPANS:
        assert callable(_resolve(module_name, attr)), name


def test_every_traced_memo_is_an_lru_cache():
    for prefix, module_name, attr in _load("tracer").MEMOS:
        fn = _resolve(module_name, attr)
        assert hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__"), prefix


def test_every_workload_argv_parses():
    argvs = _items("cli")
    assert argvs
    parser = cli.build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"delannoy {' '.join(argv)} does not parse")


def test_every_tor_item_binds_to_tor_bmod():
    items = _items("tor")
    assert items
    sig = inspect.signature(bmod.tor_bmod)
    for (mk, ml), (nk, nl), imax, kw in items:
        m, n = bmod.named_bmodule(mk, ml), bmod.named_bmodule(nk, nl)
        sig.bind(m, n, imax, **kw)


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "-B", str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout
