"""Outside-in tracer for the delannoy engine.

The engine is not instrumented.  `Tracer.install` rebinds each listed
function, in every `delannoy.*` namespace that holds it, to a wrapper that
records a span (name, start, end, parent, request id, tag).  Modules bind
imported names directly (`verify` and `bmod` hold `linalg.rank`, `acat` holds
`schwartz._pair_index`), so patching only the defining module would miss
calls; functions imported at call time (`from .linalg import _mod_rref`)
read the module attribute and see the wrapper.  Methods are wrapped on
their class.

Memoized builders are not wrapped call by call: one `_pair_index` wrapper
on a million cache hits distorts its callers.  Instead the builder is
replaced by a fresh `lru_cache` around a span-recording copy of the
undecorated function, so only cache misses (builds) pay for tracing, and
hits and table sizes come from that cache's `cache_info()`.  The engine's
own caches start empty in every process, so the fresh cache sees the same
calls.

`uninstall` puts every original back; `leftovers` lists anything still
wrapped, which the traced pass treats as a harness failure.
"""

import sys
from functools import lru_cache
from time import perf_counter

# (span name, defining module, attribute); "Class.method" wraps on the class.
SPANS = [
    ("cli.main", "delannoy.cli", "main"),
    ("verify.run_suite", "delannoy.verify", "run_suite"),
    ("linalg.rank_kernel_int", "delannoy.linalg", "rank_kernel_int"),
    ("linalg.rref", "delannoy.linalg", "rref"),
    ("linalg.mod_rref", "delannoy.linalg", "_mod_rref"),
    ("linalg.nullspace", "delannoy.linalg", "nullspace"),
    ("linalg.solve", "delannoy.linalg", "solve"),
    ("linalg.SpanBuilder.insert", "delannoy.linalg", "SpanBuilder.insert"),
    ("linalg.ModSpan.insert", "delannoy.linalg", "ModSpan.insert"),
    ("schwartz.compose", "delannoy.schwartz", "compose"),
    ("schwartz.tensor", "delannoy.schwartz", "tensor"),
    ("acat.hom_dim", "delannoy.acat", "hom_dim"),
    ("acat.hom_space", "delannoy.acat", "hom_space"),
    ("acat.coords_in_basis", "delannoy.acat", "coords_in_basis"),
    ("acat.multiplicities", "delannoy.acat", "multiplicities"),
    ("acat.degenerate_quotient_dim", "delannoy.acat", "degenerate_quotient_dim"),
    ("bmod.tor_bmod", "delannoy.bmod", "tor_bmod"),
    ("bmod.tensor_matrix_complexes", "delannoy.bmod", "tensor_matrix_complexes"),
    ("bmod.min_projective_resolution", "delannoy.bmod", "min_projective_resolution"),
    ("bmod.ext_from_resolution", "delannoy.bmod", "_ext_from_resolution"),
    ("bmod.projective_cover", "delannoy.bmod", "projective_cover"),
    ("bmod.kernel_bmap", "delannoy.bmod", "kernel_bmap"),
    ("bmod.hom_bmodules", "delannoy.bmod", "hom_bmodules"),
    ("bmod.find_isomorphism", "delannoy.bmod", "find_isomorphism"),
    ("dmod.ext_dim", "delannoy.dmod", "ext_dim"),
    ("dmod.hom_dmodules", "delannoy.dmod", "hom_dmodules"),
    ("dmod.find_isomorphism_d", "delannoy.dmod", "find_isomorphism_d"),
    ("derived.l_phi", "delannoy.derived", "l_phi"),
    ("derived.l_psi", "delannoy.derived", "l_psi"),
    ("derived.l_theta", "delannoy.derived", "l_theta"),
    ("kring.kb_decompose", "delannoy.kring", "kb_decompose"),
    ("kring.mult", "delannoy.kring", "mult"),
]

# (metric prefix, defining module, attribute) of lru_cache'd builders.
MEMOS = [
    ("schwartz.pair_index", "delannoy.schwartz", "_pair_index"),
    ("schwartz.middle_cells", "delannoy.schwartz", "_middle_cells"),
    ("acat.trace_table", "delannoy.acat", "_trace_table"),
]

SEARCHES = ("bmod.find_isomorphism", "dmod.find_isomorphism_d")

# Spans whose tag records something about the call: the suite a
# `run_suite` ran, or whether an isomorphism search found one.
_TAGS = {"verify.run_suite": lambda args, result: args[0],
         **{name: lambda args, result: result is not None for name in SEARCHES}}

_MARK = "__perfbench_original__"


class Tracer:
    """Spans of one traced pass, kept in memory until `write`."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, request, tag]
        self.request = ""    # id of the item being run; set by the caller
        self._stack = []
        self._patches = []   # (owner, attribute, original)
        self.memos = {}      # metric prefix -> traced lru_cache

    def _wrap(self, name, fn):
        spans, stack, tag_of = self.spans, self._stack, _TAGS.get(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request, None]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()
                if tag_of is not None:
                    span[5] = tag_of(args, result)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, _MARK, fn)
        return wrapper

    def _rebind(self, module_name, attr, make):
        mod = sys.modules[module_name]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "delannoy"
                                     or name.startswith("delannoy.")):
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    self._patches.append((other, key, orig))
                    setattr(other, key, new)
        return new

    def install(self):
        import delannoy.cli  # noqa: F401  (loads every engine module)
        for name, module_name, attr in SPANS:
            self._rebind(module_name, attr,
                         lambda fn, name=name: self._wrap(name, fn))
        for prefix, module_name, attr in MEMOS:
            def make(cached, prefix=prefix):
                fresh = lru_cache(maxsize=None)(
                    self._wrap(prefix + ".build", cached.__wrapped__))
                setattr(fresh, _MARK, cached)
                return fresh
            self.memos[prefix] = self._rebind(module_name, attr, make)
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    @staticmethod
    def leftovers():
        """Names in delannoy.* (and on their classes) that are still wrapped."""
        found = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "delannoy"
                                   or name.startswith("delannoy.")):
                continue
            for key, value in vars(mod).items():
                if hasattr(value, _MARK):
                    found.append(f"{name}.{key}")
                if isinstance(value, type) and value.__module__ == name:
                    for meth, fn in vars(value).items():
                        if hasattr(fn, _MARK):
                            found.append(f"{name}.{key}.{meth}")
        return found

    def write(self, path, header):
        """Write the spans as tab-separated rows: id parent name tag start end request."""
        import gzip
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(f"# {header}\n")
            out.write("id\tparent\tname\ttag\tstart_s\tend_s\trequest\n")
            for sid, (name, t0, t1, parent, req, tag) in enumerate(self.spans):
                out.write(f"{sid}\t{parent}\t{name}\t{tag}\t{t0:.9f}\t{t1:.9f}\t{req}\n")


def layer_metrics(tracer):
    """Per-layer numbers of one traced pass, keyed by metric name."""
    spans = tracer.spans
    calls, self_s, child_s = {}, {}, [0.0] * len(spans)
    kids = {}                     # parent id -> {child name: count}
    suite_wall, found = {}, {}
    for sid, (name, t0, t1, parent, _req, tag) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += t1 - t0
            per = kids.setdefault(parent, {})
            per[name] = per.get(name, 0) + 1
    for sid, (name, t0, t1, parent, _req, tag) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_s[sid]
        if name == "verify.run_suite":
            suite_wall[tag] = suite_wall.get(tag, 0.0) + (t1 - t0)
        elif name in SEARCHES:
            found[name] = found.get(name, 0) + tag
    out = {}
    for name, _mod, _attr in SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for prefix, cached in tracer.memos.items():
        info = cached.cache_info()
        out[f"{prefix}.builds"] = info.misses
        out[f"{prefix}.hits"] = info.hits
        out[f"{prefix}.tables"] = info.currsize
        out[f"{prefix}.build_s"] = sum(
            t1 - t0 for name, t0, t1, *_ in spans if name == prefix + ".build")
    # Route of the certified modular rank: a child `rref` is the Fraction
    # fallback, each child `mod_rref` is one prime tried.
    rki = [sid for sid, s in enumerate(spans) if s[0] == "linalg.rank_kernel_int"]
    fallbacks = sum(1 for sid in rki if kids.get(sid, {}).get("linalg.rref"))
    out["linalg.rank_kernel_int.fallbacks"] = fallbacks
    out["linalg.rank_kernel_int.primes"] = sum(
        kids.get(sid, {}).get("linalg.mod_rref", 0) for sid in rki)
    out["linalg.rank_kernel_int.certified_ratio"] = (
        (len(rki) - fallbacks) / len(rki) if rki else 0.0)
    for name in SEARCHES:
        n = calls.get(name, 0)
        out[f"{name}.found_ratio"] = found.get(name, 0) / n if n else 0.0
    for suite, wall in suite_wall.items():
        out[f"verify.{suite}.wall_s"] = wall
    return out
