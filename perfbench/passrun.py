"""One pass of a workload in a fresh process; prints one JSON line.

Usage: python3 perfbench/passrun.py WORKLOAD SEED PASS TRACE SPAWNED
where SPAWNED is the parent's time.monotonic() just before it started this
process, so that setup_s covers interpreter start and imports.  Run from the
repository root with src/ on PYTHONPATH.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    workload, seed, pass_index, trace, spawned = argv
    seed, pass_index, trace = int(seed), int(pass_index), trace == "1"
    sys.path.insert(0, HERE)
    import numpy
    import delannoy.bmod
    import delannoy.cli
    from delannoy.fields import QQ
    import workloads

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    items = workloads.order(workload, seed, pass_index)
    tally = {"cases": 0, "failed": 0, "inconclusive": 0, "raised": 0,
             "errors": []}

    t_first = time.monotonic()
    t0 = time.perf_counter()
    for k, item in enumerate(items):
        if tracer:
            tracer.request = f"{pass_index}.{k}"
        kind, args = item
        try:
            if kind == "cli":
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = delannoy.cli.main(list(args))
                answer = (rc, buf.getvalue())
            else:
                (mk, ml), (nk, nl), imax, kw = args
                answer = delannoy.bmod.tor_bmod(
                    delannoy.bmod.named_bmodule(mk, ml, QQ),
                    delannoy.bmod.named_bmodule(nk, nl, QQ), imax, **kw)
            got = workloads.check(item, answer)
        except Exception as exc:  # an item that raises is a failed case
            tally["raised"] += 1
            tally["errors"].append(f"{workloads.item_id(item)}: "
                                   f"{type(exc).__name__}: {exc}")
            continue
        for key in ("cases", "failed", "inconclusive"):
            tally[key] += got[key]
        tally["errors"] += got["errors"]
    wall = time.perf_counter() - t0

    result = {
        "setup_s": t_first - float(spawned),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        **tally,
    }
    if tracer:
        from tracer import layer_metrics
        tracer.uninstall()
        result["leftovers"] = tracer.leftovers()
        result["layers"] = layer_metrics(tracer)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{workload}.tsv.gz"),
                     f"workload={workload} seed={seed} pass={pass_index}")
        result["spans"] = len(tracer.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
