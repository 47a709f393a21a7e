"""Benchmark of the delannoy engine: cold-process workloads, closed loop.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one summary

Run from anywhere inside a checkout; the engine is imported from its src/.
A run repeats passes for --seconds (default: run_seconds of BENCHMARK.json).
Each pass is a fresh single-threaded process that imports the engine and
runs every item of the workload once (see workloads.py), one call after the
other, so memo tables start cold in each pass.  A new pass starts only while
the previous one of its kind still fits in the window.  Each pass is
bracketed by a measurement of the machine's speed (`machine_speed`), and its
times are reported in reference seconds.  With --trace 0 the run reports the
end-to-end metrics: medians over passes of wall_s and setup_s, and the
mean of peak_rss_mb over the passes' item orders.  With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (medians) plus trace.overhead_s.  Metric names and units
come from BENCHMARK.json at the checkout root.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
environment, every metric with its unit, the measured (unscaled) times and
the failed and inconclusive shares.  The exit code is 1 if any answer check
failed, 2 if the engine is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads  # noqa: E402

HARD_LIMIT_S = 165   # a run must end well within 180 s
CALIBRATE_S = 0.2    # speed measurement before and after each pass
REFERENCE_S = 0.005  # reference-kernel time that defines a reference second


def _commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest():
    """sha256 over the engine's source files: identifies the code without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "delannoy")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _reference_kernel():
    """Fixed work in the engine's two styles, about half each: tuple-keyed
    dicts with Fractions, and int64 row operations mod p in numpy."""
    d, acc = {}, Fraction(0)
    for i in range(4000):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i
        if i % 40 == 0:
            acc += Fraction(i % 13 + 1, i % 7 + 1)
    m = (numpy.arange(64 * 64, dtype=numpy.int64).reshape(64, 64) * 7919
         + 13) % 46337
    for r in range(64):
        m = (m - numpy.outer(m[:, r], m[r])) % 46337
    return sorted(d.items()), acc, m


def machine_speed(seconds=CALIBRATE_S):
    """Median time of the reference kernel over `seconds`, over REFERENCE_S.

    The machine is shared: its speed drifts by tens of percent over tens of
    seconds, independently of the engine.  Each pass is bracketed by this
    measurement, and its times are divided by the factor, which turns
    them into seconds on a machine where the kernel takes REFERENCE_S.
    """
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(samples) < 3:
        t0 = time.perf_counter()
        _reference_kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) / REFERENCE_S


def _one_pass(workload, seed, index, trace, budget):
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]]
                                        if env.get("PYTHONPATH") else []))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "passrun.py"), workload,
         str(seed), str(index), "1" if trace else "0", repr(spawned)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"pass {index} killed after {budget:.0f} s"
    if proc.returncode != 0 or not out.strip():
        return None, f"pass {index} exited with code {proc.returncode}"
    return json.loads(out.strip().splitlines()[-1]), None


def measure(workload, seed, seconds, trace):
    """Run passes for `seconds`; returns the per-pass results and problems."""
    kinds = [False, True] if trace else [False]
    done = {k: [] for k in kinds}
    last = {k: 0.0 for k in kinds}
    problems = []
    start = time.monotonic()
    index = 0
    while True:
        kind = kinds[index % len(kinds)]
        elapsed = time.monotonic() - start
        enough = all(done[k] for k in kinds)
        if enough and elapsed + last[kind] > seconds:
            break
        t0 = time.monotonic()
        before = machine_speed()
        result, problem = _one_pass(workload, seed, index, kind,
                                    HARD_LIMIT_S - elapsed)
        after = machine_speed()
        last[kind] = time.monotonic() - t0
        index += 1
        if problem:
            problems.append(problem)
            break
        result["speed"] = (before + after) / 2
        done[kind].append(result)
    return done, problems


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def summarize(workload, seed, seconds, trace):
    """Measure one workload; returns (result dict, info lines, numpy version)."""
    spec = _spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    done, problems = measure(workload, seed, seconds, trace)
    passes = [r for rs in done.values() for r in rs]
    cases = sum(r["cases"] for r in passes)
    failed = sum(r["failed"] + r["raised"] for r in passes) + len(problems)
    inconclusive = sum(r["inconclusive"] for r in passes)
    leftovers = sorted({x for r in passes for x in r.get("leftovers", [])})
    errors = [e for r in passes for e in r["errors"]] + problems
    if leftovers:
        errors.append(f"still wrapped after a traced pass: {leftovers}")
        failed += 1
    plain = done[False]
    values = {}
    if plain:
        for key in ("wall_s", "setup_s"):
            values[key] = statistics.median(r[key] / r["speed"] for r in plain)
            values[key + ".raw"] = statistics.median(r[key] for r in plain)
        values["speed"] = statistics.median(r["speed"] for r in plain)
        # the peak depends on which item order meets the largest memo
        # tables with the largest transient, so average over the orders
        values["peak_rss_mb"] = statistics.fmean(r["peak_rss_mb"] for r in plain)
    if trace and done[True] and plain:
        layers = [r["layers"] for r in done[True]]
        for name in per_layer:
            if name != "trace.overhead_s":
                values[name] = statistics.median_low(l.get(name, 0) for l in layers)
        values["trace.overhead_s"] = statistics.median(
            r["wall_s"] / r["speed"] for r in done[True]) - values["wall_s"]
    units = per_layer if trace else end_to_end
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    attempted = max(cases, 1)
    info = [f"{workload} passes {len(plain)} untraced"
            + (f", {len(done[True])} traced" if trace else "")
            + (f"; measured wall_s {min(r['wall_s'] for r in plain):.4f}"
               f"..{max(r['wall_s'] for r in plain):.4f} s" if plain else "")]
    info += [f"{workload} {name} {m['value']:.6g} {m['unit']}"
             for name, m in metrics.items()]
    if plain:
        info.append(f"{workload} measured wall_s {values['wall_s.raw']:.6g} s,"
                    f" setup_s {values['setup_s.raw']:.6g} s, at machine"
                    f" speed factor {values['speed']:.4g}")
    info.append(f"{workload} failed_share {failed / attempted:.6g} share"
                f" ({failed} of {attempted} cases)")
    info.append(f"{workload} inconclusive_share {inconclusive / attempted:.6g}"
                f" share ({inconclusive} of {attempted} cases)")
    info += [f"{workload} ERROR {e}" for e in errors[:20]]
    correct = failed == 0 and len(metrics) == len(units)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, info, (passes[0]["numpy"] if passes else None)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="length of the run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "delannoy", "__init__.py")):
        print("error: no engine at src/delannoy; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    env = {"commit": _commit(), "src_sha256": _src_digest(),
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "loadavg_start": os.getloadavg(), "seed": args.seed,
           "workload": args.workload, "seconds": args.seconds,
           "trace": args.trace, "not_run": workloads.NOT_RUN}
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = {}
    for name in names:
        res, info, numpy_version = summarize(name, args.seed, args.seconds,
                                             args.trace)
        env["numpy"] = numpy_version
        results[name] = res
        for line in info:
            print(line)
    print("env " + json.dumps(env, sort_keys=True))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
