"""Self-test of the benchmark harness: checker and tracer.

    python3 perfbench/selftest.py        (from a checkout; exit 0 = all good)

1. The answer checker counts wrong answers as failures: each known-bad
   answer below must come back with failed > 0, and the right answers with
   failed == 0.
2. The tracer wraps every listed function in every namespace that holds it,
   records spans and memo counts, and after `uninstall` leaves nothing
   wrapped: every patched name is the original object again.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

problems = []


def expect(cond, what):
    if not cond:
        problems.append(what)


def _report(suite, cases, counts=None):
    tally = {"pass": 0, "fail": 0, "inconclusive": 0}
    for c in cases:
        tally[c["status"]] += 1
    return json.dumps({"schema": 1, "suite": suite, "window": {},
                       "cases": cases, "counts": counts or tally,
                       "elapsed_s": 0.0})


def test_checker():
    deg = ("cli", ["verify", "degenerate-ideal", "--json", "--max-len", "3"])
    good = [{"id": f"quotient[n={n}]", "status": "pass",
             "expected": repr(2 ** n), "actual": repr(2 ** n)} for n in (1, 2, 3)]
    expect(workloads.check(deg, (0, _report("degenerate-ideal", good)))["failed"] == 0,
           "right quotient dims counted as failed")
    wrong = [dict(c) for c in good]
    wrong[2]["actual"] = "9"     # the engine claims pass, the closed form disagrees
    expect(workloads.check(deg, (0, _report("degenerate-ideal", wrong)))["failed"] > 0,
           "quotient dim 9 at n=3 not counted as a failure")
    failing = [dict(c) for c in good]
    failing[0]["status"] = "fail"
    expect(workloads.check(deg, (1, _report("degenerate-ideal", failing)))["failed"] > 0,
           "a failing case not counted")
    expect(workloads.check(deg, (0, _report("degenerate-ideal", failing)))["failed"] > 0,
           "exit code 0 with a failing case not counted")
    expect(workloads.check(deg, (0, _report("degenerate-ideal", good,
                                            {"pass": 2, "fail": 0,
                                             "inconclusive": 0})))["failed"] > 0,
           "counts that disagree with the cases not counted")
    skip = ("cli", ["verify", "tilting-hom", "--json"])
    got = workloads.check(skip, (0, _report("tilting-hom", [
        {"id": "homTT[margin<2]", "status": "inconclusive",
         "expected": "'11 pairs'", "actual": "None"}])))
    expect(got["failed"] == 0 and got["inconclusive"] == 1,
           "an inconclusive case counted as a failure or not at all")

    p_win = ("tor", (("P", "w"), ("S", ""), 0, {}))
    expect(workloads.check(p_win, [0])["failed"] == 0, "P (x) S_e = [0] failed")
    expect(workloads.check(p_win, [1])["failed"] > 0, "P (x) S_e = [1] passed")
    tor1 = ("tor", (("S", "w"), ("S", "w"), 1, {"nu_len": 2}))
    expect(workloads.check(tor1, [1, 0])["failed"] == 0, "Tor_1 = 0 failed")
    expect(workloads.check(tor1, [1, 2])["failed"] > 0, "Tor_1 = 2 passed")
    expect(workloads.check(tor1, [1])["failed"] > 0, "a short Tor list passed")

    dec = ("cli", ["decompose", "M:w*M:ww", "--json", "--field", "p46337"])
    right = json.dumps({"multiplicities": {"ww": 2, "www": 3}, "schema": 1})
    bad = json.dumps({"multiplicities": {"ww": 1, "www": 3}, "schema": 1})
    expect(workloads.check(dec, (0, right))["failed"] == 0,
           "right tensor multiplicities failed")
    expect(workloads.check(dec, (0, bad))["failed"] > 0,
           "wrong tensor multiplicities passed")


def test_tracer():
    from tracer import MEMOS, SPANS, Tracer, layer_metrics
    import delannoy.acat as acat
    import delannoy.bmod as bmod
    import delannoy.cli as cli
    import delannoy.linalg as linalg
    import delannoy.schwartz as schwartz
    from delannoy.fields import QQ

    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("delannoy") and mod is not None}
    methods = (linalg.SpanBuilder.insert, linalg.ModSpan.insert)
    tracer = Tracer().install()
    try:
        expect(acat._pair_index is schwartz._pair_index
               and acat._pair_index is not before["delannoy.acat"]["_pair_index"],
               "_pair_index not rebound in both acat and schwartz")
        expect(linalg.SpanBuilder.insert is not methods[0], "SpanBuilder.insert not wrapped")
        import contextlib
        import io
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "degenerate-ideal", "--json", "--max-len", "2"])
        bmod.tor_bmod(bmod.named_bmodule("P", "w", QQ),
                      bmod.named_bmodule("S", "", QQ), 0)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer)
    expect(layers["cli.main.calls"] == 1, "cli.main span missing")
    expect(layers["linalg.rank_kernel_int.calls"] == 2, "rank_kernel_int calls != 2")
    expect(layers["linalg.rank_kernel_int.primes"] >= 2, "no mod-p primes counted")
    expect(layers["bmod.tor_bmod.calls"] == 1, "tor_bmod span missing")
    expect(layers["schwartz.pair_index.builds"] > 0, "no _pair_index builds seen")
    expect("verify.degenerate-ideal.wall_s" in layers, "per-suite wall missing")
    expect(all(len(s) == 6 and s[2] >= s[1] for s in tracer.spans), "malformed span")

    expect(Tracer.leftovers() == [], f"still wrapped: {Tracer.leftovers()}")
    for name, attrs in before.items():
        now = vars(sys.modules[name])
        for key, value in attrs.items():
            expect(now.get(key) is value, f"{name}.{key} not restored")
    expect((linalg.SpanBuilder.insert, linalg.ModSpan.insert) == methods,
           "a method not restored")
    expect(len(SPANS) + len(MEMOS) == len({s[0] for s in SPANS + MEMOS}),
           "duplicate span names")


if __name__ == "__main__":
    test_checker()
    test_tracer()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    sys.exit(1 if problems else 0)
