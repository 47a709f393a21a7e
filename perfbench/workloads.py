"""The benchmark's workloads: the calls each one makes and how answers are checked.

An item is one call into the engine's public surface:
  ("cli", argv)                       delannoy.cli.main(argv), stdout captured
  ("tor", (m, n, imax, kwargs))       delannoy.bmod.tor_bmod on named modules,
                                      m and n given as (kind, weight)
A pass runs every item of its workload once, in an order fixed by the seed
and the pass number, in one fresh process, so the engine's memo tables start
cold in every pass exactly as they do for every `delannoy` invocation.

Checkers take an item and its raw answer and return a tally
{"cases", "failed", "inconclusive", "errors"}; the engine's own verdicts are
re-read, never trusted blindly: counts must match the case list, and the
known closed forms (2^n quotient dimensions, tensor-rule multiplicities, the
vanishing Tor groups) are checked independently of the suite code.
"""

import json
import random
import re
from collections import Counter

P = "p46337"

WORKLOADS = {
    # The twelve fast acceptance suites (criteria 1-5, 7-12, 14) over Q.
    # idempotents and schwartz-decomp run one weight below their acceptance
    # window, bmod-ext one weight and two degrees below, so that a pass fits
    # several times in a run; the rest run at the CLI defaults, which equal
    # their acceptance windows.
    "tables": [
        ("cli", ["verify", "measures", "--json"]),
        ("cli", ["verify", "matrix-examples", "--json"]),
        ("cli", ["verify", "idempotents", "--json", "--max-len", "3"]),
        ("cli", ["verify", "hom-table", "--json"]),
        ("cli", ["verify", "schwartz-decomp", "--json", "--max-len", "3"]),
        ("cli", ["verify", "tensor-rule", "--json"]),
        ("cli", ["verify", "bmod-ext", "--json", "--max-len", "3", "--max-deg", "3"]),
        ("cli", ["verify", "dmod-ext", "--json"]),
        ("cli", ["verify", "derived-functors", "--json"]),
        ("cli", ["verify", "sod", "--json"]),
        ("cli", ["verify", "kring-iso", "--json"]),
        ("cli", ["verify", "tilting-hom", "--json"]),
    ],
    # Criterion 6 at n <= 3: the only caller of linalg.rank_kernel_int.
    # n = 4 (one 14,960 x 321 system) takes minutes while the modular
    # certificate falls back to Fraction elimination, more than a run allows.
    "certify": [
        ("cli", ["verify", "degenerate-ideal", "--json", "--max-len", "3"]),
    ],
    # The affordable slice of the Tor stretch suite (criterion 13): the six
    # P_lam (x) S_e windows and Tor_1(S_w, S_w) one weight below the suite's
    # window.  Tor_2 brings five-part size triples whose cold builds alone
    # take longer than a pass may.
    "tor": [("tor", (("P", lam), ("S", ""), 0, {}))
            for lam in ("w", "b", "ww", "wb", "bw", "bb")] + [
        ("tor", (("S", "w"), ("S", "w"), 1, {"max_part": 6, "nu_len": 2})),
    ],
    # The prime-field fork of acat.hom_dim: dense operators and many small
    # mod-p eliminations.  The decompositions are tensor-rule cases: the four
    # two-letter ones and two of the sixteen three-letter ones (about 0.8 s
    # each).
    "modp": [
        ("cli", ["verify", "idempotents", "--json", "--max-len", "3", "--field", P]),
        ("cli", ["verify", "hom-table", "--json", "--field", P]),
        ("cli", ["verify", "schwartz-decomp", "--json", "--max-len", "3", "--field", P]),
    ] + [("cli", ["decompose", f"M:{a}*M:{b}", "--json", "--field", P])
         for a, b in (("w", "w"), ("w", "b"), ("b", "w"), ("b", "b"),
                      ("w", "bb"), ("b", "wb"))],
}

NOT_RUN = {"verify.tor": "not run, out of budget "
                         "(criterion 13 did not finish within 900 s)"}


def item_id(item):
    kind, args = item
    if kind == "cli":
        return " ".join(args)
    (mk, ml), (nk, nl), imax, kw = args
    extra = "".join(f",{k}={v}" for k, v in sorted(kw.items()))
    return f"tor_bmod({mk}_{ml or 'e'},{nk}_{nl or 'e'},{imax}{extra})"


def order(workload, seed, pass_index):
    """The items of one pass, in the order fixed by seed and pass number."""
    items = list(WORKLOADS[workload])
    random.Random(seed * 1_000_003 + pass_index).shuffle(items)
    return items


def _tally(cases=0, failed=0, inconclusive=0, errors=()):
    return {"cases": cases, "failed": failed, "inconclusive": inconclusive,
            "errors": list(errors)}


def _check_verify(argv, rc, out):
    reports = [json.loads(line) for line in out.splitlines() if line.strip()]
    if len(reports) != 1 or reports[0].get("suite") != argv[1]:
        return _tally(1, 1, errors=[f"{argv[1]}: expected one report"])
    rep = reports[0]
    status = Counter(c["status"] for c in rep["cases"])
    errors = []
    if dict(rep["counts"]) != {s: status.get(s, 0)
                               for s in ("pass", "fail", "inconclusive")}:
        errors.append(f"{argv[1]}: counts {rep['counts']} disagree with cases")
    if set(status) - {"pass", "fail", "inconclusive"}:
        errors.append(f"{argv[1]}: unknown status in {sorted(status)}")
    failed = status.get("fail", 0)
    for c in rep["cases"]:
        if c["status"] == "fail":
            errors.append(f"{argv[1]} {c['id']}: expected {c['expected']}, "
                          f"got {c['actual']}")
        m = re.fullmatch(r"quotient\[n=(\d+)\]", c["id"])
        if m and c["status"] == "pass" and c["actual"] != repr(2 ** int(m[1])):
            failed += 1
            errors.append(f"{c['id']}: got {c['actual']}, want {2 ** int(m[1])}")
    if rc != (1 if status.get("fail") else 0):
        errors.append(f"{argv[1]}: exit code {rc}")
        failed += 1
    if errors and not failed:
        failed = 1
    return _tally(len(rep["cases"]), failed, status.get("inconclusive", 0),
                  errors)


def _check_decompose(argv, rc, out):
    from delannoy.weights import format_weight, parse_weight, tensor_summands
    a, b = (parse_weight(w.split(":", 1)[1]) for w in argv[1].split("*"))
    want = dict(Counter(format_weight(w) for w in tensor_summands(a, b, True)))
    got = json.loads(out)["multiplicities"] if rc == 0 else None
    if got != want:
        return _tally(1, 1, errors=[f"decompose {argv[1]}: got {got}, want {want}"])
    return _tally(1)


def _check_tor(args, dims):
    (mk, _), _, imax, _ = args
    want = [0] if mk == "P" else None
    if want is not None:
        ok = dims == want
    else:  # Tor_0 is not pinned by the suite; Tor_i vanishes for i >= 1
        ok = len(dims) == imax + 1 and all(d == 0 for d in dims[1:])
    cases = 1 if want is not None else imax
    if ok:
        return _tally(cases)
    return _tally(cases, cases, errors=[f"{item_id(('tor', args))}: got {dims}"])


def check(item, answer):
    """Tally of one item's answer.  answer is (rc, stdout) or the Tor dims."""
    kind, args = item
    if kind == "tor":
        return _check_tor(args, answer)
    rc, out = answer
    if args[0] == "verify":
        return _check_verify(args, rc, out)
    return _check_decompose(args, rc, out)
