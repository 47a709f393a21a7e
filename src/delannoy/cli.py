"""Command-line surface: structured queries and named verification suites.

Exit codes: 0 all pass, 1 any fail, 2 usage error.  Inconclusive cases (from
truncation-margin or window rules) are reported but do not fail.  All JSON
output is deterministic: fixed case ordering and sorted keys, schema 1.
"""

import argparse
import json
import sys
from functools import lru_cache

from . import acat, bmod, dmod, derived, kring, verify
from .fields import field_from_spec
from .schwartz import (MU2, compose, matrix_from_json, matrix_to_json)
from .weights import format_weight, parse_weight, sort_key, tensor_summands

MEASURE_BY_NAME = {"mu1": 1, "mu2": 2, "mu3": 3, "mu4": 4,
                   "1": 1, "2": 2, "3": 3, "4": 4}


def parse_aobject(text, field):
    """Object literal: `A:<n>`, `M:<weight>`, or tensor chains with `*`."""
    obj = None
    for part in text.split("*"):
        kind, _, val = part.partition(":")
        if kind == "A" and val.isdigit():
            nxt = acat.schwartz_object(int(val), MU2, field)
        elif kind == "M":
            nxt = acat.indecomposable(parse_weight(val), MU2, field)
        else:
            raise ValueError(f"bad object literal {part!r}; want A:<n> or M:<weight>")
        obj = nxt if obj is None else acat.tensor_objects(obj, nxt)
    if obj is None:
        raise ValueError("empty object literal")
    return obj


def parse_bmodule(text, field):
    """Module literal: S: Stan: Cost: P: I: Q: or T:<weight>@<window>."""
    kind, _, val = text.partition(":")
    if kind == "T":
        lam, _, win = val.partition("@")
        if not win.isdigit():
            raise ValueError("truncated tilting literal needs @<window>")
        return bmod.truncated_tilting(parse_weight(lam), int(win), field)
    if kind in ("S", "Stan", "Cost", "P", "I", "Q"):
        return bmod.named_bmodule(kind, parse_weight(val), field)
    raise ValueError(f"bad module literal {text!r}")


def parse_dmodule_kind(text):
    """D-side literal: DS: DDelta: DNabla: DT:<weight> (named modules only)."""
    kind, _, val = text.partition(":")
    mapping = {"DS": "S", "DDelta": "Delta", "DNabla": "Nabla", "DT": "T"}
    if kind in mapping:
        return mapping[kind], parse_weight(val)
    raise ValueError(f"bad module literal {text!r}; want DS/DDelta/DNabla/DT")


RINGS = {"kc": kring.KC, "ka": kring.KA, "kd": kring.KD}


def parse_kelement(text):
    """Ring element literal {"ring": "kc"|"ka"|"kd", "coeffs": {weight: int}};
    ValueError names the first malformed field."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"element: expected a JSON object, got "
                         f"{type(data).__name__}")
    ring = data.get("ring")
    if not isinstance(ring, str) or ring not in RINGS:
        raise ValueError(f"'ring' must be one of {sorted(RINGS)}, got {ring!r}")
    coeffs = data.get("coeffs")
    if not isinstance(coeffs, dict):
        raise ValueError("'coeffs' must be an object of weight: int")
    for w, c in coeffs.items():
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"coeffs[{w!r}] must be an int, got {c!r}")
    return kring.KElement.make(RINGS[ring], {parse_weight(w): c
                                             for w, c in coeffs.items()})


def _emit(data, as_json):
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        for line in _render(data):
            print(line)


def _render(data, indent=""):
    if isinstance(data, dict):
        for k in data:
            v = data[k]
            if isinstance(v, (dict, list)):
                yield f"{indent}{k}:"
                yield from _render(v, indent + "  ")
            else:
                yield f"{indent}{k}: {v}"
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                yield from _render(v, indent)
            else:
                yield f"{indent}- {v}"
    else:
        yield f"{indent}{data}"


_GLOBAL_DEFAULTS = {"measure": "mu2", "field": "q", "max_len": 4,
                    "max_deg": 5, "json": False}


def _count(text):
    """argparse type of the window flags: an int >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _common_flags():
    # suppressed defaults let the flags appear before or after the
    # subcommand without the subparser resetting earlier values
    c = argparse.ArgumentParser(add_help=False,
                                argument_default=argparse.SUPPRESS)
    c.add_argument("--measure", choices=sorted(MEASURE_BY_NAME),
                   help="measure for compositions (default mu2)")
    c.add_argument("--field", help="coefficient field: q or p<prime>")
    c.add_argument("--max-len", type=_count, help="weight window (default 4)")
    c.add_argument("--max-deg", type=_count,
                   help="homological window (default 5)")
    c.add_argument("--json", action="store_true", help="machine output")
    return c


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process.  `parse_args` returns a
    fresh namespace on every call, so no flag carries over between calls."""
    common = _common_flags()
    p = argparse.ArgumentParser(
        prog="delannoy", parents=[common],
        description="exact verification engine for the two Delannoy "
                    "categories and their module categories")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("compose", parents=[common],
                        help="compose two matrices (JSON files, - for stdin)")
    sp.add_argument("left")
    sp.add_argument("right")

    sp = sub.add_parser("idempotent", parents=[common],
                        help="the cut idempotent of a weight")
    sp.add_argument("weight")

    sp = sub.add_parser("hom", parents=[common],
                        help="hom dimension between objects")
    sp.add_argument("source")
    sp.add_argument("target")

    sp = sub.add_parser("decompose", parents=[common],
                        help="indecomposable multiplicities")
    sp.add_argument("object")

    sp = sub.add_parser("tensor", parents=[common],
                        help="tensor decomposition of two weights")
    sp.add_argument("lam")
    sp.add_argument("mu")

    sp = sub.add_parser("ext", parents=[common],
                        help="Ext dimensions between modules")
    sp.add_argument("side", choices=["b", "d"])
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--max-i", type=_count, default=3)

    sp = sub.add_parser("resolve", parents=[common],
                        help="minimal projective resolution symbols")
    sp.add_argument("module")

    sp = sub.add_parser("derived", parents=[common],
                        help="left-derived functor values")
    sp.add_argument("functor", choices=["phi", "psi", "theta"])
    sp.add_argument("module")

    sp = sub.add_parser("kring", parents=[common],
                        help="Grothendieck ring operations")
    ksub = sp.add_subparsers(dest="kcommand", required=True)
    km = ksub.add_parser("mult", parents=[common])
    km.add_argument("--ring", choices=["kc", "ka", "kd"], default="ka")
    km.add_argument("lam")
    km.add_argument("mu")
    kp = ksub.add_parser("map", parents=[common])
    kp.add_argument("which", choices=["phi", "i", "j"])
    kp.add_argument("element", help='JSON like {"ring":"ka","coeffs":{"b":1}}')

    sp = sub.add_parser("verify", parents=[common],
                        help="run a named verification suite")
    sp.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    return p


def _read_matrix(path, field):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        return matrix_from_json(json.loads(text), field)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _suite_kwargs(name, args):
    # map the global windows onto each suite's natural knobs
    table = {
        "idempotents": {"max_len": min(args.max_len, 4)},
        "hom-table": {"max_len": min(args.max_len, 3)},
        "schwartz-decomp": {"max_n": min(args.max_len, 4)},
        "degenerate-ideal": {"max_n": min(args.max_len, 4)},
        "tensor-rule": {},
        "bmod-ext": {"max_len": min(args.max_len + 1, 5),
                     "max_i": min(args.max_deg, 5)},
        "dmod-ext": {"max_len": min(args.max_len, 4),
                     "max_i": min(args.max_deg, 4)},
        "derived-functors": {"max_len": min(args.max_len, 4),
                             "max_deg": max(args.max_deg, 5) + 1},
        "sod": {"max_len": min(args.max_len, 4),
                "max_i": min(args.max_deg, 5)},
        "tilting-hom": {},
        "kring-iso": {},
        "tor": {},
        "measures": {},
        "matrix-examples": {},
    }
    kwargs = table.get(name, {})
    kwargs["field"] = field_from_spec(args.field)
    return kwargs


def _print_report(report, as_json):
    if as_json:
        sys.stdout.writelines(report.json_pieces())
        sys.stdout.write("\n")
        return
    counts = report.counts
    print(f"suite {report.suite}: {counts['pass']} pass, "
          f"{counts['fail']} fail, {counts['inconclusive']} inconclusive "
          f"({report.elapsed:.1f}s)")
    for c in report.failed:
        print(f"  FAIL {c.id}: expected {c.expected!r}, got {c.actual!r}"
              + (f"  [{c.repro}]" if c.repro else ""))
    for c in report.inconclusive:
        print(f"  INCONCLUSIVE {c.id}: {c.expected}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    # the global flags given, so a failed verify case can be replayed
    given = "".join(f" --{key.replace('_', '-')} {getattr(args, key)}"
                    for key in _GLOBAL_DEFAULTS
                    if key != "json" and hasattr(args, key))
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        field = field_from_spec(args.field)
        measure = MEASURE_BY_NAME[args.measure]
        cmd = args.command
        if cmd in ("hom", "decompose", "tensor") and measure != MU2:
            raise ValueError(f"--measure {args.measure}: {cmd} is computed "
                             "in the second category (mu2) only")
        if cmd == "compose":
            left = _read_matrix(args.left, field)
            right = _read_matrix(args.right, field)
            _emit(matrix_to_json(compose(left, right, measure)), args.json)
        elif cmd == "idempotent":
            lam = parse_weight(args.weight)
            e = acat.e_lambda(lam, field)
            ok = compose(e, e, measure) == e
            _emit({"schema": 1, "weight": format_weight(lam),
                   "idempotent": ok, "matrix": matrix_to_json(e)}, args.json)
        elif cmd == "hom":
            x = parse_aobject(args.source, field)
            y = parse_aobject(args.target, field)
            _emit({"schema": 1, "dim": acat.hom_dim(x, y)}, args.json)
        elif cmd == "decompose":
            x = parse_aobject(args.object, field)
            mult = acat.multiplicities(x)
            _emit({"schema": 1,
                   "multiplicities": {format_weight(k): v
                                      for k, v in sorted(mult.items(),
                                                         key=lambda kv: sort_key(kv[0]))}},
                  args.json)
        elif cmd == "tensor":
            lam, mu = parse_weight(args.lam), parse_weight(args.mu)
            summands = [format_weight(w)
                        for w in tensor_summands(lam, mu, True)]
            _emit({"schema": 1, "summands": summands}, args.json)
        elif cmd == "ext":
            if args.side == "b":
                m = parse_bmodule(args.source, field)
                n = parse_bmodule(args.target, field)
                dims = bmod.ext_table(m, n, args.max_i)
            else:
                km, lam = parse_dmodule_kind(args.source)
                kn, mu = parse_dmodule_kind(args.target)
                dims = [dmod.ext_dim(km, lam, kn, mu, i, field)
                        for i in range(args.max_i + 1)]
            _emit({"schema": 1, "ext": dims}, args.json)
        elif cmd == "resolve":
            m = parse_bmodule(args.module, field)
            res = bmod.min_projective_resolution(m, args.max_deg)
            _emit({"schema": 1,
                   "terms": [[format_weight(w) for w in res.terms[-k]]
                             for k in range(len(res.terms))]}, args.json)
        elif cmd == "derived":
            m = parse_bmodule(args.module, field)
            values = []
            if args.functor == "phi":
                out = derived.l_phi(m, args.max_deg)
                for k in sorted(out):
                    values.append({"degree": k,
                                   "value": {format_weight(w): c
                                             for w, c in sorted(out[k].items())}})
            elif args.functor == "psi":
                out = derived.l_psi(m, args.max_deg)
                for k in sorted(out):
                    v = out[k]
                    if isinstance(v, tuple):
                        values.append({"degree": k,
                                       "value": f"{v[0]}:{format_weight(v[1])}"})
                    else:
                        values.append({"degree": k,
                                       "value": {format_weight(w): c
                                                 for w, c in sorted(v.dims.items())}})
            else:
                out = derived.l_theta(m, args.max_deg)
                for k, d in enumerate(out):
                    if d:
                        values.append({"degree": k, "value": d})
            _emit({"schema": 1, "functor": args.functor, "values": values},
                  args.json)
        elif cmd == "kring":
            if args.kcommand == "mult":
                ring = RINGS[args.ring]
                a = kring.basis_element(ring, parse_weight(args.lam))
                b = kring.basis_element(ring, parse_weight(args.mu))
                prod = kring.mult(a, b)
                _emit({"schema": 1, "ring": args.ring,
                       "coeffs": {format_weight(w): c for w, c in prod.coeffs}},
                      args.json)
            else:
                elt = parse_kelement(args.element)
                fn = {"phi": kring.phi_map, "i": kring.i_map,
                      "j": kring.j_map}[args.which]
                out = fn(elt)
                _emit({"schema": 1, "ring": out.ring,
                       "coeffs": {format_weight(w): c for w, c in out.coeffs}},
                      args.json)
        elif cmd == "verify":
            names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
            ok = True
            for n in names:  # each report is out before the next suite runs
                rep = verify.run_suite(n, f"delannoy verify {n}{given}",
                                       **_suite_kwargs(n, args))
                _print_report(rep, args.json)
                sys.stdout.flush()
                ok = ok and rep.ok
            return 0 if ok else 1
        return 0
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
