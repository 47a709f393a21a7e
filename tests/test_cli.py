import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from delannoy.cli import main
from delannoy.weights import format_weight, parse_weight, tensor_summands


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_tensor_json(capsys):
    code, out = run_cli(capsys, "tensor", "b", "w", "--json")
    assert code == 0
    assert json.loads(out) == {"schema": 1,
                               "summands": ["b", "w", "bw", "wb"]}


def test_json_is_deterministic(capsys):
    _, out1 = run_cli(capsys, "--json", "verify", "measures")
    _, out2 = run_cli(capsys, "verify", "measures", "--json")
    assert out1 == out2


def test_exit_codes(capsys):
    code, _ = run_cli(capsys, "verify", "measures")
    assert code == 0
    code, _ = run_cli(capsys, "ext", "b", "S:xx", "S:w")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_hom_and_decompose(capsys):
    code, out = run_cli(capsys, "hom", "M:e", "M:b", "--json")
    assert code == 0 and json.loads(out)["dim"] == 1
    code, out = run_cli(capsys, "decompose", "M:b*M:w", "--json")
    assert json.loads(out)["multiplicities"] == {
        "b": 1, "w": 1, "bw": 1, "wb": 1}
    code, out = run_cli(capsys, "decompose", "A:1", "--json")
    assert json.loads(out)["multiplicities"] == {"b": 1, "w": 1}


@pytest.mark.parametrize("argv", [
    ["hom", "M:e", "M:b", "--measure", "mu1"],
    ["hom", "M:e", "M:b", "--measure", "mu3"],
    ["decompose", "M:b*M:w", "--measure", "mu1"],
    ["--measure", "4", "decompose", "A:1"],
    ["tensor", "b", "w", "--measure", "mu1"],
    ["--measure", "mu3", "tensor", "b", "w"],
])
def test_hom_and_decompose_refuse_other_measures(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.startswith("error: --measure ")


@pytest.mark.parametrize("flags", [["--measure", "mu2"],
                                   ["--measure", "2"]])
def test_hom_and_decompose_under_mu2(capsys, flags):
    code, out = run_cli(capsys, "hom", "M:e", "M:b", "--json", *flags)
    assert code == 0 and json.loads(out)["dim"] == 1
    code, out = run_cli(capsys, "decompose", "A:1", "--json", *flags)
    assert code == 0
    assert json.loads(out)["multiplicities"] == {"b": 1, "w": 1}
    code, out = run_cli(capsys, "tensor", "b", "w", "--json", *flags)
    assert code == 0
    assert json.loads(out)["summands"] == ["b", "w", "bw", "wb"]


def test_idempotent_command(capsys):
    code, out = run_cli(capsys, "idempotent", "b", "--json")
    data = json.loads(out)
    assert data["idempotent"] is True
    assert {e["path"] for e in data["matrix"]["entries"]} == {"D", "UR"}


def test_ext_commands(capsys):
    code, out = run_cli(capsys, "ext", "b", "S:w", "S:ww", "--max-i", "2",
                        "--json")
    assert json.loads(out)["ext"] == [0, 1, 0]
    code, out = run_cli(capsys, "ext", "d", "DDelta:wb", "DNabla:wb",
                        "--max-i", "2", "--json")
    assert json.loads(out)["ext"] == [1, 0, 0]


def test_resolve_and_derived(capsys):
    code, out = run_cli(capsys, "resolve", "Q:b", "--max-deg", "2", "--json")
    assert json.loads(out)["terms"] == [["bb"], ["bbw"], ["bbww"]]
    code, out = run_cli(capsys, "derived", "psi", "S:b", "--json")
    assert json.loads(out)["values"] == [{"degree": 1, "value": "S:e"}]
    code, out = run_cli(capsys, "derived", "theta", "S:bb", "--json")
    assert json.loads(out)["values"] == [{"degree": 2, "value": 1}]


def test_kring_commands(capsys):
    code, out = run_cli(capsys, "kring", "mult", "--ring", "ka", "b", "w",
                        "--json")
    assert json.loads(out)["coeffs"] == {"b": 1, "w": 1, "bw": 1, "wb": 1}
    code, out = run_cli(capsys, "kring", "map", "phi",
                        '{"ring":"ka","coeffs":{"b":1}}', "--json")
    assert json.loads(out)["coeffs"] == {"e": 1, "b": 1}


def test_compose_round_trip(tmp_path, capsys):
    from delannoy.schwartz import matrix_to_json, PermMatrix
    from delannoy.fields import QQ
    a = PermMatrix((1,), (1,), {(0, 0, "UR"): QQ.one, (0, 0, "D"): QQ.one})
    p = tmp_path / "a.json"
    p.write_text(json.dumps(matrix_to_json(a)))
    code, out = run_cli(capsys, "compose", str(p), str(p), "--json",
                        "--measure", "mu2")
    assert code == 0
    assert json.loads(out) == matrix_to_json(a)  # A is idempotent


def test_prime_field_flag(capsys):
    code, out = run_cli(capsys, "hom", "M:e", "M:b", "--field", "p7", "--json")
    assert code == 0 and json.loads(out)["dim"] == 1
    code, _ = run_cli(capsys, "hom", "M:e", "M:b", "--field", "p6")
    assert code == 2


@pytest.mark.parametrize("text, field", [
    ("[1, 2]", "JSON object"),
    ('{"source": [1]}', "'target'"),
    ('{"source": [1], "target": [1]}', "'entries'"),
    ('{"source": [1], "target": [1], "entries": [7]}', "entries[0]"),
    ('{"source": [1], "target": [1], "entries": '
     '[{"ti": 0, "si": 1, "path": "D", "coeff": "1"}]}', "entries[0].si"),
    ('{"source": [1], "target": [1], "entries": '
     '[{"ti": 0, "si": 0, "path": "X", "coeff": "1"}]}', "entries[0].path"),
    ('{"source": [1], "target": [1], "entries": '
     '[{"ti": 0, "si": 0, "path": "D", "coeff": 0.5}]}', "entries[0].coeff"),
    ('{"source": [1], "target": [1], "entries": '
     '[{"ti": 0, "si": 0, "path": "DD", "coeff": "1"}]}', "'DD'"),
    ('{"source": [1], "target": [1], "entries": '
     '[{"ti": 0, "si": 0, "path": "D", "coeff": "1"}, '
     '{"ti": 0, "si": 0, "path": "D", "coeff": "2"}]}',
     "entries[1] repeats the key of entries[0]"),
    ("not json", "Expecting value"),
])
def test_compose_rejects_malformed_matrix(tmp_path, capsys, text, field):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code = main(["compose", str(p), str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {p}: ") and field in err


@pytest.mark.parametrize("text, field", [
    ("[]", "element"),
    ('{"coeffs": {"b": 1}}', "'ring'"),
    ('{"ring": "kx", "coeffs": {"b": 1}}', "'ring'"),
    ('{"ring": "ka", "coeffs": [1]}', "'coeffs'"),
    ('{"ring": "ka", "coeffs": {"b": "x"}}', "coeffs['b']"),
    ('{"ring": "ka", "coeffs": {"b": 1.5}}', "coeffs['b']"),
    ('{"ring": "ka", "coeffs": {"b": true}}', "coeffs['b']"),
])
def test_kring_map_rejects_malformed_element(capsys, text, field):
    code = main(["kring", "map", "phi", text])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("argv", [
    ["verify", "idempotents", "--max-len", "-1"],
    ["resolve", "S:w", "--max-deg", "-1"],
    ["ext", "b", "S:w", "S:e", "--max-i", "-1"],
])
def test_negative_windows_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "hom-table", "--field", "p2147483647", "--json"],
    ["verify", "degenerate-ideal", "--max-len", "3", "--field", "p4294967311",
     "--json"],
])
def test_verify_exact_over_big_primes(capsys, argv):
    # int64 products and eliminations would wrap at these primes
    code, out = run_cli(capsys, *argv)
    report = json.loads(out)
    assert code == 0
    assert report["counts"]["fail"] == 0 and report["counts"]["pass"] > 0


def test_decompose_over_f2_keeps_integer_multiplicities(capsys):
    # 2 * bb + 3 * bbb: both counts are solved over Q, so neither wraps mod 2
    code, out = run_cli(capsys, "decompose", "M:b*M:bb", "--field", "p2",
                        "--json")
    assert code == 0
    assert json.loads(out)["multiplicities"] == {"bb": 2, "bbb": 3}


@pytest.mark.parametrize("argv", [
    ["verify", "tensor-rule", "--field", "p2", "--json"],
    ["verify", "schwartz-decomp", "--max-len", "3", "--field", "p2", "--json"],
])
def test_verify_decompositions_over_f2(capsys, argv):
    code, out = run_cli(capsys, *argv)
    report = json.loads(out)
    assert code == 0
    assert report["counts"]["fail"] == 0 and report["counts"]["pass"] > 0


def test_a_suite_that_raises_is_a_failed_case(capsys, monkeypatch):
    from delannoy import verify

    def boom(field):
        raise ArithmeticError("no certificate")

    monkeypatch.setattr(verify, "SUITES", {
        "measures": boom, "matrix-examples": verify.SUITES["matrix-examples"]})
    code, out = run_cli(capsys, "verify", "measures", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["counts"] == {"pass": 0, "fail": 1, "inconclusive": 0}
    [case] = report["cases"]
    assert case["status"] == "fail"
    assert case["actual"].startswith(
        repr("ArithmeticError: no certificate (raised at test_cli.py:")[:-1])
    assert case["repro"] == "delannoy verify measures"
    # `verify all` still reports every other suite
    code, out = run_cli(capsys, "verify", "all", "--json")
    assert code == 1
    reports = {r["suite"]: r for r in map(json.loads, out.splitlines())}
    assert reports["measures"]["counts"]["fail"] == 1
    assert reports["matrix-examples"]["counts"]["fail"] == 0


def test_a_failed_case_replays_with_the_flags_of_its_run(capsys, monkeypatch):
    from delannoy import verify

    def wrong_over_p2(field):
        cases = []
        verify._case(cases, "characteristic", 0, field.characteristic)
        verify._case(cases, "one", 1, field.one)
        return cases, {}

    monkeypatch.setitem(verify.SUITES, "measures", wrong_over_p2)
    code, out = run_cli(capsys, "verify", "measures", "--field", "p2",
                        "--max-len", "3", "--json")
    assert code == 1
    failed, passed = json.loads(out)["cases"]
    assert failed["status"] == "fail" and passed["status"] == "pass"
    assert failed["repro"] == "delannoy verify measures --field p2 --max-len 3"
    assert "repro" not in passed
    # flags before the subcommand count too; --json is not part of a replay
    code, out = run_cli(capsys, "--field", "p2", "--measure", "mu1",
                        "verify", "measures")
    assert code == 1
    assert "[delannoy verify measures --measure mu1 --field p2]" in out
    # over Q nothing fails, and a passing report carries no repro
    code, out = run_cli(capsys, "verify", "measures", "--json")
    assert code == 0 and "repro" not in out


def test_verify_all_prints_each_report_as_its_suite_returns(capsys,
                                                            monkeypatch):
    from delannoy import verify

    def interrupted(**kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "SUITES", {
        "measures": verify.SUITES["measures"], "tor": interrupted})
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "all", "--json"])
    [line] = capsys.readouterr().out.splitlines()
    report = json.loads(line)
    assert report["suite"] == "measures"
    assert report["counts"] == {"pass": 2, "fail": 0, "inconclusive": 0}


def test_verify_json_window_names_a_prime_field(capsys):
    code, out = run_cli(capsys, "verify", "tensor-rule", "--field", "p2",
                        "--json")
    assert code == 0
    assert json.loads(out)["window"] == {"field": "p2", "kring_sum": 6,
                                         "max_sum": 3}
    # over Q the window is as before
    code, out = run_cli(capsys, "verify", "tensor-rule", "--json")
    assert json.loads(out)["window"] == {"kring_sum": 6, "max_sum": 3}
    code, out = run_cli(capsys, "verify", "measures", "--field", "p3",
                        "--json")
    assert json.loads(out)["window"] == {"field": "p3"}


@pytest.mark.skipif(not os.environ.get("DELANNOY_TOR"),
                    reason="parts of size 5; opt in with DELANNOY_TOR=1")
def test_decompose_of_a_triple_tensor_is_the_ruffle_rule_twice():
    # parts of size up to 5 (about 35 s and 2 GB): a process of its own, so
    # its structure constants are freed when it ends
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "delannoy.cli", "decompose",
                           "M:bw*M:wb*M:b", "--json"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    want = Counter()
    for w in tensor_summands(parse_weight("bw"), parse_weight("wb"), True):
        want.update(tensor_summands(w, parse_weight("b"), True))
    assert json.loads(done.stdout)["multiplicities"] == {
        format_weight(w): n for w, n in want.items()}
