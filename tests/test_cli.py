import json

import pytest

from delannoy.cli import main


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
    ("not json", "Expecting value"),
])
def test_compose_rejects_malformed_matrix(tmp_path, capsys, text, field):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code = main(["compose", str(p), str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {p}: ") and field in err


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
