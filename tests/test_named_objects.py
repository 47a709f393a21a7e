"""Named objects are values built once per process, and `hom_dim`'s array
contraction against the per-row loop it replaced.

`loop_hom_dim` is `acat.hom_dim` as it was before the diagonal blocks became
per-object arrays: it lifts both idempotents, groups their diagonal
part-blocks as [(path, int)] lists and contracts each block row by row in
Python ints.  It stays here as the oracle, kept verbatim apart from reading
the lists off `_lifted_diag` instead of the old two-part `AObject.lifted`,
and the block off the per-measure `_trace_table(s_t, s_src, mu)`, with its
path ids from `_path_pos`, instead of column mu - 1 of the old four-measure
table.
"""

import json

import numpy as np
import pytest

from delannoy import acat, cli
from delannoy.acat import (AObject, _idempotent_over_z, _integer_entries,
                           _trace_table, hom_dim, indecomposable,
                           tensor_objects)
from delannoy.bmod import BModule, named_bmodule
from delannoy.dmod import DModule, named_dmodule
from delannoy.fields import QQ, PrimeField
from delannoy.paths import delannoy
from delannoy.schwartz import MU1, MU2, _path_pos
from delannoy.weights import enumerate_weights

from test_verify_stdout import STDOUT, TABLES, _report

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(46337)]


def _lifted_diag(obj):
    """(entries, diag): the integer lift and its diagonal part-blocks as
    diag[part] = [(path, int)]."""
    entries = _integer_entries(obj.idem.entries, obj.field)
    diag = {}
    for (tp, sp, path), c in entries.items():
        if tp == sp:
            diag.setdefault(tp, []).append((path, c))
    return entries, diag


def loop_hom_dim(x, y):
    """dim Hom(x, y) by the per-row Python contraction of the trace."""
    acat._check_same_setting(x, y)
    n_keys = sum(delannoy(s_src, s_t) for s_t in y.ambient
                 for s_src in x.ambient)
    if not n_keys:
        return 0
    mu = x.measure
    if x.identity_cut and y.identity_cut:
        return n_keys
    (x_int, x_diag), (y_int, y_diag) = _lifted_diag(x), _lifted_diag(y)
    total = 0
    for tp, s_t in enumerate(y.ambient):
        betas = y_diag.get(tp)
        if betas is None:
            continue
        for sp, s_src in enumerate(x.ambient):
            alphas = x_diag.get(sp)
            if alphas is None:
                continue
            table = _trace_table(s_t, s_src, mu)
            beta_pos, alpha_pos = _path_pos(s_t, s_t), _path_pos(s_src, s_src)
            rows = [beta_pos[b] for b, _ in betas]
            cols = [alpha_pos[a] for a, _ in alphas]
            block = table[np.ix_(rows, cols)]
            for (_, cb), row in zip(betas, block.tolist()):
                total += cb * sum(ca * v for (_, ca), v in zip(alphas, row))
    f = x.field
    if not isinstance(f, PrimeField):
        return total
    if f.p > n_keys:
        return total % f.p
    for obj, ent in ((x, x_int), (y, y_int)):
        if not (obj.identity_cut or _idempotent_over_z(
                mu, obj.ambient, frozenset(ent.items()))):
            raise ValueError(f"hom dimension over GF({f.p}) is not certified: "
                             "an idempotent does not lift to one over Z")
    return total


def _outcome(fn, x, y):
    try:
        return fn(x, y)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _hom_table_pairs(field):
    weights = enumerate_weights(3)
    return [(indecomposable(a, MU2, field), indecomposable(b, MU2, field))
            for a in weights for b in weights]


def _tensor_rule_pairs(field):
    """Each of the 49 `tensor-rule` objects against every M_nu that
    `multiplicities` reads, in both directions."""
    pairs = []
    for a in enumerate_weights(3):
        for b in enumerate_weights(3 - len(a)):
            x = tensor_objects(indecomposable(a, MU2, field),
                               indecomposable(b, MU2, field))
            for nu in enumerate_weights(max(x.ambient)):
                m = indecomposable(nu, MU2, field)
                pairs += [(x, m), (m, x)]
    return pairs


def _fresh(obj):
    """An equal object with none of the per-object caches filled."""
    return AObject(obj.measure, obj.ambient, obj.idem)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_hom_dim_matches_the_loop_on_the_hom_table(field):
    pairs = _hom_table_pairs(field)
    assert len(pairs) == 225
    for x, y in pairs:
        assert _outcome(hom_dim, x, y) == _outcome(loop_hom_dim, x, y)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_hom_dim_matches_the_loop_on_the_tensor_rule_objects(field):
    pairs = _tensor_rule_pairs(field)
    assert len({id(x) for x, _ in pairs[::2]}) == 49
    for x, y in pairs:
        assert _outcome(hom_dim, x, y) == _outcome(loop_hom_dim, x, y)


def test_hom_dim_matches_the_loop_under_the_first_measure():
    weights = enumerate_weights(2)
    objs = [indecomposable(lam, MU1, QQ) for lam in weights]
    objs.append(tensor_objects(objs[1], objs[2]))
    for x in objs:
        for y in objs:
            assert hom_dim(x, y) == loop_hom_dim(x, y)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_python_int_route_matches_the_loop(monkeypatch, field):
    # a bound of 1 sends every block to the Python-int contraction
    pairs = [(_fresh(x), _fresh(y))
             for x, y in _hom_table_pairs(field)[::7]
             + _tensor_rule_pairs(field)[::11]]
    want = [_outcome(loop_hom_dim, x, y) for x, y in pairs]
    monkeypatch.setattr(acat, "_INT64_LIMIT", 1)
    assert [_outcome(hom_dim, x, y) for x, y in pairs] == want


def test_contraction_is_exact_beyond_int64():
    # cuts scaled by 2^40: every block term is 2^80 times the unscaled one,
    # so only the Python-int route is exact
    big = QQ.of_int(2 ** 40)
    x = indecomposable("bw")
    y = tensor_objects(indecomposable("b"), indecomposable("w"))
    xs, ys = (AObject(MU2, o.ambient, o.idem.scale(big)) for o in (x, y))
    assert hom_dim(xs, ys) == loop_hom_dim(xs, ys) == \
        hom_dim(x, y) * 2 ** 80 != 0


def test_diag_blocks_are_the_lifted_diagonal():
    x = tensor_objects(indecomposable("b"), indecomposable("wb"))
    _, diag = _lifted_diag(x)
    assert set(x.diag_blocks) == set(diag)
    for part, (ids, coeffs, norm) in x.diag_blocks.items():
        pos = acat._path_pos(x.ambient[part], x.ambient[part])
        assert ids.dtype == coeffs.dtype == np.int64
        assert ids.tolist() == [pos[p] for p, _ in diag[part]]
        assert coeffs.tolist() == [c for _, c in diag[part]]
        assert norm == sum(abs(c) for _, c in diag[part])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_named_objects_are_built_once(field):
    assert acat.e_lambda("bw", field) is acat.e_lambda("bw", field)
    m = indecomposable("bw", MU2, field)
    assert m is indecomposable("bw", MU2, field)
    assert m.idem is acat.e_lambda("bw", field)
    assert indecomposable("bw", MU1, field) is not m
    assert BModule.full(["", "b"], field) is BModule.full({"b", ""}, field)
    assert named_bmodule("P", "w", field) is named_bmodule("P", "w", field)
    assert named_dmodule("T", "b", field) is named_dmodule("T", "b", field)
    assert DModule.full({"b"}, field) is not BModule.full({"b"}, field)


def test_per_object_flags_are_computed_once(monkeypatch):
    x = _fresh(indecomposable("wb", MU2, PrimeField(2)))
    calls = []
    real = acat._idempotent_over_z
    monkeypatch.setattr(acat, "_idempotent_over_z",
                        lambda *args: calls.append(args) or real(*args))
    for _ in range(3):
        assert hom_dim(x, x) == 1
    assert len(calls) == 1
    assert x.lifts_over_z and not x.identity_cut


def test_a_rejected_full_support_is_not_remembered():
    for _ in range(2):
        with pytest.raises(ValueError):
            BModule.full({"", "w", "ww"})


def test_parser_is_built_once_and_flags_do_not_leak(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["verify", "measures", "--json", "--field", "p2"]) == 0
    assert json.loads(capsys.readouterr().out)["window"] == {"field": "p2"}
    assert cli.main(["verify", "measures", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["window"] == {}


@pytest.mark.parametrize("argv", TABLES, ids=lambda argv: argv[1])
def test_tables_items_run_twice_in_one_process(argv):
    # the second run reads every shared named object the first one built
    want = (STDOUT / f"{argv[1]}.json").read_text()
    for _ in range(2):
        assert _report(argv) == (0, want)
