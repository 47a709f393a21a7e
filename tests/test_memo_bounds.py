"""No memo in the engine grows without bound unless it is listed here.

A long-running process (a whole `delannoy verify all`, a notebook) keeps
every `functools` memo for its lifetime, so each cache must name its bound.
The engine's sources are parsed with `ast`; `lru_cache(maxsize=None)`, an
`lru_cache` without an explicit maxsize and `cache` fail unless the function
is on the allowlist below, each entry with the reason its table stays small.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "delannoy"

ALLOWED = {
    ("paths", "delannoy"):
        "one integer per (m, n) pair of the recurrence",
    ("paths", "enumerate_paths"):
        "one path tuple per part-size pair",
    ("schwartz", "_middle_cells"):
        "one cell list per (fixed points, middle size, measure)",
    ("schwartz", "_path_pos"):
        "one path index per part-size pair",
    ("schwartz", "_pair_arrays"):
        "one structure-constant table per size triple and measure",
    ("schwartz", "_pair_index"):
        "one row index per size triple and measure, over `_pair_arrays`",
}


def _memo_name(node):
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", None)


def _is_unbounded(node):
    """Whether a decorator or call makes a memo with no explicit bound."""
    name = _memo_name(node)
    if name == "cache":
        return True
    if name != "lru_cache":
        return False
    if not isinstance(node, ast.Call):
        return True  # bare @lru_cache: a default no one chose
    size = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + \
        node.args[:1]
    return not size or (isinstance(size[0], ast.Constant)
                        and size[0].value is None)


def unbounded_memos(source):
    """Names of the functions (or `line N` for other calls) in `source`
    memoized without an explicit bound."""
    tree = ast.parse(source)
    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                decorators.add(dec)
                if _is_unbounded(dec):
                    found.append(node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node not in decorators and \
                _memo_name(node) == "lru_cache" and _is_unbounded(node):
            found.append(f"line {node.lineno}")
    return found


def test_the_checker_sees_every_unbounded_form():
    source = """
import functools
from functools import cache, lru_cache

@lru_cache(maxsize=None)
def a(x): pass

@functools.lru_cache(None)
def b(x): pass

@lru_cache
def c(x): pass

@cache
def d(x): pass

@functools.lru_cache()
def e(x): pass

@lru_cache(maxsize=256)
def bounded(x): pass

@functools.lru_cache(64)
def bounded_too(x): pass

f = lru_cache(maxsize=None)(len)
g = lru_cache(maxsize=8)(len)
"""
    assert unbounded_memos(source) == ["a", "b", "c", "d", "e", "line 26"]


def test_no_new_unbounded_memo():
    found = {(path.stem, name)
             for path in sorted(SRC.glob("*.py"))
             for name in unbounded_memos(path.read_text())}
    assert found - set(ALLOWED) == set(), "give these memos a maxsize"
    # an entry whose memo is gone or bounded leaves the list
    assert set(ALLOWED) - found == set()


@pytest.mark.parametrize("entry", sorted(ALLOWED))
def test_every_allowed_memo_has_a_reason(entry):
    assert ALLOWED[entry].strip()
