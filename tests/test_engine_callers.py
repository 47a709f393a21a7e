"""Every engine definition is read by other engine code, a demo or the CLI.

The sources of `src/delannoy` and `demos` are parsed with `ast`.  A
definition is a top-level function or class of an engine module, or a
method of a top-level class.  It counts as used when its name is read
somewhere in those sources outside its own body: as an `ast.Name`, as the
attribute of an `ast.Attribute`, or as the name an import brings in.  The
match is by name only, so a method is used when any attribute of that name
is read.  Dunder methods are exempt, since Python calls them.  Module-level
assignments (aliases, constants, tracer bindings) are out of scope.

A definition that only tests read belongs in `tests/` as an oracle or a
helper.  `ALLOWED` maps a "module.name" that may stay unread to the reason
why; an entry that names a missing definition, or one that is now read,
fails too.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "delannoy"
DEMOS = ROOT / "demos"

ALLOWED = {}


def _definitions(tree):
    """Yield (name, node) for each top-level def or class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item.name, item


def _reads(node):
    """How often each name is read under node."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.split(".")[-1]] += 1
    return names


def orphans(engine_paths, other_paths=()):
    """Definitions in engine_paths whose name nothing outside them reads.

    Returns sorted "module.name" strings.  other_paths (the demos) are
    searched for reads but their definitions are not checked.
    """
    trees = {p: ast.parse(p.read_text()) for p in [*engine_paths, *other_paths]}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return sorted(f"{path.stem}.{name}" for path in engine_paths
                  for name, node in _definitions(trees[path])
                  if reads[name] == _reads(node)[name])


def stale(allowed, engine_paths, other_paths=()):
    """Allowlist entries that name a missing definition or a read one."""
    unread = set(orphans(engine_paths, other_paths))
    return sorted(name for name in allowed if name not in unread)


def _engine():
    return sorted(SRC.glob("*.py")), sorted(DEMOS.glob("*.py"))


def test_every_engine_definition_has_an_engine_reader():
    assert [o for o in orphans(*_engine()) if o not in ALLOWED] == []


def test_every_allowlist_entry_is_an_unread_definition_with_a_reason():
    assert stale(ALLOWED, *_engine()) == []
    assert all(isinstance(why, str) and why for why in ALLOWED.values())


def test_the_check_sees_an_orphan(tmp_path):
    engine = tmp_path / "engine.py"
    engine.write_text(
        "import helper as h\n"
        "def used():\n    return h.imported()\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    def read(self):\n        return self.fill()\n"
        "    def fill(self):\n        return 1\n"
        "    def only_in_tests(self):\n        return 2\n")
    helper = tmp_path / "helper.py"
    helper.write_text("def imported():\n    return 0\n"
                      "def orphan():\n    return imported()\n")
    demo = tmp_path / "demo.py"
    demo.write_text("from engine import recursive, Box\n"
                    "print(recursive(2), Box().read())\n")
    assert orphans([engine, helper], [demo]) == [
        "engine.only_in_tests", "helper.orphan"]
    # A definition read by nothing but itself is still an orphan.
    assert orphans([engine, helper]) == [
        "engine.Box", "engine.only_in_tests", "engine.read",
        "engine.recursive", "helper.orphan"]
    allowed = {"helper.orphan": "kept", "engine.used": "read by recursive",
               "engine.gone": "no such definition"}
    assert stale(allowed, [engine, helper], [demo]) == [
        "engine.gone", "engine.used"]
