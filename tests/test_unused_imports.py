"""No module of the engine imports a name it never uses.

The engine's sources are parsed with `ast`.  A name bound by an import must
be read somewhere in its module (at any scope), unless the line that imports
it is marked `# noqa`, which is how a deliberate re-export says so.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "delannoy"


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom math import (pi,\n    tau)  # noqa\n"
                     "from sys import argv\nprint(argv)\n")
    assert unused_imports(probe) == ["probe.py:1 os", "probe.py:2 pi"]
