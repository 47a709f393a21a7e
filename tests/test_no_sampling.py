"""No module of the engine imports `random`.

Every answer of the engine is decided, never sampled: a search that could
miss a witness would turn "not found" into a wrong "no".  The sources are
parsed with `ast`, so a mention in a comment or a string does not count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "delannoy"


def random_imports(path):
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "random" for name in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_engine_module_imports_random(path):
    assert random_imports(path) == []


def test_the_check_sees_a_random_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nimport random\nfrom random import choice\n"
                     "from .random import x\n# import random\n")
    assert random_imports(probe) == ["probe.py:2", "probe.py:3"]
