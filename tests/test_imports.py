"""Every module-level import in the package is used.

No linter ships with the project, so this is its one unused-import check: a
name bound by a top-level `import` or `from ... import` must be read somewhere
in its module, or be listed in the module's `__all__` (a re-export).
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "popbandit"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            # `import a.b` binds a; `import a.b as c` binds c.
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unused_and_accepts_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
              "from .x import exported\n__all__ = ['exported']\n"
              "def f():\n    return np.zeros(1), pi\n")
    assert unused_imports(source) == ["os", "tau"]
