"""Every module-level import and private name in the package is used.

No linter ships with the project, so these are its unused-name checks: a name
bound by a top-level `import` or `from ... import` must be read somewhere in
its module, or be listed in the module's `__all__` (a re-export); and a
private name (`_x`, not a dunder) that a module defines at its top level must
be read somewhere in the package, as a name or as a module's attribute.
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


def defined_private_names(source: str) -> list[str]:
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(source: str) -> set[str]:
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    read = set().union(*map(read_names, sources.values()))
    return [f"{module}.{name}" for module, source in sorted(sources.items())
            for name in defined_private_names(source) if name not in read]


def test_every_module_level_private_name_is_read():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_checker_finds_unread_private_names():
    sources = {"a": "_LIMIT = 3\n_unused = 1\n__all__ = []\ndef _helper():\n    return _LIMIT\n"
                    "class _Left:\n    pass\n",
               "b": "from . import a\ndef f():\n    return a._helper()\n"}
    assert unread_private_names(sources) == ["a._unused", "a._Left"]
