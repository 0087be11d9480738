"""Import hygiene of the package, checked with the standard library's ast.

No module of src/hhverify imports a name it never reads, so a refactor
that drops the last use of an import also drops the import.  A name that
is imported only to be bound in a module (perfbench/tracer.py patches some
by name) carries ``# noqa: F401`` on its import line.  A name listed in a
module's ``__all__`` counts as read, and every such name resolves.
"""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hhverify"
MODULES = sorted(SRC.rglob("*.py"))


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _all_names(tree: ast.Module) -> list[str] | None:
    """The module's ``__all__`` list, or None if it has none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return None


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the source never reads, apart
    from ``__future__`` imports and imports marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in lines[i - 1]
               for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read.update(_all_names(tree) or ())
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_the_check_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import numpy as np\n"
              "from .records import make_ratio, records_text\n"
              "from .sweep import holds  # noqa: F401\n"
              "from .bounds import (rhs_eq8,\n"
              "                     rhs_eq9)  # noqa: F401\n"
              "__all__ = ['records_text']\n"
              "def f(x):\n"
              "    return np.abs(x)\n")
    assert unused_imports(source) == [(2, "os"), (4, "make_ratio")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: _module_name(p))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: _module_name(p))
def test_every_all_name_resolves(path):
    names = _all_names(ast.parse(path.read_text(encoding="utf-8")))
    if names is None:
        return
    module = importlib.import_module(_module_name(path))
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []
