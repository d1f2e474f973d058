"""Every imported name in the package and its tests is used, and every export exists.

No linter ships with the project, so this scans the syntax trees: a name
an `import` binds must be read somewhere else in the same module.
Re-exports from a package `__init__.py` and `__future__` imports are
exempt.  Each package module that declares `__all__` is imported, and
every name listed there must resolve.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py")
                 if p.name != "__init__.py")
EXPORTING = sorted(".".join(p.relative_to(ROOT / "src").with_suffix("").parts)
                   .removesuffix(".__init__")
                   for p in (ROOT / "src").rglob("*.py") if "__all__" in p.read_text())


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_catches_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == [(2, "os"), (3, "tau")]


def unresolved_exports(module) -> list:
    return [name for name in module.__all__ if not hasattr(module, name)]


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_resolve(name):
    assert unresolved_exports(importlib.import_module(name)) == []


def test_export_check_catches_a_missing_name():
    module = types.ModuleType("stale")
    module.__all__ = ["kept", "deleted"]
    module.kept = 1
    assert unresolved_exports(module) == ["deleted"]
