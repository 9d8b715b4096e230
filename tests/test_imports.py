"""Every name a module of the package imports is used in that module, and
every top-level function or class of the package is used somewhere in it
or exported.

Stdlib only: each module under ``src/azdual`` is parsed with ``ast``, and a
name counts as used when a module loads it somewhere as a plain name.
"""
import ast
from pathlib import Path

import pytest

import azdual

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "azdual"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loaded(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = _loaded(tree)
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_no_dead_definitions():
    """A top-level function or class that no module of the package loads and
    that the package does not export is dead code."""
    used = set(azdual.__all__)
    for path in PACKAGE.glob("*.py"):
        used |= _loaded(_tree(path))
    dead = sorted(
        f"{path.name}:{node.lineno}: {node.name}"
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    )
    assert dead == []
