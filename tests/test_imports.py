"""Every name a module of the package imports is used in that module.

Stdlib only: each module under ``src/azdual`` (the package ``__init__``,
which re-exports, aside) is parsed with ``ast``, and an imported name
counts as used when the module loads it somewhere as a plain name.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "azdual"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
