"""Every name a module of the package imports is used in that module, every
top-level function or class of the package is used somewhere in it or
exported, and every public method of its classes is read somewhere.  The
dual, the derivatives, the GL layer, the verification harness and the
command line call no public constructor: they build their states in the
per-line int form, and read no ``Segment`` view but what the command line
prints.  Every int form is keyed by line alone.

Stdlib only: each module under ``src/azdual`` is parsed with ``ast``, and a
name counts as used when a module loads it somewhere as a plain name.  A
method counts as read when some file under ``src/`` or ``perfbench/`` reads
its name as an attribute; a read from ``tests/`` alone does not keep it.
"""
import ast
from pathlib import Path

import pytest

import azdual

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "azdual"
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


def _attributes_read():
    return {node.attr
            for top in ("src", "perfbench")
            for path in (ROOT / top).rglob("*.py")
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_no_dead_definitions():
    """A top-level function or class that no module of the package loads and
    that the package does not export is dead code, and so is a public method
    whose name no file of the package or the benchmark reads as an
    attribute."""
    used = set(azdual.__all__)
    for path in PACKAGE.glob("*.py"):
        used |= _loaded(_tree(path))
    read = _attributes_read()
    dead = sorted(
        f"{path.name}:{node.lineno}: {node.name}"
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    )
    dead += sorted(
        f"{path.name}:{meth.lineno}: {node.name}.{meth.name}"
        for path in MODULES
        for node in _tree(path).body if isinstance(node, ast.ClassDef)
        for meth in node.body
        if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("_")
        and meth.name not in read
    )
    assert dead == []


CONSTRUCTORS = ("Segment", "Multisegment", "SignedSymMultisegment", "LanglandsData",
                "PhiComponent")


@pytest.mark.parametrize("name", ["ad_core.py", "cli.py", "derivatives.py", "mw_gl.py",
                                  "verify.py"])
def test_core_reads_no_segment_view(name):
    """The dual's step loop, the derivatives, the GL layer, the verification
    harness and the command line run on the int form.  None of them reads a
    ``.m`` attribute, the ``Segment`` view of a signed multisegment, or
    ``minus``, the signs of that view; ``ad_core``'s engine has a ``minus``
    of its own.  None but the command line reads ``.entries``, that of a
    plain one, each built and sorted on first access; the command line
    prints ``mw``'s result and reads ``capacity``'s target through it.  None
    of them calls a public constructor: each builds its states through the
    private int-form ones."""
    attrs = {"ad_core.py": ("m", "entries"), "cli.py": ("m", "minus")}.get(
        name, ("m", "entries", "minus"))
    tree = _tree(PACKAGE / name)
    reads = [f"{name}:{node.lineno}: {node.attr}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in attrs]
    reads += [f"{name}:{node.lineno}: {node.func.id}("
              for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in CONSTRUCTORS]
    assert reads == []


def _tuple_keyed_reads(path):
    """Where a module indexes an ``_ints`` with a tuple display, by
    subscript or ``.get``, or passes ``_plain`` a dict display or
    comprehension with a tuple key."""
    found = []
    for node in ast.walk(_tree(path)):
        ints = None
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            ints = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args
              and isinstance(node.args[0], ast.Tuple)):
            ints = node.func.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_plain" and node.args):
            form = node.args[0]
            keys = form.keys if isinstance(form, ast.Dict) else (
                [form.key] if isinstance(form, ast.DictComp) else [])
            if any(isinstance(k, ast.Tuple) for k in keys):
                found.append(f"{path.name}:{node.lineno}: _plain")
        if isinstance(ints, ast.Attribute) and ints.attr == "_ints":
            found.append(f"{path.name}:{node.lineno}: _ints")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_int_forms_are_keyed_by_line(path):
    """Plain and signed multisegments key their int form by ``Line``
    alone, a mirror line's side living in its ``(2b, 2e, side)`` keys: no
    module reads or builds a ``(line, side)``-keyed form."""
    assert _tuple_keyed_reads(path) == []
