"""Every name a ``hiercls`` module imports is used there or re-exported in
its ``__all__``, so a refactor that drops the last use of an import also
drops the import. ``__init__.py`` only re-exports; lines marked
``# noqa: F401`` are kept on purpose (the benchmark tracer's patch sites).
Every name in a module's ``__all__`` exists there, so a deleted function
cannot linger in ``__all__`` and keep its imports counted as used. Every
top-level private name (``_x``) is used somewhere in ``src/``, so a helper
whose last caller went does not linger either.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hiercls"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_catches_a_stale_import():
    source = ("from dataclasses import dataclass, replace\n"
              "import numpy as np  # noqa: F401\n"
              "__all__ = ['dataclass']\n")
    assert unused_imports(source) == ["line 1: replace"]


def undefined_exports(source: str) -> list[str]:
    """Names in ``__all__`` that no top-level statement of ``source``
    defines or imports."""
    defined, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in defined]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_all_entry_exists(path):
    assert undefined_exports(path.read_text(encoding="utf-8")) == []


def test_catches_a_stale_export():
    source = ("from dataclasses import dataclass\n"
              "LIMIT: int = 3\n"
              "def kept(): pass\n"
              "__all__ = ['dataclass', 'LIMIT', 'kept', 'deleted']\n")
    assert undefined_exports(source) == ["deleted"]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Top-level private names (``_x``, not dunders) of ``sources`` (module
    name -> text) that no module of ``sources`` uses beyond defining them."""
    defined, used = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module} line {node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{where}: {name}" for name, where in sorted(defined.items())
            if name not in used]


def test_every_private_name_is_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert orphaned_private_names(sources) == []


def test_catches_an_orphaned_private_helper():
    sources = {
        "cli.py": ("from .fileio import _shared\n"
                   "_ROWS = 3\n"
                   "def _csv_body(text):\n    return text\n"
                   "def main():\n    return _shared(_ROWS)\n"),
        "fileio.py": "def _shared(n):\n    return n\n",
    }
    assert orphaned_private_names(sources) == ["cli.py line 3: _csv_body"]
