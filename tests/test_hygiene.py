"""Import hygiene of the library modules, checked on their syntax trees.

The project has no linter dependency, so this makes the two checks that
matter here: every imported name is used, and every ``__all__`` entry is
defined.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "travwave"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import (``from __future__`` excluded) -> line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _unused(tree: ast.Module) -> dict[str, int]:
    """Imported names never loaded, stored or re-exported -> line."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_all(tree))
    return {name: line for name, line in _imported(tree).items()
            if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = _unused(_tree(path))
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_all_entry_is_defined(path):
    tree = _tree(path)
    defined = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    missing = [name for name in _all(tree) if name not in defined]
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


def test_an_unused_import_is_reported():
    tree = ast.parse("import os.path\nfrom .errors import SingularityError\n"
                     "x = os.sep\n")
    assert _unused(tree) == {"SingularityError": 2}
