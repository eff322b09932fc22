"""Source hygiene of `src/rignac`, checked with `ast` in place of a linter:
no module imports a name it never uses, and every private top-level
function or class is named somewhere in the package."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rignac"


def modules() -> dict[str, ast.Module]:
    """File name -> parsed module, for every module of the package."""
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def names_used(tree: ast.AST) -> set[str]:
    """Every identifier the module reads: bare names and attribute names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_no_unused_imports():
    unused = []
    for name, tree in modules().items():
        if name == "__init__.py":  # its imports are the package's re-exports
            continue
        used = names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def test_every_private_definition_is_named():
    parsed = modules()
    named = set()
    for tree in parsed.values():
        named |= names_used(tree)
        named |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    unnamed = [
        f"{name}: {node.name}"
        for name, tree in parsed.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") and node.name not in named
    ]
    assert not unnamed, unnamed
