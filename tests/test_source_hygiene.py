"""Source hygiene of `src/rignac`, checked with `ast` in place of a linter:
no module imports a name it never uses, every private top-level function
or class is named somewhere in the package, every module constant is
read somewhere in `src/` or `tests/`, and every function reads each of
its parameters."""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rignac"
TESTS = Path(__file__).resolve().parent


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


def constants(tree: ast.Module) -> list[str]:
    """The module-level names a module assigns that are UPPER_CASE or start
    with an underscore, dunders excepted."""
    targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if re.fullmatch(r"[A-Z][A-Z0-9_]*|_(?!_).*", name)]


def reads(tree: ast.Module, module: str) -> set[tuple[str, str]]:
    """(module, name) for each name a file reads.  A bare name belongs to
    the module it is imported from, or else to the file's own `module`;
    `x.name` belongs to the module that x names."""
    origin = {  # bound name -> (the module it comes from, its own name)
        alias.asname or alias.name: ((node.module or "").rsplit(".", 1)[-1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(origin.get(node.id, (module, node.id)))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value.id if isinstance(node.value, ast.Name) else getattr(node.value, "attr", "")
            read.add((origin[owner][1] if owner in origin else owner, node.attr))
    return read


def test_every_module_constant_is_read():
    # a constant left behind by a change, such as a second state budget
    # or an old one re-exported under its old module, is read nowhere
    files = {path: ast.parse(path.read_text(), str(path)) for path in [*SRC.glob("*.py"), *TESTS.glob("*.py")]}
    read = set().union(*(reads(tree, path.stem) for path, tree in files.items()))
    unread = [
        f"{path.name}: {name}"
        for path, tree in sorted(files.items())
        if path.parent == SRC
        for name in constants(tree)
        if (path.stem, name) not in read
    ]
    assert not unread, unread



def may_go_unread(module: str, function: str, parameter: str) -> bool:
    if module == "cli.py" and function.startswith("cmd_"):
        return parameter == "args"  # argparse hands every handler its namespace
    # tests/test_bench_contract.py passes it; ROADMAP item 7 deletes it with
    # the next change to the benchmark
    return (module, function, parameter) == ("colouring.py", "enumerate_nac_detailed", "workers")


def test_every_parameter_is_read():
    # a knob that a function accepts and ignores changes nothing it answers
    unread = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p is not None]
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            fn = getattr(node, "name", "<lambda>")
            unread += [f"{name}: {fn}({p})" for p in params if p not in read and not may_go_unread(name, fn, p)]
    assert not unread, unread
