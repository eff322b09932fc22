"""The benchmark's tracer binds to library names; check they still exist.

`bench/tracing.py` wraps the entry points listed in its `SPANNED` table,
reads `stats["calls"]` and `stats["pair_probes"]` from
`algorithm1_stable_cut`, and reads a (count, nodes, ms) triple and the
`workers` keyword from `enumerate_nac_detailed`, which `nac list` must
reach.  The table is read from the source without importing the
benchmark, so this test leaves `bench/` untouched.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import textwrap
from pathlib import Path

from rignac.cli import cmd_nac
from rignac.colouring import enumerate_nac_detailed
from rignac.constructions import make_cycle
from rignac.stable_cut import algorithm1_stable_cut

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _spanned() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANNED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("SPANNED not found in bench/tracing.py")


def test_spanned_names_resolve():
    spanned = _spanned()
    assert spanned
    for layer, names in spanned.items():
        module = importlib.import_module(f"rignac.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"rignac.{layer}.{name}"


def test_algorithm1_fills_traced_stats():
    stats: dict = {}
    algorithm1_stable_cut(make_cycle(6), 0, 3, stats=stats)
    assert stats["calls"] >= 1
    assert stats["pair_probes"] >= 1


def test_nac_list_reaches_the_spanned_enumeration():
    tree = ast.parse(textwrap.dedent(inspect.getsource(cmd_nac)))
    branch = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and any(isinstance(c, ast.Constant) and c.value == "list" for c in ast.walk(node.test))
    )
    called = {
        node.func.attr
        for stmt in branch.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert "enumerate_nac_detailed" in called
    found = []
    count, nodes, ms = enumerate_nac_detailed(make_cycle(6), on_found=found.append, workers=2)
    assert count == len(found) == 2**5 - 7
    assert isinstance(nodes, int) and nodes > 0 and ms >= 0
