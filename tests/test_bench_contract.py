"""The benchmark's tracer binds to library names; check they still exist.

`bench/tracing.py` wraps the entry points listed in its `SPANNED` table and
reads `stats["calls"]` and `stats["pair_probes"]` from
`algorithm1_stable_cut`.  The table is read from the source without
importing the benchmark, so this test leaves `bench/` untouched.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

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
