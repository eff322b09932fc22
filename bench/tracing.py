"""Spans around calls into rignac's public entry points, for the traced run.

`Tracer.installed()` rebinds each entry point listed in `SPANNED`, in every
loaded `rignac` module that holds it, to a wrapper that records one span
per call; leaving the context restores the originals. Per-candidate
predicates such as `is_stable_set` get no span, since their own overhead
would distort the numbers. A span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

# layer (module) -> traced entry points
SPANNED = {
    "graph": ("parse_graph", "canonical_form"),
    "rigidity": (
        "rank",
        "rigidity_report",
        "rigidly_related_pairs",
        "recognize_gsc",
        "recognize_0extension_graph",
    ),
    "colouring": ("enumerate_nac_detailed", "construct_nac_minimally_rigid"),
    "stable_cut": ("algorithm1_stable_cut", "exhaustive_stable_cut"),
    "catalog": ("minimally_rigid_graph6", "enumerate_minimally_rigid"),
}


class Span:
    __slots__ = ("name", "duration", "child", "info")

    def __init__(self, name: str) -> None:
        self.name = name
        self.duration = 0.0
        self.child = 0.0
        self.info: Any = None

    @property
    def self_time(self) -> float:
        return self.duration - self.child


def _graph_key(g) -> tuple:
    return (g.n, g.edges)


def _nac_info(args, kwargs, result) -> dict:
    count, nodes, _ms = result
    return {"graph": _graph_key(args[0]), "workers": kwargs.get("workers", 1), "count": count, "nodes": nodes}


def _alg1_info(args, kwargs, result) -> dict:
    stats = kwargs["stats"]
    return {"calls": stats["calls"], "pair_probes_est": stats["pair_probes"]}


def _with_stats(args, kwargs):
    """algorithm1_stable_cut reports its recursion through a caller-owned dict."""
    if len(args) < 4 and kwargs.get("stats") is None:
        kwargs = {**kwargs, "stats": {}}
    return args, kwargs


# entry point -> (argument hook before the call, info hook after it)
_HOOKS: dict[str, tuple[Optional[Callable], Optional[Callable]]] = {
    "enumerate_nac_detailed": (None, _nac_info),
    "algorithm1_stable_cut": (_with_stats, _alg1_info),
    "rank": (None, lambda args, kwargs, result: _graph_key(args[0])),
    "rigidity_report": (None, lambda args, kwargs, result: _graph_key(args[0])),
    "enumerate_minimally_rigid": (None, lambda args, kwargs, result: len(result)),
}


class Tracer:
    """Collects spans in memory; `take()` hands over and clears them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.root_time = 0.0  # time covered by spans with no parent
        self._stack: list[Span] = []

    def take(self) -> tuple[list[Span], float]:
        spans, root = self.spans, self.root_time
        self.spans, self.root_time = [], 0.0
        return spans, root

    def _wrap(self, name: str, fn: Callable) -> Callable:
        before, after = _HOOKS.get(name, (None, None))
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = Span(name)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1].child += span.duration
                else:
                    self.root_time += span.duration
                self.spans.append(span)
            if after is not None:
                span.info = after(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        wrappers: dict[int, Callable] = {}  # id of an entry point -> its wrapper
        for layer, names in SPANNED.items():
            module = sys.modules[f"rignac.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = self._wrap(name, fn)
        patched: list[tuple[object, str, Callable]] = []
        for modname, module in list(sys.modules.items()):
            if modname != "rignac" and not modname.startswith("rignac."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)
