"""Catalog of minimally rigid graphs for small n: generation, histograms,
and the unique-colouring conjecture harness.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Optional

from .colouring import count_nac
from .graph import Graph, PreconditionError, canonical_form, parse_graph6
from .rigidity import (
    GscDecomposition,
    count_prism_subgraphs,
    is_2tree,
    rank,
    recognize_0extension_graph,
    recognize_gsc,
)

CATALOG_VERSION = 1
DEFAULT_MAX_N = 8
OPT_IN_MAX_N = 9


@dataclass(frozen=True)
class CatalogEntry:
    """One isomorphism class, keyed by the graph6 string of its canonical labelling."""

    graph6: str
    nnac: int
    is_2tree: bool
    is_gsc: bool
    prism_count: Optional[int]
    is_0ext_graph: bool
    min_open_steps: Optional[int]

    @property
    def graph(self) -> Graph:
        return parse_graph6(self.graph6)


def _classify(g6: str) -> CatalogEntry:
    g = parse_graph6(g6)
    nnac = count_nac(g)
    two_tree = is_2tree(g)
    dec = recognize_gsc(g)
    member = isinstance(dec, GscDecomposition)
    zext, opens = recognize_0extension_graph(g)
    return CatalogEntry(
        graph6=g6,
        nnac=nnac,
        is_2tree=two_tree,
        is_gsc=member,
        prism_count=dec.prism_count if member else None,
        is_0ext_graph=zext,
        min_open_steps=opens,
    )


def _henneberg_children(g: Graph) -> set[str]:
    """Canonical graph6 keys of all one-vertex extensions of a tight graph."""
    out: set[str] = set()
    n = g.n
    for u, v in combinations(range(n), 2):
        child = Graph.from_edges(n + 1, list(g.edges) + [(u, n), (v, n)])
        out.add(canonical_form(child).decode("ascii"))
    for i, (x, y) in enumerate(g.edges):
        kept = g.edges[:i] + g.edges[i + 1 :]
        for z in range(n):
            if z == x or z == y:
                continue
            child = Graph.from_edges(n + 1, list(kept) + [(x, n), (y, n), (z, n)])
            out.add(canonical_form(child).decode("ascii"))
    return out


def _children_job(g6: str) -> set[str]:
    return _henneberg_children(parse_graph6(g6))


def minimally_rigid_graph6(n: int, allow_large: bool = False, workers: int = 1) -> list[str]:
    """Canonical graph6 keys of all minimally rigid isomorphism classes.

    Grown from the triangle by vertex additions of degree 2 and edge splits,
    with canonical-form dedup; every class is rank-checked.  Generation can
    fan out over parent graphs; per-worker key sets are merged, and the
    sorted output is identical for every worker count.
    """
    limit = OPT_IN_MAX_N if allow_large else DEFAULT_MAX_N
    if not 3 <= n <= limit:
        raise PreconditionError(
            f"catalog supports 3 <= n <= {limit}"
            + ("" if allow_large else f" ({OPT_IN_MAX_N} behind allow_large)")
        )
    level = {canonical_form(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])).decode("ascii")}
    size = 3
    while size < n:
        nxt: set[str] = set()
        if workers > 1 and len(level) >= 4 * workers:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                for part in pool.map(_children_job, sorted(level), chunksize=8):
                    nxt |= part
        else:
            for g6 in sorted(level):
                nxt |= _henneberg_children(parse_graph6(g6))
        level = nxt
        size += 1
    for g6 in level:
        g = parse_graph6(g6)
        if g.m != 2 * g.n - 3 or rank(g) != 2 * g.n - 3:
            raise RuntimeError(f"generated class {g6} is not minimally rigid")
    return sorted(level)


def enumerate_minimally_rigid(
    n: int, allow_large: bool = False, workers: int = 1
) -> list[CatalogEntry]:
    keys = minimally_rigid_graph6(n, allow_large, workers)
    if workers > 1 and len(keys) >= 4 * workers:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_classify, keys, chunksize=8))
    return [_classify(g6) for g6 in keys]


def nnac_histogram(entries: list[CatalogEntry]) -> tuple[dict[int, int], int]:
    """Exact histogram nnac -> class count, and the maximum attained value."""
    hist: dict[int, int] = {}
    for e in entries:
        hist[e.nnac] = hist.get(e.nnac, 0) + 1
    return hist, max(hist) if hist else 0


def histogram_report(
    n: int, allow_large: bool = False, entries: Optional[list[CatalogEntry]] = None
) -> dict:
    """Histogram plus a flagged comparison against published 6-vertex counts.

    The published reference counts for 6 vertices sum to 14 classes while regeneration
    is the arbiter; any per-bucket deviation is reported, never silently
    dropped.
    """
    if entries is None:
        entries = enumerate_minimally_rigid(n, allow_large)
    hist, mx = nnac_histogram(entries)
    report = {
        "n": n,
        "classes": len(entries),
        "histogram": {str(k): v for k, v in sorted(hist.items())},
        "max_nnac": mx,
    }
    if n == 6:
        published = {0: 5, 1: 5, 2: 3, 15: 1}
        deviations = []
        for key in sorted(set(published) | set(hist)):
            got = hist.get(key, 0)
            want = published.get(key, 0)
            if got != want:
                deviations.append({"nnac": key, "published": want, "regenerated": got})
        report["published_reference"] = {str(k): v for k, v in published.items()}
        report["reference_deviations"] = deviations
    return report


# ---------------------------------------------------------------------------
# the unique-colouring conjecture harness


def check_conjecture_61(
    entries: list[CatalogEntry], prism_subgraph_reading: bool = False
) -> list[dict]:
    """Violations of: nnac = 1  <=>  (gluing-family member with one prism) or
    (0-extension graph with exactly one open step).

    The first clause counts prisms used by the recursive construction by
    default; the alternative reading counts 3-prism subgraphs instead.
    """
    violations = []
    for e in entries:
        if prism_subgraph_reading:
            clause1 = e.is_gsc and count_prism_subgraphs(e.graph) == 1
        else:
            clause1 = e.is_gsc and e.prism_count == 1
        clause2 = e.is_0ext_graph and e.min_open_steps == 1
        expected = clause1 or clause2
        if (e.nnac == 1) != expected:
            violations.append(
                {
                    "graph6": e.graph6,
                    "nnac": e.nnac,
                    "gsc_one_prism": clause1,
                    "one_open_step": clause2,
                }
            )
    return violations


# ---------------------------------------------------------------------------
# persistence


def save_catalog(entries: list[CatalogEntry], n: int, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"version": CATALOG_VERSION, "n": n, "count": len(entries)}) + "\n")
        for e in entries:
            fh.write(json.dumps(asdict(e), sort_keys=True) + "\n")


def load_catalog(path: str) -> tuple[int, list[CatalogEntry]]:
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("version") != CATALOG_VERSION:
            raise ValueError(f"unsupported catalog version {header.get('version')}")
        entries = [CatalogEntry(**json.loads(line)) for line in fh if line.strip()]
    if len(entries) != header["count"]:
        raise ValueError("catalog truncated: entry count mismatch")
    return header["n"], entries
