"""Independent answer checks for the benchmark's jobs.

Nothing here imports rignac. A graph is a vertex count plus its edge list
sorted lexicographically with u < v, which is the order rignac uses for
edge indices. Connectivity is recomputed by union-find and breadth-first
search.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

Edges = Sequence[tuple[int, int]]


def sorted_edges(edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    return sorted((min(u, v), max(u, v)) for u, v in edges)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_nac(n: int, edges: Edges, red: frozenset[int]) -> bool:
    """Surjective, and no cycle has exactly one edge of either colour.

    A cycle with exactly one red edge uv exists iff u and v are joined by a
    blue path, so each colour's edges must join no pair of vertices that
    lies in one component of the other colour.
    """
    if not 0 < len(red) < len(edges):
        return False
    for colour_is_red in (True, False):
        parent = list(range(n))
        for i, (u, v) in enumerate(edges):
            if (i in red) == colour_is_red:
                parent[_find(parent, u)] = _find(parent, v)
        for i, (u, v) in enumerate(edges):
            if (i in red) != colour_is_red and _find(parent, u) == _find(parent, v):
                return False
    return True


def brute_nac_count(n: int, edges: Edges) -> int:
    """NAC classes modulo colour swap, by scanning every mask (small m only)."""
    m = len(edges)
    return sum(
        1
        for mask in range(0, 1 << m, 2)  # edge 0 blue
        if is_nac(n, edges, frozenset(i for i in range(m) if mask >> i & 1))
    )


def components_without(n: int, edges: Edges, removed: Iterable[int]) -> list[set[int]]:
    gone = set(removed)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u not in gone and v not in gone:
            adj[u].append(v)
            adj[v].append(u)
    seen = set(gone)
    comps = []
    for s in range(n):
        if s in seen:
            continue
        seen.add(s)
        comp = {s}
        queue = deque([s])
        while queue:
            for y in adj[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    queue.append(y)
        comps.append(comp)
    return comps


def is_stable_cut(n: int, edges: Edges, cut: Iterable[int]) -> bool:
    """No edge inside the set, and removing it leaves at least two components."""
    s = set(cut)
    if any(u in s and v in s for u, v in edges):
        return False
    return len(components_without(n, edges, s)) >= 2


def separates(n: int, edges: Edges, cut: Iterable[int], u: int, v: int) -> bool:
    """u and v lie outside the cut, in different components of what remains."""
    s = set(cut)
    if u in s or v in s:
        return False
    return not any(u in c and v in c for c in components_without(n, edges, s))
