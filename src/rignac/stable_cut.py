"""Stable cuts: the contraction algorithm for flexible graphs, the
avoid-a-vertex variant for 2-connected inputs, and exhaustive search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .graph import (
    Graph,
    PreconditionError,
    blocks,
    connected_components_without,
    is_connected,
    is_cut,
    is_stable_set,
)
from .rigidity import RigidityReport, gsc_decomposition, pebble_game, rigid_components, rigidity_report

EXHAUSTIVE_MAX_VERTICES = 24

Components = tuple[frozenset[int], ...]


@dataclass(frozen=True)
class StableCutResult:
    cut: frozenset[int]
    separated_pair: Optional[tuple[int, int]] = None
    avoided_vertex: Optional[int] = None


def _validate_result(g: Graph, result: StableCutResult) -> StableCutResult:
    """Re-validate independently of the search path; never trust the recursion."""
    if not is_stable_set(g, result.cut):
        raise RuntimeError(f"produced cut {sorted(result.cut)} is not stable")
    if not is_cut(g, result.cut):
        raise RuntimeError(f"produced set {sorted(result.cut)} does not disconnect the graph")
    if result.separated_pair is not None:
        u, v = result.separated_pair
        comps = connected_components_without(g, result.cut)
        cu = next(c for c in comps if u in c)
        if v in cu:
            raise RuntimeError(f"cut fails to separate {u} and {v}")
    if result.avoided_vertex is not None and result.avoided_vertex in result.cut:
        raise RuntimeError("cut contains the vertex it must avoid")
    return result


def _solve(g: Graph, stats: dict) -> tuple[bool, Components]:
    """One pebble game on g: whether g is flexible, and its rigid components."""
    state = pebble_game(g)
    comps = rigid_components(g, state)
    stats["pair_probes"] += state.searches
    return len(state.accepted) < 2 * g.n - 3, comps


def _membership(n: int, comps: Components) -> list[set[int]]:
    """Vertex -> ids of the rigid components containing it."""
    member: list[set[int]] = [set() for _ in range(n)]
    for i, comp in enumerate(comps):
        for w in comp:
            member[w].add(i)
    return member


def _contract(n: int, comps: Components, keep: int, removed: int) -> Graph:
    """The component-completed graph with vertex `removed` merged into `keep`.

    Relabelled as `contract_edge` does: ids above `removed` shift down by
    one.  Each image of a component gets a fan (a minimally rigid graph)
    instead of a clique; both span the same rigidity closure, hence give
    the same rigid components, with O(|C|) edges instead of O(|C|^2).
    """
    edges: set[tuple[int, int]] = set()
    for comp in comps:
        image = sorted({keep if w == removed else w - 1 if w > removed else w for w in comp})
        if len(image) < 2:
            continue
        a, b = image[0], image[1]
        edges.add((a, b))
        for w in image[2:]:
            edges.add((a, w))
            edges.add((b, w))
    return Graph.from_edges(n - 1, edges)


def _alg1(n: int, comps: Components, u: int, v: int, stats: dict) -> frozenset[int]:
    """Contraction loop on current labels; returns the cut in the input's labels.

    Each step works on the component-completed graph (every rigid component
    made a clique), represented by its components: if the completed
    neighbourhood of u is stable it is the cut; otherwise contract one of
    the two triangle edges at u, picking the contraction that keeps the
    merged vertex and v in different rigid components.  The components of
    the chosen contraction are passed on, so each graph is solved once.
    """
    removals: list[int] = []
    while True:
        stats["calls"] += 1
        member = _membership(n, comps)
        nbrs = sorted(set().union(*(comps[c] for c in member[u])) - {u})
        tri = next(
            ((x1, x2) for i, x1 in enumerate(nbrs) for x2 in nbrs[i + 1 :] if member[x1] & member[x2]),
            None,
        )
        if tri is None:
            cut = frozenset(nbrs)
            break
        for xi in tri:
            keep, removed = min(u, xi), max(u, xi)
            contracted = _contract(n, comps, keep, removed)
            _, comps2 = _solve(contracted, stats)
            v2 = v - 1 if v > removed else v
            if not any(keep in comp and v2 in comp for comp in comps2):
                break
        else:
            raise RuntimeError("neither contraction separates; flexibility invariant broken")
        removals.append(removed)
        n, comps, u, v = n - 1, comps2, keep, v2
    # lift back: at each contraction, ids >= removed shift up by one
    for removed in reversed(removals):
        cut = frozenset(w + 1 if w >= removed else w for w in cut)
    return cut


def _check_flexible_input(g: Graph, stats: dict) -> Components:
    if not is_connected(g):
        raise PreconditionError("graph is not connected")
    flexible, comps = _solve(g, stats)
    if not flexible:
        raise PreconditionError("graph is not flexible")
    return comps


def algorithm1_stable_cut(
    g: Graph, u: int, v: int, stats: Optional[dict] = None
) -> StableCutResult:
    """Stable cut separating u and v in a connected flexible graph.

    Recursion: if the (component-completed) neighbourhood of u is stable it
    is the cut; otherwise contract one of two triangle edges at u, picking
    the contraction that keeps the merged vertex and v in different rigid
    components.  `stats`, if given, receives "calls" (contraction levels)
    and "pair_probes" (pebble searches, over the games on g and on every
    contracted graph tried).
    """
    for w in (u, v):
        if not 0 <= w < g.n:
            raise ValueError(f"vertex {w} out of range")
    if u == v:
        raise PreconditionError("endpoints must be distinct")
    if stats is None:
        stats = {}
    stats.setdefault("calls", 0)
    stats.setdefault("pair_probes", 0)
    comps = _check_flexible_input(g, stats)
    if any(u in comp and v in comp for comp in comps):
        raise PreconditionError(f"{u} and {v} lie in a common rigid component")
    cut = _alg1(g.n, comps, u, v, stats)
    return _validate_result(g, StableCutResult(cut=cut, separated_pair=(u, v)))


def is_biconnected(g: Graph) -> bool:
    if g.n < 3 or not is_connected(g):
        return False
    return len(blocks(g)) == 1


def stable_cut_avoiding(g: Graph, v: int) -> StableCutResult:
    """Stable cut avoiding v in a 2-connected flexible graph.

    Picks u sharing no rigid component with v (exists: otherwise v would be
    a cut vertex); the separating cut excludes both endpoints by definition.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if not is_biconnected(g):
        raise PreconditionError("graph is not 2-connected")
    stats = {"calls": 0, "pair_probes": 0}
    comps = _check_flexible_input(g, stats)
    related = set().union(*(comp for comp in comps if v in comp))
    for u in range(g.n):
        if u in related:
            continue
        cut = _alg1(g.n, comps, u, v, stats)
        if v not in cut:
            return _validate_result(
                g,
                StableCutResult(cut=cut, separated_pair=(u, v), avoided_vertex=v),
            )
    raise RuntimeError("no partner vertex found; 2-connectivity invariant broken")


def exhaustive_stable_cut(
    g: Graph,
    separate: Optional[tuple[int, int]] = None,
    avoid: Optional[int] = None,
) -> Optional[StableCutResult]:
    """Minimum-cardinality stable cut meeting the constraints, or None.

    Deterministic: lexicographically smallest among minimum size.  Documented
    exponential search, limited to 24 vertices.
    """
    if g.n > EXHAUSTIVE_MAX_VERTICES:
        raise PreconditionError(
            f"exhaustive search limited to {EXHAUSTIVE_MAX_VERTICES} vertices, got {g.n}"
        )
    forbidden = set()
    if separate is not None:
        forbidden.update(separate)
    if avoid is not None:
        forbidden.add(avoid)
    for k in range(0, g.n - 1):
        for cand in combinations(range(g.n), k):
            s = frozenset(cand)
            if s & forbidden:
                continue
            if not is_stable_set(g, s):
                continue
            comps = connected_components_without(g, s)
            if len(comps) < 2:
                continue
            if separate is not None:
                u, v = separate
                cu = next(c for c in comps if u in c)
                if v in cu:
                    continue
            return StableCutResult(
                cut=s,
                separated_pair=separate,
                avoided_vertex=avoid,
            )
    return None


def find_stable_cut(
    g: Graph, report: Optional[RigidityReport] = None, member: Optional[bool] = None
) -> tuple[Optional[StableCutResult], str]:
    """(stable cut or None, method): a vertex neighbourhood, then Algorithm 1
    on a flexible graph, then the gluing-family peel ("gsc"), then
    exhaustive search; "skipped" above its size limit proves nothing.

    `report` is g's rigidity report and `member` whether g is in the gluing
    family, when the caller already has them.  A connected rigid graph
    with m = 2n-3 has no stable cut exactly when the peel finds a
    decomposition (Le and Pfender), so a member needs no search, and
    exhaustive search must find a cut in a non-member.
    """
    peeled_non_member = False
    for u in range(g.n):
        nbrs = g.adjacency[u]
        if is_stable_set(g, nbrs) and is_cut(g, nbrs):
            return StableCutResult(cut=frozenset(nbrs)), "neighbourhood"
    if g.n >= 2 and is_connected(g):
        if report is None:
            report = rigidity_report(g)
        if report.is_flexible:
            for u in range(g.n):
                related = set().union(*(c for c in report.rigid_components if u in c))
                v = next((v for v in range(u + 1, g.n) if v not in related), None)
                if v is not None:
                    return algorithm1_stable_cut(g, u, v), "algorithm1"
        elif report.is_minimally_rigid:
            if member is None:
                member = gsc_decomposition(g) is not None
            if member:
                return None, "gsc"
            peeled_non_member = True
    if g.n <= EXHAUSTIVE_MAX_VERTICES:
        result = exhaustive_stable_cut(g)
        if result is None and peeled_non_member:
            raise RuntimeError("peel failed but no stable cut exists; recognizer is incomplete")
        return result, "exhaustive"
    return None, "skipped"
