"""Stable cuts: the contraction algorithm for flexible graphs, the
avoid-a-vertex variant for 2-connected inputs, exhaustive search by a
vertex-labelling programme that also spells the NAP-colourings, and
`Answers`, one record per graph: the peel, then the game, then the search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from heapq import heappop, heappush
from typing import AbstractSet, Iterable, Iterator, Optional

from .graph import (
    Graph,
    PreconditionError,
    _frontier_run,
    _vertex_order,
    blocks,
    connected_components_without,
    is_connected,
    is_stable_set,
)
from .rigidity import GscDecomposition, RigidityReport, gsc_decomposition, pebble_game, rigid_components, rigidity_report

# Vertex labels of `_labellings`; a mixed code adds bit 0 once it has a
# blue neighbour and bit 1 once it has a red one.
BLUE, RED, MIXED = 0, 1, 4

Components = tuple[frozenset[int], ...]


@dataclass(frozen=True)
class StableCutResult:
    cut: frozenset[int]
    separated_pair: Optional[tuple[int, int]] = None
    avoided_vertex: Optional[int] = None
    components: Optional[int] = field(default=None, compare=False)  # of g - cut, if the search counted them


def _validate_result(g: Graph, result: StableCutResult) -> StableCutResult:
    """Re-validate independently of the search path; never trust the contraction loop."""
    if not is_stable_set(g, result.cut):
        raise RuntimeError(f"produced cut {sorted(result.cut)} is not stable")
    comps = connected_components_without(g, result.cut)
    if len(comps) < 2:
        raise RuntimeError(f"produced set {sorted(result.cut)} does not disconnect the graph")
    if result.separated_pair is not None:
        u, v = result.separated_pair
        if not any(u in c and v not in c for c in comps):
            raise RuntimeError(f"cut fails to separate {u} and {v}")
    if result.avoided_vertex is not None and result.avoided_vertex in result.cut:
        raise RuntimeError("cut contains the vertex it must avoid")
    return replace(result, components=len(comps))


def _membership(comps: Iterable[Iterable[int]]) -> dict[int, set[int]]:
    """Vertex -> indices of the components containing it."""
    member: dict[int, set[int]] = {}
    for i, comp in enumerate(comps):
        for w in comp:
            member.setdefault(w, set()).add(i)
    return member


def _contracted_components(
    comps: Iterable[AbstractSet[int]], keep: int, removed: int, stats: dict
) -> Components:
    """Rigid components of the component-completed graph with vertex
    `removed` merged into `keep`; every other vertex keeps its id.

    That graph is a union of rigid bodies, the images of `comps`.  A pin
    is a vertex in two or more images.  Lemma: replacing a rigid body by
    any rigid graph on a superset of its pins leaves the rigidity closure
    on the rest unchanged, and a vertex private to one body adds nothing.
    So each image with at least two pins becomes a fan (a minimally rigid
    graph) on its pins alone, one pebble game finds the rigid components
    of that pin graph, and a component of the contracted graph is the
    union of the images whose first fan edge lies in one pin-graph
    component.  An image with fewer than two pins is a component by
    itself: it hangs at a cut vertex, and a rigid graph on three or more
    vertices is 2-connected.

    Relabel lemma: rigid components share at most one vertex, so `keep`
    and `removed` lie in exactly one common component C.  If either of
    them lies in C alone, the images have the pins of `comps` up to
    renaming `removed` to `keep`, so the same pin graph, whose game keeps
    every body apart; the new rigid components are exactly the images, and
    no game is needed (`_relabel`).  Only a contraction that merges two
    pins can join bodies, and only that one comes here.
    """
    images = []
    for comp in comps:
        image = frozenset(keep if w == removed else w for w in comp)
        if len(image) >= 2:
            images.append(image)
    count = Counter(w for image in images for w in image)
    pin = {w: i for i, w in enumerate(sorted(w for w, k in count.items() if k > 1))}
    edges: set[tuple[int, int]] = set()
    firsts: list[Optional[tuple[int, int]]] = []
    for image in images:
        pins = sorted(pin[w] for w in image if w in pin)
        if len(pins) < 2:
            firsts.append(None)
            continue
        a, b = pins[0], pins[1]
        firsts.append((a, b))
        edges.add((a, b))
        for w in pins[2:]:
            edges.add((a, w))
            edges.add((b, w))
    pin_graph = Graph.from_edges(len(pin), edges)
    state = pebble_game(pin_graph)
    stats["pair_probes"] += state.searches
    pin_member = _membership(rigid_components(pin_graph, state))
    merged: dict[int, set[int]] = {}
    out: list[frozenset[int]] = []
    for image, first in zip(images, firsts):
        if first is None:
            out.append(image)
        else:
            (c,) = pin_member[first[0]] & pin_member[first[1]]
            merged.setdefault(c, set()).update(image)
    return tuple(out) + tuple(frozenset(body) for body in merged.values())


def _relabel(
    bodies: list[set[int]], member: dict[int, set[int]], heaps: list[list[int]], keep: int, removed: int
) -> None:
    """Merge `removed` into `keep` in place, where one of them lies in a
    single component: the bodies stay the rigid components (the relabel
    lemma in `_contracted_components`).  Costs O(|member[removed]|), plus
    a heap push for each body that `keep` joins.  The common component
    holds the triangle at u that the contraction came from, so it keeps two
    or more vertices and no component drops out."""
    for c in member[removed]:
        body = bodies[c]
        body.discard(removed)
        if keep not in body:
            body.add(keep)
            heappush(heaps[c], keep)
    member[keep] |= member.pop(removed)


def _two_least(heap: list[int], body: set[int], u: int) -> list[int]:
    """The two smallest vertices other than u of body, which has three or
    more.  `heap` holds each vertex of body once, and vertices that have
    left it, which are dropped when they reach the top: a vertex leaves a
    body only when it is merged away, so it never returns."""
    top: list[int] = []
    while len(top) < 3:
        w = heappop(heap)
        if w in body:
            top.append(w)
    for w in top:
        heappush(heap, w)
    return [w for w in top if w != u][:2]


def _alg1(comps: Components, u: int, v: int, stats: dict) -> frozenset[int]:
    """Contraction loop in the input's vertex ids; returns the cut.

    Each step works on the component-completed graph (every rigid component
    made a clique), represented by its components: if the completed
    neighbourhood of u is stable it is the cut; otherwise contract one of
    the two triangle edges at u, picking the contraction that keeps the
    merged vertex and v in different rigid components.  A contraction
    merges the larger endpoint into the smaller and renames nothing else;
    v shares no rigid component with u, so it is never merged away.

    The components live across levels as `bodies` (index -> vertex set),
    `member` (vertex -> indices) and `heaps` (index -> the body's vertices
    in a heap, for its smallest ones).  A contraction with an endpoint in
    one component only is a relabel of the maps (`_relabel`); only one
    that merges two pins plays a pin-graph game (`_contracted_components`),
    after which the maps are rebuilt.  Whether a relabel separates is read
    off the maps before any change, so a rejected first candidate needs no
    undo.  A game's verdict depends only on which pins each body holds and
    on v's bodies.  A relabel changes neither, beyond renaming a pin
    `removed` to `keep`, and `removed` never comes back; so a refused pin
    pair is not played again until a taken game rebuilds the maps.  A
    level costs its relabel plus O(log n) per heap entry popped.
    """
    bodies = [set(comp) for comp in comps]
    member = _membership(bodies)
    heaps = [sorted(body) for body in bodies]
    refused: set[tuple[int, int]] = set()  # pin pairs whose game joined keep to v
    while True:
        stats["calls"] += 1
        # a triangle is rigid, so two neighbours of u in a common component
        # share it with u: the first triangle edge at u, in sorted order,
        # ends at the smallest neighbour in a component of three or more;
        # components through u share no other vertex, so that one is unique
        big = [_two_least(heaps[c], bodies[c], u) for c in member[u] if len(bodies[c]) > 2]
        if not big:
            return frozenset().union(*(bodies[c] for c in member[u])) - {u}
        for xi in min(big):
            keep, removed = min(u, xi), max(u, xi)
            if (member[keep] | member[removed]) & member[v] or (keep, removed) in refused:
                continue
            if len(member[keep]) == 1 or len(member[removed]) == 1:
                _relabel(bodies, member, heaps, keep, removed)
                break
            contracted = _contracted_components(bodies, keep, removed, stats)
            if any(keep in comp and v in comp for comp in contracted):
                refused.add((keep, removed))
                continue
            bodies = [set(comp) for comp in contracted]
            member = _membership(bodies)
            heaps = [sorted(body) for body in bodies]
            refused.clear()
            break
        else:
            raise RuntimeError("neither contraction separates; flexibility invariant broken")
        u = keep


def _check_flexible_input(g: Graph, stats: dict) -> Components:
    """The rigid components of a connected flexible g, from one pebble game."""
    if not is_connected(g):
        raise PreconditionError("graph is not connected")
    state = pebble_game(g)
    stats["pair_probes"] += state.searches
    if len(state.accepted) >= 2 * g.n - 3:
        raise PreconditionError("graph is not flexible")
    return rigid_components(g, state)


def _separate(
    g: Graph, comps: Components, u: int, v: int, stats: dict, avoid: Optional[int] = None
) -> StableCutResult:
    """Algorithm 1 on g, whose rigid components are `comps`: the validated
    stable cut separating u and v (and avoiding `avoid`, if given)."""
    if any(u in comp and v in comp for comp in comps):
        raise PreconditionError(f"{u} and {v} lie in a common rigid component")
    return _validate_result(g, StableCutResult(_alg1(comps, u, v, stats), (u, v), avoid))


def algorithm1_stable_cut(
    g: Graph, u: int, v: int, stats: Optional[dict] = None
) -> StableCutResult:
    """Stable cut separating u and v in a connected flexible graph.

    A loop of contractions: if the (component-completed) neighbourhood of
    u is stable it is the cut; otherwise contract one of two triangle edges
    at u, picking the contraction that keeps the merged vertex and v in
    different rigid components.  `stats`, if given, receives "calls"
    (contraction levels) and "pair_probes" (pebble searches, over the game
    on g and the pin-graph games played: only a contraction that merges two
    pins plays one, and a refused pin pair is not played again until the
    next game is taken; see `_alg1`).
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
    return _separate(g, _check_flexible_input(g, stats), u, v, stats)


def is_biconnected(g: Graph) -> bool:
    if g.n < 3 or not is_connected(g):
        return False
    return len(blocks(g)) == 1


def stable_cut_avoiding(g: Graph, v: int) -> StableCutResult:
    """Stable cut avoiding v in a 2-connected flexible graph.

    Algorithm 1 separates v from u, the first vertex sharing no rigid
    component with v (one exists: else v is a cut vertex).  It never merges
    v or puts v in u's component, so the cut, u's neighbourhood, avoids v.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if not is_biconnected(g):
        raise PreconditionError("graph is not 2-connected")
    stats = {"calls": 0, "pair_probes": 0}
    comps = _check_flexible_input(g, stats)
    related = set().union(*(comp for comp in comps if v in comp))
    u = next((u for u in range(g.n) if u not in related), None)
    if u is None:
        raise RuntimeError("no partner vertex found; 2-connectivity invariant broken")
    return _separate(g, comps, u, v, stats, avoid=v)


def _step(key: tuple, labels: list[int], at: list[int], done: list[int], keep: list[int]) -> Iterator[Optional[tuple]]:
    """The next state for each of `labels` that the level's vertex, one past
    the frontier, may take, None where it is rejected; `at`, `done` and
    `keep` are positions in `key`."""
    for label in labels:
        codes, child = list(key), None
        for i in at:
            x = codes[i]
            if label & MIXED:
                if x & MIXED:
                    break
                label |= 1 << x
            elif x & MIXED:
                codes[i] = x | 1 << label
            elif x != label:
                break
        else:
            codes.append(key[-1] if label & MIXED else key[-1] | 1 << label)
            codes[-2] = label
            if not any(MIXED <= codes[i] < MIXED | 3 for i in done):  # a leaving mixed vertex has a red and a blue neighbour
                child = tuple(map(codes.__getitem__, keep))
        yield child


def _split(adj: tuple[frozenset[int], ...], nbrs: frozenset[int]) -> bool:
    """Whether the subgraph induced on `nbrs` is disconnected."""
    seen, stack = {min(nbrs)}, [min(nbrs)]
    while stack:
        for y in adj[stack.pop()] & nbrs:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) < len(nbrs)


def _labellings(g: Graph, allowed: dict, links: Optional[list] = None) -> tuple[list[int], dict[tuple, object]]:
    """Label the non-isolated vertices red, blue or mixed, so that mixed
    vertices are pairwise non-adjacent, adjacent unmixed ones agree, each
    mixed one has a red and a blue neighbour (so its neighbourhood is
    disconnected), and both colours occur: the NAP-colourings, read at the
    vertices.  The mixed set is a stable cut, and every least stable cut
    is one.  `allowed.get(v)` narrows the labels of v.

    One level per vertex, in `_vertex_order`, run by `graph._frontier_run`
    with `links`, red being back-link bit 1.  A state is a code per frontier
    vertex, BLUE, RED, or MIXED plus the colours its neighbours showed so
    far (bit 0 blue, bit 1 red), then the colours used.  It keeps the least
    sum of 2^n - 2^(n-1-v) over its mixed v, which orders cuts by size and
    then lexicographically and decodes back to the cut.  Returns the
    labelled vertices and the final states; (3,) accepts.
    """
    adj = g.adjacency
    order = [v for v in _vertex_order(g) if adj[v]]
    level = {v: k for k, v in enumerate(order)}
    last = {v: max(level[v], *(level[w] for w in adj[v])) for v in order}  # the level v leaves at
    frontier, run = [], []
    for k, v in enumerate(order):
        at = [i for i, w in enumerate(frontier) if w in adj[v]]
        placed = frontier + [v]
        done = [i for i, w in enumerate(placed) if last[w] == k]
        keep = [i for i, w in enumerate(placed) if last[w] > k]
        frontier = [placed[i] for i in keep]
        keep.append(len(placed))
        labels = [x for x in allowed.get(v, (BLUE, RED, MIXED)) if x != MIXED or _split(adj, adj[v])]
        adds = [(1 << g.n) - (1 << (g.n - 1 - v)) if x == MIXED else 0 for x in labels]
        run.append((_step, (labels, at, done, keep), [int(x == RED) for x in labels], adds, len(frontier)))
    return order, _frontier_run(run, {(0,): 0}, min, links)[0]


def exhaustive_stable_cut(
    g: Graph, separate: Optional[tuple[int, int]] = None, avoid: Optional[int] = None
) -> Optional[StableCutResult]:
    """Minimum-cardinality stable cut meeting the constraints, or None;
    the lexicographically smallest among minimum size.  The empty cut is
    read off g's components, any other from one run of `_labellings` with
    u red and v blue for `separate` = (u, v) and `avoid` never mixed.
    Raises PreconditionError past the programme's state budget."""
    if separate is not None and separate[0] == separate[1]:
        return None  # no cut separates a vertex from itself
    parts = g.components
    if len(parts) > 1 and not (separate and any(set(separate) <= part for part in parts)):
        cut: frozenset[int] = frozenset()
    else:
        if separate is not None:
            allowed = {separate[0]: (RED,), separate[1]: (BLUE,)}
        else:  # swapping the colours keeps the cut, so edge 0 may be blue
            allowed = dict.fromkeys(g.edges[0] if g.m else (), (BLUE, MIXED))
        if avoid is not None:
            allowed[avoid] = tuple(x for x in allowed.get(avoid, (BLUE, RED)) if x != MIXED)
        cost = _labellings(g, allowed)[1].get((3,))
        if cost is None:
            return None
        bits = -cost % (1 << g.n)  # the sum of 2^(n-1-v) over the cut
        cut = frozenset(v for v in range(g.n) if bits >> (g.n - 1 - v) & 1)
    return StableCutResult(cut, separate, avoid, len(connected_components_without(g, cut)))


class Answers:
    """The structural answers about g, each computed on first read and kept.
    `tight` is connected with m = 2n-3: by Le and Pfender such a graph has
    no stable cut exactly when the peel finds a decomposition, so only a
    tight graph is peeled, and a member plays no game and scans nothing.
    """

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.connected = is_connected(g)
        self.tight = self.connected and g.m == 2 * g.n - 3
        self.refusal: Optional[str] = None  # why `stable_cut` is "skipped"

    @cached_property
    def decomposition(self) -> Optional[GscDecomposition]:
        """The gluing-family build script, or None for a non-member."""
        return gsc_decomposition(self.g) if self.tight else None

    @cached_property
    def report(self) -> RigidityReport:
        """The rigidity report.  A member's needs no game: each gluing step
        glues a rigid piece onto an edge or a triangle of a rigid graph, so a
        member, with 2n-3 edges, is minimally rigid and one rigid component."""
        n = self.g.n
        if self.decomposition is not None:
            return RigidityReport(2 * n - 3, (frozenset(range(n)),), True, True, False)
        return rigidity_report(self.g)

    @cached_property
    def stable_cut(self) -> tuple[Optional[StableCutResult], str]:
        """(stable cut or None, method): the peel ("gsc"), a vertex
        neighbourhood, Algorithm 1 on the report's rigid components (no second
        game), then `exhaustive_stable_cut`, which must find a cut in a tight
        non-member.  Past its state budget the answer is (None, "skipped"),
        which proves nothing, and `refusal` says why."""
        g = self.g
        if self.decomposition is not None:
            return None, "gsc"
        for u in range(g.n):
            nbrs = g.adjacency[u]
            # deleting N(u) isolates u, so N(u) is a cut iff another vertex is left
            if g.n >= len(nbrs) + 2 and is_stable_set(g, nbrs):
                return StableCutResult(cut=frozenset(nbrs)), "neighbourhood"
        if self.connected and g.n >= 2 and self.report.is_flexible:
            comps = self.report.rigid_components
            for u in range(g.n):
                related = set().union(*(c for c in comps if u in c))
                v = next((v for v in range(u + 1, g.n) if v not in related), None)
                if v is not None:
                    return _separate(g, comps, u, v, {"calls": 0, "pair_probes": 0}), "algorithm1"
        try:
            result = exhaustive_stable_cut(g)
        except PreconditionError as exc:
            self.refusal = f"no stable cut found: {exc}"
            return None, "skipped"
        if result is None and self.tight:
            raise RuntimeError("peel failed but no stable cut exists; recognizer is incomplete")
        return result, "exhaustive"


def find_stable_cut(g: Graph) -> tuple[Optional[StableCutResult], str]:
    """`Answers(g).stable_cut`: the cut (or None) and the method that found it."""
    return Answers(g).stable_cut
