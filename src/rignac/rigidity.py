"""(2,3)-sparsity pebble game, rigid components, and structural recognizers.

The rank of a graph is the size of a maximum (2,3)-sparse edge subset, which
the pebble game computes deterministically.  A graph on n >= 2 vertices is
rigid iff its rank is 2n-3, and minimally rigid iff additionally m = 2n-3.

Rigid components are read off the finished game (Jacobs and Hendrickson,
J. Comput. Phys. 1997; Lee and Streinu, Discrete Math. 2008): for each edge
not yet covered by a component, three pebbles are gathered on its ends, and
the component is every vertex from which no other free pebble can be
reached.  It is grown outward from the pair, so a component costs one
gather plus searches over the component and the vertices next to it, not
a search of the whole graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .graph import Graph, PreconditionError, is_connected


class PebbleState:
    """Mutable (2,3) pebble game state: 2 pebbles per vertex, 4 to accept an edge.

    Every vertex keeps pebbles[v] + len(out[v]) == 2, where out[v] lists
    the heads of v's accepted edges as the game directs them, so out[v]
    holds at most two vertices.  The state keeps no in-edges: each tail of
    an edge into v is a neighbour of v in the played graph, which
    `component` reads instead.  Searches mark the vertices they visit in
    one stamp list instead of allocating a visited set.  `searches` counts
    the pebble searches made so far.  Single-owner; not safe for
    concurrent mutation.
    """

    __slots__ = ("pebbles", "out", "accepted", "searches", "_mark", "_stamp", "_prev")

    def __init__(self, n: int) -> None:
        self.pebbles = [2] * n
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.accepted: list[tuple[int, int]] = []
        self.searches = 0
        self._mark = [0] * n  # the stamp of the last search that visited each vertex
        self._stamp = 0
        self._prev = [0] * n  # search tree of the current gather

    def _gather(self, target: int, protect: int) -> bool:
        """Move one pebble to `target` by reversing a directed path, if possible.

        The search never visits `protect`, so its pebbles stay untouched.
        """
        self.searches += 1
        self._stamp += 1
        stamp, mark, prev, out, pebbles = self._stamp, self._mark, self._prev, self.out, self.pebbles
        mark[target] = mark[protect] = stamp
        stack = [target]
        while stack:
            x = stack.pop()
            for y in out[x]:
                if mark[y] == stamp:
                    continue
                mark[y] = stamp
                prev[y] = x
                if pebbles[y]:
                    pebbles[y] -= 1
                    pebbles[target] += 1
                    while y != target:
                        x = prev[y]
                        out[x].remove(y)
                        out[y].append(x)
                        y = x
                    return True
                stack.append(y)
        return False

    def _collect(self, u: int, v: int) -> bool:
        while self.pebbles[u] < 2:
            if not self._gather(u, v):
                break
        while self.pebbles[v] < 2:
            if not self._gather(v, u):
                break
        return self.pebbles[u] + self.pebbles[v] >= 4

    def try_accept(self, u: int, v: int) -> bool:
        """Accept edge (u,v) into the sparse set if independent."""
        if self._collect(u, v):
            self.pebbles[u] -= 1
            self.out[u].append(v)
            self.accepted.append((u, v))
            return True
        return False

    def component(self, u: int, v: int, adj: tuple[frozenset[int], ...]) -> frozenset[int]:
        """Vertex set of the rigid component spanned by the dependent pair (u,v).

        Call on a finished game with u,v rigidly related (for instance an
        edge of the played graph), so exactly three pebbles can be gathered
        on them; `adj` is the played graph's adjacency.  A vertex lies in
        the component iff it reaches no other free pebble along out-edges.
        The component starts as everything reachable from {u, v}; then each
        unsettled graph neighbour w of a component vertex starts a search
        along out-edges.  The search stops at the first vertex with a free
        pebble or known to reach one, and its current path reaches that
        pebble; the other vertices it visited stay unsettled.  A search
        that ends without stopping reached only component vertices, so
        every vertex it visited joins, whatever vertex it started from.
        Every component vertex outside the start reaches it along a path
        of component vertices (its reach has no free pebble, so by (2,3)-
        sparsity the reach meets the start); the path's last vertex outside
        the grown set is an in-neighbour, so a graph neighbour, of a vertex
        in it, and its search joins.  A neighbour that is no in-neighbour is
        an out-neighbour, already grown, or the end of a rejected edge.
        """
        self._collect(u, v)
        out, pebbles, mark = self.out, self.pebbles, self._mark
        self._stamp += 2
        rigid, floppy = self._stamp - 1, self._stamp
        comp = [u, v]
        mark[u] = mark[v] = rigid
        for x in comp:
            for y in out[x]:
                if mark[y] != rigid:
                    mark[y] = rigid
                    comp.append(y)
        for x in comp:
            for w in adj[x]:
                if mark[w] == rigid or mark[w] == floppy or pebbles[w]:
                    continue
                self._stamp += 1
                seen = self._stamp
                mark[w] = seen
                visited, path, pos = [w], [w], [0]
                while path:
                    heads, i = out[path[-1]], pos[-1]
                    if i == len(heads):
                        path.pop()
                        pos.pop()
                        continue
                    pos[-1] = i + 1
                    y = heads[i]
                    if mark[y] == rigid or mark[y] == seen:
                        continue
                    if mark[y] == floppy or pebbles[y]:
                        for z in path:
                            mark[z] = floppy
                        break
                    mark[y] = seen
                    visited.append(y)
                    path.append(y)
                    pos.append(0)
                else:
                    for z in visited:
                        mark[z] = rigid
                    comp.extend(visited)
        return frozenset(comp)


def _peel_order(g: Graph) -> list[tuple[int, int]]:
    """g's edges in minimum-degree peel order, each as (other end, peeled end).

    A vertex of smallest degree, if that is at most 3, is taken (ties go to
    the smallest vertex), its edges to the vertices not yet taken are
    listed, and it is removed; the edges left when every vertex has degree
    4 or more (the 4-core) follow in index order.  A (2,3)-sparse graph has
    fewer than 2n edges, and so has each of its subgraphs, so a sparse
    graph is peeled whole.  The buckets for degrees 0..3 are min-heaps
    with lazy deletion: a vertex is pushed whenever its degree falls to 3
    or less, and an entry whose vertex is taken or whose degree has fallen
    further is dropped when it is popped.
    """
    pop, push = heapq.heappop, heapq.heappush
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:  # lex order, so each list comes out sorted
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(nbrs) for nbrs in adj]
    taken = [False] * g.n
    buckets: list[list[int]] = [[], [], [], []]
    for v, d in enumerate(deg):
        if d <= 3:
            buckets[d].append(v)  # in vertex order, so already heaps
    order = []
    d = 0
    while d < 4:
        bucket = buckets[d]
        while bucket:
            x = pop(bucket)
            if not taken[x] and deg[x] == d:
                break
        else:
            d += 1
            continue
        taken[x] = True
        for w in adj[x]:
            if not taken[w]:
                order.append((w, x))
                k = deg[w] = deg[w] - 1
                if k <= 3:
                    push(buckets[k], w)
                    if k < d:
                        d = k
    if len(order) < g.m:
        order += [(u, v) for u, v in g.edges if not (taken[u] or taken[v])]
    return order


def pebble_game(g: Graph) -> PebbleState:
    """The finished game after offering g's edges in minimum-degree peel order.

    Offered in index order, the edges of a graph labelled in construction
    order (Henneberg steps, gluings) search far for nearly every free
    pebble.  Peel order offers a vertex's edges once at most three are left,
    and `try_accept` spends a pebble of the edge's first end, so a peeled
    vertex keeps its own pebbles and later gathers find them one step from
    its neighbours.  On Laman, 2-tree and two-body graphs the game makes
    1.0-1.1 searches per edge, against about 1.7 in index order.  The rank
    does not depend on the order, since the (2,3)-sparse edge sets form a
    matroid, and nor do the rigid components: only `searches` does.
    """
    state = PebbleState(g.n)
    for u, v in _peel_order(g):
        state.try_accept(u, v)
    return state


def rank(g: Graph) -> int:
    """Maximum (2,3)-sparse edge subset size."""
    if g.n < 2:
        raise PreconditionError("rank requires at least two vertices")
    return len(pebble_game(g).accepted)


@dataclass(frozen=True)
class RigidityReport:
    rank: int
    rigid_components: tuple[frozenset[int], ...]
    is_rigid: bool
    is_minimally_rigid: bool
    is_flexible: bool


def rigid_components(g: Graph, state: PebbleState) -> tuple[frozenset[int], ...]:
    """Rigid components of g from its finished game `state`, ordered by
    smallest contained edge index.  Every edge lies in exactly one of them."""
    comps: list[frozenset[int]] = []
    member: list[set[int]] = [set() for _ in range(g.n)]  # vertex -> ids of its components
    for u, v in g.edges:
        # iterates the smaller of the two sets, so a hub's ids are not walked
        if not member[u].isdisjoint(member[v]):
            continue
        comp = state.component(u, v, g.adjacency)
        for w in comp:
            member[w].add(len(comps))
        comps.append(comp)
    return tuple(comps)


def rigidly_related_pairs(g: Graph) -> set[tuple[int, int]]:
    """All pairs (u,v), u<v, sharing a rigid component (includes every edge)."""
    if g.n < 2:
        return set()
    return {pair for comp in rigid_components(g, pebble_game(g)) for pair in combinations(sorted(comp), 2)}


def rigidity_report(g: Graph) -> RigidityReport:
    """Rank, rigid components (ordered by smallest contained edge index), verdicts."""
    if g.n < 1:
        raise PreconditionError("rigidity_report requires at least one vertex")
    if g.n == 1:
        return RigidityReport(0, (), True, False, False)
    state = pebble_game(g)
    rk = len(state.accepted)
    target = 2 * g.n - 3
    is_rigid = rk == target
    return RigidityReport(
        rank=rk,
        rigid_components=rigid_components(g, state),
        is_rigid=is_rigid,
        is_minimally_rigid=is_rigid and g.m == target,
        is_flexible=not is_rigid,
    )


# ---------------------------------------------------------------------------
# 2-trees and extensions


def two_tree_peel(g: Graph) -> Optional[list[int]]:
    """Peel order certifying g is a 2-tree, or None.

    A 2-tree is a connected gluing-family member whose decomposition has no
    prism (a 2-tree always has an ear, which the peel takes first); the
    order is the peel's, smallest ear first.
    """
    if g.n < 2 or not is_connected(g):
        return None
    dec = gsc_decomposition(g)
    return list(dec.peel_order) if dec is not None and dec.prism_count == 0 else None


def is_2tree(g: Graph) -> bool:
    return two_tree_peel(g) is not None


def zero_extend(g: Graph, u: int, v: int) -> tuple[Graph, bool]:
    """Add a degree-2 vertex adjacent to u and v; open iff uv is a non-edge."""
    if u == v:
        raise PreconditionError("0-extension endpoints must be distinct")
    for w in (u, v):
        if not 0 <= w < g.n:
            raise ValueError(f"vertex {w} out of range")
    is_open = not g.has_edge(u, v)
    new = g.n
    return Graph.from_edges(g.n + 1, list(g.edges) + [(u, new), (v, new)]), is_open


def vertex_split(g: Graph, v: int, n1: Iterable[int], n2: Iterable[int]) -> Graph:
    """Split v into adjacent v1=v and v2=n with neighbourhoods N1, N2.

    Requires N1 u N2 = N(v) and |N1 n N2| = 1.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    s1, s2 = frozenset(n1), frozenset(n2)
    nbrs = g.adjacency[v]
    if s1 | s2 != nbrs:
        raise PreconditionError("N1 u N2 must equal the neighbourhood of v")
    if len(s1 & s2) != 1:
        raise PreconditionError("N1 and N2 must share exactly one vertex")
    v2 = g.n
    edges = [(a, b) for a, b in g.edges if a != v and b != v]
    edges += [(v, x) for x in s1]
    edges += [(v2, x) for x in s2]
    edges.append((v, v2))
    return Graph.from_edges(g.n + 1, edges)


# ---------------------------------------------------------------------------
# the stable-cut-free family: recognition and certificates


@dataclass(frozen=True)
class GscStep:
    """One gluing step.

    For prism pieces glued along an edge, `layout` records whether the glue
    edge lies on a prism triangle or on the matching; the two cases build
    different graphs.  With layout "triangle" and new (p,q,r,t): triangles
    (a,b,p) and (q,r,t), matching a-q, b-r, p-t.  With layout "matching" and
    new (x,y,xx,yy): triangles (a,x,y) and (b,xx,yy), matching x-xx, y-yy.
    """

    piece: str  # "triangle" or "prism"
    glue_type: str  # "edge" or "triangle"
    glue_at: tuple[int, ...]
    new_vertices: tuple[int, ...]
    layout: Optional[str] = None

    def edges(self) -> list[tuple[int, int]]:
        """The edges this step adds, each as (smaller id, larger id).

        For a prism the three matching edges come last, after the triangle
        edges; a matching-layout prism lists its glue edge among them.  In
        the prism's NAC-colouring (both triangles blue, the matching red)
        the step's blue edges are `edges()[:-3]` and its red ones
        `edges()[-3:]`.
        """
        if self.piece == "triangle":
            (a, b), (w,) = self.glue_at, self.new_vertices
            pairs = ((a, w), (b, w))
        elif self.glue_type == "triangle":
            a, b, c = self.glue_at
            p, q, r = self.new_vertices
            pairs = ((p, q), (q, r), (p, r), (a, p), (b, q), (c, r))
        elif self.layout == "matching":
            a, b = self.glue_at
            x, y, xx, yy = self.new_vertices
            pairs = ((a, x), (a, y), (x, y), (b, xx), (b, yy), (xx, yy), (x, xx), (y, yy), (a, b))
        else:
            a, b = self.glue_at
            p, q, r, t = self.new_vertices
            pairs = ((a, b), (a, p), (b, p), (q, r), (r, t), (q, t), (a, q), (b, r), (p, t))
        return [(x, y) if x < y else (y, x) for x, y in pairs]


@dataclass(frozen=True)
class GscDecomposition:
    """Build script: K2 base, then triangle/prism gluings, in original vertex ids."""

    base_vertices: tuple[int, int]
    steps: tuple[GscStep, ...]

    @property
    def prism_count(self) -> int:
        return sum(1 for s in self.steps if s.piece == "prism")

    @property
    def peel_order(self) -> tuple[int, ...]:
        """The new vertices in the order the peel removed them."""
        return tuple(v for s in reversed(self.steps) for v in s.new_vertices)

    def to_json(self) -> dict:
        steps = []
        for s in self.steps:
            item = {
                "piece": s.piece,
                "glue": {"type": s.glue_type, "at": list(s.glue_at)},
                "new": list(s.new_vertices),
            }
            if s.layout is not None:
                item["layout"] = s.layout
            steps.append(item)
        return {
            "base": "K2",
            "base_vertices": list(self.base_vertices),
            "steps": steps,
            "prisms": self.prism_count,
        }

    def replay(self) -> Graph:
        """Rebuild the graph described by the script.  Each step must glue
        along an edge, or a triangle, of the graph built so far."""
        verts = set(self.base_vertices)
        edges = {tuple(sorted(self.base_vertices))}
        for s in self.steps:
            if any(w in verts for w in s.new_vertices):
                raise ValueError("step reuses an existing vertex id")
            if not all(w in verts for w in s.glue_at):
                raise ValueError(f"glue site {s.glue_at} not present yet")
            if not all(pair in edges for pair in combinations(sorted(s.glue_at), 2)):
                raise ValueError(f"{s.glue_type} glue site {s.glue_at} is not one of the graph built so far")
            edges.update(s.edges())
            verts.update(s.new_vertices)
        ids = sorted(verts)
        pos = {v: i for i, v in enumerate(ids)}
        return Graph.from_edges(len(ids), [(pos[a], pos[b]) for a, b in edges])


@dataclass(frozen=True)
class GscNonMembership:
    reason: str  # "edge count" or "stable cut"
    stable_cut: Optional[frozenset[int]] = None


def count_prism_subgraphs(g: Graph) -> int:
    """Number of distinct 3-prism subgraphs (as 9-edge sets) of g."""
    return len(_live_prisms(list(g.adjacency), range(g.n)))


def _prism_moves(adj: list[set[int]], t1: tuple[int, ...], t2: tuple[int, ...]) -> Iterator[GscStep]:
    """Moves that peel prism (t1, t2) off, vertex k of t1 matched to vertex k of t2.

    A move is yielded only when its new vertices all have live degree 3,
    that is, when they carry no edge outside the prism.
    """

    def free(vs: tuple[int, ...]) -> bool:
        return all(len(adj[x]) == 3 for x in vs)

    # prism glued along a triangle: one face is internal (degree 3), other stays
    for face, kept in ((t1, t2), (t2, t1)):
        if free(face):
            kt = tuple(sorted(kept))
            order = {kept[k]: face[k] for k in range(3)}
            yield GscStep("prism", "triangle", kt, tuple(order[x] for x in kt))
    # prism glued along one of its triangle edges
    for face, other in ((t1, t2), (t2, t1)):
        partner = dict(zip(face, other))
        for i, j in ((0, 1), (1, 2), (0, 2)):
            a, b = sorted((face[i], face[j]))
            (p,) = set(face) - {a, b}
            new = (p, partner[a], partner[b], partner[p])
            if free(new):
                yield GscStep("prism", "edge", (a, b), new, "triangle")
    # prism glued along one of its matching edges
    for k in range(3):
        a, b = t1[k], t2[k]
        fa = tuple(x for x in t1 if x != a)
        fb = tuple(t2[t1.index(x)] for x in fa)
        if a > b:
            a, b, fa, fb = b, a, fb, fa
        new = fa + fb
        if free(new):
            yield GscStep("prism", "edge", (a, b), new, "matching")


def _live_prisms(adj: list, verts: Iterable[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Prisms (t1, t2) of the graph `adj` through a vertex of `verts`.

    A vertex x lies on a prism as one of its triangles {x, y, z} with one
    of its other neighbours as x's partner.  Each prism is keyed once: t1
    is the smaller of its triangles as a sorted triple, and t2 lists the
    matched images of t1's vertices, so the key fixes the prism's 9 edges.
    The peel passes vertices of degree 3: every prism move has a new vertex
    of degree 3, so the prisms through them are all that can be peeled.
    Ordered as the triangle pairs of the whole graph would be: t1 < t2 as
    sorted triples, then t2's matched order lexicographically.
    """
    found: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for x in verts:
        for y, z in combinations(sorted(adj[x]), 2):
            if z not in adj[y]:
                continue
            tri = (x, y, z)
            for xp in adj[x] - {y, z}:
                for yp in adj[y] & adj[xp]:
                    if yp in tri:
                        continue
                    for zp in adj[z] & adj[xp] & adj[yp]:
                        if zp in tri:
                            continue
                        partner = {x: xp, y: yp, z: zp, xp: x, yp: y, zp: z}
                        t1 = min(tuple(sorted(tri)), tuple(sorted((xp, yp, zp))))
                        found.add((t1, tuple(partner[v] for v in t1)))
    return sorted(found, key=lambda p: (p[0], sorted(p[1]), p[1]))


def _peel(g: Graph) -> Iterator[GscStep]:
    """Gluing moves peeled off g greedily, in peel order, until an edge is
    left or no move applies.

    Each step takes the smallest ear (a degree-2 vertex with adjacent
    neighbours) if there is one, else the first move of the first live
    prism that has one, and removes the move's new vertices from one live
    adjacency.  No move is ever retried, and none needs to be.  Let the move
    take piece P, an ear or a prism glued along an edge or a triangle K,
    and let H = G - (V(P) - K).  A stable set S holds at most one vertex
    of the clique K; P has no stable cut, so P - S is connected and meets
    K - S.  Hence S is a stable cut of G iff S n V(H) is one of H.  H is
    connected with 2|V(H)| - 3 edges, so by Le and Pfender's
    characterisation G is a member iff H is: any applicable move may be
    taken, and a peel that gets stuck above two vertices proves that g is
    not a member.

    The ears wait in a min-heap.  Edges are only removed, so a vertex whose
    degree falls to 2 with adjacent neighbours stays an ear until it loses
    a neighbour, and any other degree-2 vertex never becomes one.  A vertex
    is pushed when it becomes an ear, and an entry whose vertex is gone or
    has lost a neighbour is dropped when it reaches the top; each step
    costs O(log n) plus the removed vertices' degrees.
    """
    adj = [set(s) for s in g.adjacency]
    gone = [False] * g.n

    def is_ear(v: int) -> bool:
        a, b = adj[v]
        return b in adj[a]

    ears = [v for v in range(g.n) if len(adj[v]) == 2 and is_ear(v)]  # sorted, so a heap
    fresh3 = {v for v in range(g.n) if len(adj[v]) == 3}  # reached degree 3 since the last prism scan
    prisms: list = []  # heap of prism keys, in _live_prisms's order

    def first_prism_move() -> Optional[GscStep]:
        """The first move of the first live prism that has one.

        A vertex on a live prism has degree at least 3, and degrees only
        fall, so the live prisms through degree-3 vertices are the earlier
        ones that lost no vertex plus those through `fresh3`.  A prism's
        moves depend only on which of its vertices have degree 3, so one
        with none can leave the heap until a vertex of it reaches degree 3
        and a scan finds it again.
        """
        for t1, t2 in _live_prisms(adj, fresh3):
            heapq.heappush(prisms, (t1, tuple(sorted(t2)), t2))
        fresh3.clear()
        while prisms:
            t1, _, t2 = heapq.heappop(prisms)
            if not any(gone[x] for x in t1 + t2):
                move = next(_prism_moves(adj, t1, t2), None)
                if move is not None:
                    return move
        return None

    left = g.n
    while left > 2:
        while ears and (gone[ears[0]] or len(adj[ears[0]]) != 2):
            heapq.heappop(ears)
        if ears:
            w = heapq.heappop(ears)
            mv = GscStep("triangle", "edge", tuple(sorted(adj[w])), (w,))
        else:
            mv = first_prism_move()
            if mv is None:
                return
        for v in mv.new_vertices:
            gone[v] = True
            fresh3.discard(v)
            for u in adj[v]:
                adj[u].remove(v)
                d = len(adj[u])
                if d == 2 and is_ear(u):
                    heapq.heappush(ears, u)
                (fresh3.add if d == 3 else fresh3.discard)(u)
        left -= len(mv.new_vertices)
        yield mv


def gsc_decomposition(g: Graph) -> Optional[GscDecomposition]:
    """The gluing-family build script of g, or None when g is not a member.

    The greedy peel alone: no witness is searched for.  By Le and
    Pfender's characterisation a connected graph with m = 2n-3 has no
    stable cut exactly when it is a member.
    """
    if g.n < 2:
        raise PreconditionError("gluing-family recognition requires at least two vertices")
    if not is_connected(g):
        raise PreconditionError("gluing-family recognition requires a connected graph")
    if g.m != 2 * g.n - 3:
        return None
    steps = list(_peel(g))
    base = set(range(g.n)).difference(*(s.new_vertices for s in steps))
    if len(base) != 2:
        return None
    a, b = sorted(base)
    return GscDecomposition((a, b), tuple(reversed(steps)))


def recognize_gsc(g: Graph):
    """Decide membership in the triangle/prism gluing family.

    Returns a GscDecomposition on success, else GscNonMembership carrying a
    witness stable cut, which must exist when the edge count matches: the
    minimum one, from `stable_cut.exhaustive_stable_cut`, which raises
    PreconditionError past its state budget.
    Per-instance certification is by replaying the decomposition.
    """
    dec = gsc_decomposition(g)
    if dec is not None:
        return dec
    if g.m != 2 * g.n - 3:
        return GscNonMembership("edge count")
    from .stable_cut import exhaustive_stable_cut

    witness = exhaustive_stable_cut(g)
    if witness is None:
        raise RuntimeError("peel failed but no stable cut exists; recognizer is incomplete")
    return GscNonMembership("stable cut", witness.cut)


# ---------------------------------------------------------------------------
# 0-extension graphs


def recognize_0extension_graph(g: Graph) -> tuple[bool, Optional[int]]:
    """Is g buildable from an edge by 0-extensions; if so, the minimum number
    of open steps over all construction orders.  One O(n + m) pass removes
    degree-2 vertices in any order, counting a removal as open when the two
    live neighbours are not adjacent, until two vertices are left (a member)
    or no degree-2 vertex is (a non-member); each removal keeps m = 2n - 3.

    Lemma: if m = 2n - 3, n >= 3 and w has degree 2 with neighbours a, b,
    then g is a member iff g - w is, and minopen(g) = minopen(g - w) +
    [ab not an edge]; by induction every maximal order is exact.  Proof: w
    then a full order of g - w is a full order of g, so it remains to move w
    to the front of any full order of g.  A vertex is removed at
    degree 2 and degrees only fall, so if w is removed, a and b go after it
    and no earlier step sees w; the move keeps every step's neighbours and
    cost.  If ab is an edge and w stays in the final pair, with a say, b
    was removed with neighbours exactly {a, w}, and swapping b and w (an
    automorphism of that live graph) makes w removed at the same cost.  If
    ab is not an edge, w is not among the last three live vertices, which
    form a triangle, so w is removed, with neighbours a and b, at cost 1.
    """
    if g.m != 2 * g.n - 3:
        return (False, None)
    adj = [set(nbrs) for nbrs in g.adjacency]
    todo = [v for v in range(g.n) if len(adj[v]) == 2]
    live, opens = g.n, 0
    # a vertex reaches degree 2 at most once, so it is queued at most once
    while live > 2 and todo:
        w = todo.pop()
        if len(adj[w]) != 2:
            continue
        a, b = adj[w]
        opens += b not in adj[a]
        for x in (a, b):
            adj[x].discard(w)
            if len(adj[x]) == 2:
                todo.append(x)
        live -= 1
    return (True, opens) if live == 2 else (False, None)
