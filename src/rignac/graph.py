"""Immutable simple graphs with a canonical edge order, plus basic structure.

Vertices are dense integers 0..n-1.  The edge list is sorted lexicographically
with u < v in every pair; the position of an edge in that list is its edge
index, and every colouring bitmask, JSON report and decomposition in this
package refers to edges through those indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Optional, Sequence


class GraphParseError(ValueError):
    """Raised for malformed graph input (edge list or graph6)."""


class PreconditionError(ValueError):
    """Raised when an operation's documented precondition is violated."""


CANONICAL_FORM_MAX_VERTICES = 12
FRONTIER_BUDGET = 1 << 16  # states per level of `_frontier_run`


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with lex-sorted edge tuple."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        prev = None
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range or not u<v")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edge list not strictly increasing")
            prev = (u, v)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Normalize an edge iterable: orient pairs, sort, reject loops/duplicates."""
        norm = []
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            norm.append((u, v))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        return cls(n, tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components, ordered by smallest vertex; searched once."""
        return tuple(connected_components_without(self))

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edge_index

    def __repr__(self) -> str:  # compact, deterministic
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertices, compacted to 0..k-1.

    Returns the subgraph and the tuple of original vertex ids in the order
    they were relabelled (sorted ascending).
    """
    keep = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(keep)}
    kset = set(keep)
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in kset and v in kset]
    return Graph.from_edges(len(keep), edges), tuple(keep)


# ---------------------------------------------------------------------------
# parsing and emission


def parse_edge_list(text: str) -> tuple[Graph, list[str]]:
    """Parse 'u v' lines ('#' starts a comment).

    Labels that already form the dense integer range 0..n-1 are kept
    verbatim (so emission round-trips); any other label set is compacted to
    0..n-1 in order of first appearance.  Returns the graph and the label
    table (index -> original token).
    """
    tokens: list[str] = []  # both tokens of every edge line, in input order
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected two tokens, got {raw.split('#', 1)[0].strip()!r}")
        if parts[0] == parts[1]:
            raise GraphParseError(f"line {lineno}: loop at {parts[0]!r}")
        tokens += parts
    if not tokens:
        raise GraphParseError("empty edge list")
    order = dict.fromkeys(tokens)  # in order of first appearance
    try:
        ints = [int(tok) for tok in order]
    except ValueError:
        ints = None
    if ints is None or sorted(ints) != list(range(len(order))):
        ints = range(len(order))
    labels = dict(zip(order, ints))
    ends = [labels[tok] for tok in tokens]
    edges = [(u, v) if u < v else (v, u) for u, v in zip(ends[::2], ends[1::2])]
    edges.sort()
    if len(set(edges)) < len(edges):
        # distinct tokens get distinct labels, so the first token pair that
        # repeats in input order names the duplicate
        seen: set[frozenset[str]] = set()
        for lineno, raw in enumerate(text.splitlines(), 1):
            parts = raw.split("#", 1)[0].split()
            pair = frozenset(parts)
            if pair in seen:
                raise GraphParseError(f"line {lineno}: duplicate edge {parts[0]!r} {parts[1]!r}")
            if parts:
                seen.add(pair)
    return Graph(len(labels), tuple(edges)), sorted(labels, key=labels.__getitem__)


_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode a standard graph6 string (n <= 62)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise GraphParseError("empty graph6 string")
    n = ord(s[0]) - 63
    if n < 0 or n > 62:
        raise GraphParseError(f"unsupported graph6 vertex count byte {s[0]!r}")
    body = s[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphParseError(f"graph6 body length {len(body)}, expected {need} for n={n}")
    cert = 0  # the body as one integer, read as `certificate_graph6` writes it
    for ch in body:
        val = ord(ch) - 63
        if val < 0 or val > 63:
            raise GraphParseError(f"invalid graph6 character {ch!r}")
        cert = cert << 6 | val
    cert >>= 6 * need - nbits
    top = nbits - 1  # pair {q, p}, q < p, sits at bit top - p(p-1)/2 - q
    edges = ((q, p) for q in range(n) for p in range(q + 1, n) if cert >> top - p * (p - 1) // 2 - q & 1)
    return Graph(n, tuple(edges))


@cache
def _pair_shifts(n: int) -> tuple[tuple[int, ...], ...]:
    """shifts[p][q] for q < p: the bit of pair {q, p} in a graph6 certificate.

    graph6 lists the pairs column by column (p = 1..n-1, q = 0..p-1), first
    pair in the most significant bit.  Built once per n.
    """
    top = n * (n - 1) // 2 - 1
    return tuple(tuple(top - p * (p - 1) // 2 - q for q in range(p)) for p in range(n))


def certificate_graph6(n: int, cert: int) -> str:
    """The graph6 string of n vertices whose bit string, read as one integer, is cert.

    For equal n these strings compare as their certificates do.
    """
    nbits = n * (n - 1) // 2
    chunks = (nbits + 5) // 6
    cert <<= 6 * chunks - nbits
    return chr(n + 63) + "".join(chr((cert >> 6 * k & 63) + 63) for k in range(chunks - 1, -1, -1))


def emit_graph6(g: Graph) -> str:
    """Encode as a standard graph6 string (n <= 62), bit-exact."""
    if g.n > 62:
        raise ValueError("graph6 emission limited to 62 vertices")
    shifts = _pair_shifts(g.n)
    return certificate_graph6(g.n, sum(1 << shifts[v][u] for u, v in g.edges))


def emit_edge_list(g: Graph) -> str:
    return "\n".join(f"{u} {v}" for u, v in g.edges)


def is_edge_list_text(text: str) -> bool:
    """`parse_graph`'s format rule: some line, comments stripped, has a pair."""
    return any(len(raw.split("#", 1)[0].split()) >= 2 for raw in text.splitlines())


def parse_graph(text: str) -> Graph:
    """Parse either format; graph6 iff no line carries a whitespace-separated pair."""
    if is_edge_list_text(text):
        return parse_edge_list(text)[0]
    return _parse_graph6_text(text)


def _parse_graph6_text(text: str) -> Graph:
    """The graph of text's one graph6 line, `#` comments and blank lines stripped."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphParseError("empty input")
    if len(lines) != 1:
        raise GraphParseError(f"{len(lines)} lines where one graph6 string is expected")
    return parse_graph6(lines[0])


# ---------------------------------------------------------------------------
# connectivity and blocks


def connected_components_without(g: Graph, removed: Iterable[int] = ()) -> list[frozenset[int]]:
    """Connected components of g after deleting `removed`, in g's vertex ids,
    ordered by smallest vertex; ids outside 0..n-1 are ignored.

    The one component search of the package: a stack walk over
    `g.adjacency` with the deleted vertices marked seen in advance.
    """
    adj = g.adjacency
    seen = [False] * g.n
    for v in removed:
        if 0 <= v < g.n:
            seen[v] = True
    comps: list[frozenset[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            for y in adj[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return comps


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Vertex partition into connected components, ordered by smallest vertex."""
    return list(g.components)


def is_connected(g: Graph) -> bool:
    return len(g.components) <= 1


def blocks(g: Graph) -> list[frozenset[int]]:
    """Partition of the edge-index set into blocks (2-connected pieces and bridges).

    Rejects graphs with isolated vertices, which belong to no block.
    """
    for v in range(g.n):
        if not g.adjacency[v]:
            raise PreconditionError(f"isolated vertex {v} belongs to no block")
    adj, index = g.adjacency, g.edge_index
    disc = [-1] * g.n
    low = [0] * g.n
    pos = [0] * g.n  # index of the next neighbour to step through
    result: list[set[int]] = []
    estack: list[int] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        # iterative DFS: (vertex, parent edge index, neighbours)
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, tuple[int, ...]]] = [(root, -1, tuple(adj[root]))]
        while stack:
            v, pedge, ws = stack[-1]
            i = pos[v]
            if i < len(ws):
                w = ws[i]
                pos[v] = i + 1
                eidx = index[(v, w) if v < w else (w, v)]
                if eidx == pedge:
                    continue
                if disc[w] == -1:
                    estack.append(eidx)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eidx, tuple(adj[w])))
                elif disc[w] < disc[v]:  # back edge to an ancestor, seen once
                    estack.append(eidx)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        # u is a cut vertex (or root): pop one block
                        block: set[int] = set()
                        while True:
                            eidx = estack.pop()
                            block.add(eidx)
                            if eidx == pedge:
                                break
                        result.append(block)
    result.sort(key=min)
    return [frozenset(b) for b in result]


def _vertex_order(g: Graph) -> list[int]:
    """A greedy vertex order that keeps the frontier small.

    The frontier is the set of visited vertices with an unvisited
    neighbour.  The order starts at the first endpoint of edge 0, then
    repeatedly takes the unvisited vertex whose arrival grows the frontier
    least, ties going to more visited neighbours and then to the smaller
    index: the vertex-separation heuristic of frontier-based search
    (Kawahara, Inoue, Iwashita and Minato, IEICE Trans. Fundamentals 2017).
    A heap holds each vertex's key and gets a fresh entry whenever the key
    changes; stale entries are skipped, so the order costs O(m log m).
    """
    adj = g.adjacency
    unseen = [len(adj[v]) for v in range(g.n)]  # unvisited neighbours
    closing = [0] * g.n  # visited neighbours whose last unvisited neighbour v is
    visited = [False] * g.n
    order: list[int] = []

    def key(v: int) -> tuple[int, int, int]:
        return ((unseen[v] > 0) - closing[v], unseen[v] - len(adj[v]), v)

    def last_unvisited(w: int) -> int:
        return next(x for x in adj[w] if not visited[x])

    def visit(v: int) -> None:
        visited[v] = True
        order.append(v)
        changed = []
        for w in adj[v]:
            unseen[w] -= 1
            if not visited[w]:
                changed.append(w)
            elif unseen[w] == 1:
                changed.append(last_unvisited(w))
                closing[changed[-1]] += 1
        if unseen[v] == 1:
            changed.append(last_unvisited(v))
            closing[changed[-1]] += 1
        for w in changed:
            heappush(heap, key(w))

    heap = [key(v) for v in range(g.n)]
    heapify(heap)
    if g.m:
        visit(g.edges[0][0])
    while heap:
        entry = heappop(heap)
        v = entry[2]
        if not visited[v] and entry == key(v):
            visit(v)
    return order


def _frontier_run(levels: list[tuple], start: dict, merge: Callable, links: Optional[list] = None) -> tuple[dict, int]:
    """Run a frontier programme level by level: (the final states, the
    states expanded).  The generic driver of frontier-based search (Iwashita
    and Minato, TdZdd, Hokkaido Univ. TCS-TR-A-13-69, 2013).

    A level is (step, args, bits, adds, width).  `step(key, *args)` gives a
    state's children, one per entry of `bits`, None where rejected; it
    depends on nothing else.  `start` maps the start state to its value; a
    child takes its parent's value plus its entry of `adds`, or the value
    itself where `adds` is None, and equal children merge by `merge`:
    `operator.add` sums multiplicities, `min` keeps the least weight.  With
    a list `links` no values are kept: a state maps to its back-links, the
    ints 2 * parent + bit of the steps into it, parent indexing the states
    before the level, and each level appends its states' lists in order to
    `links`, the format `colouring._spell` reads.  Both modes reach the same
    states in the same order.  A level of more than FRONTIER_BUDGET states
    raises PreconditionError with the level and its frontier width `width`.

    Levels with one signature (step, args), as a programme that repeats one
    gadget lays out, share one transition table from a state's key to its
    children: the first of them fills it, and the later ones step only the
    keys it lacks.  A table is made only for a signature at two or more
    levels and dropped after its last, so a level with a signature of its
    own keeps nothing.  Every state still counts as expanded.
    """
    signatures = [(step, args) for step, args, *_ in levels]
    last = {signature: k for k, signature in enumerate(signatures)}
    tables: dict = {}
    states, expanded = start, 0
    for k, (step, args, bits, adds, width) in enumerate(levels):
        signature = signatures[k]
        table = tables.pop(signature, None) if last[signature] == k else tables.setdefault(signature, {})
        nxt: dict = {}
        for parent, (key, value) in enumerate(states.items()):
            children = None if table is None else table.get(key)
            if children is None:
                children = step(key, *args)
                if table is not None:
                    table[key] = children
            if links is None:
                for i, child in enumerate(children):
                    if child is not None:
                        here, old = value if adds is None else value + adds[i], nxt.get(child)
                        nxt[child] = here if old is None else merge(old, here)
            else:
                for child, bit in zip(children, bits):
                    if child is not None:
                        nxt.setdefault(child, []).append(2 * parent + bit)
        if links is not None:
            links.append(list(nxt.values()))
        if len(nxt) > FRONTIER_BUDGET:
            raise PreconditionError(
                f"the frontier programme passed its budget of {FRONTIER_BUDGET} states per level "
                f"at level {k + 1} of {len(levels)}, frontier width {width}"
            )
        expanded += len(states)
        states = nxt
    return states, expanded


# ---------------------------------------------------------------------------
# vertex-set predicates


def is_stable_set(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff no edge of g has both endpoints in the set."""
    s = set(vertices)
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return all(s.isdisjoint(g.adjacency[v]) for v in s)


# ---------------------------------------------------------------------------
# separations


@dataclass(frozen=True)
class Separation:
    """Edge bipartition {G1, G2} with both sides owning a private vertex."""

    edge_set1: frozenset[int]
    edge_set2: frozenset[int]

    def validate(self, g: Graph) -> None:
        if not self.edge_set1 or not self.edge_set2:
            raise ValueError("separation sides must be nonempty")
        if self.edge_set1 & self.edge_set2:
            raise ValueError("separation sides must be disjoint")
        if self.edge_set1 | self.edge_set2 != frozenset(range(g.m)):
            raise ValueError("separation must partition the edge set")
        v1, v2 = self.side_vertices(g)
        if not v1 - v2 or not v2 - v1:
            raise ValueError("each side must contain a vertex missing from the other")

    def side_vertices(self, g: Graph) -> tuple[frozenset[int], frozenset[int]]:
        v1 = frozenset(v for i in self.edge_set1 for v in g.edges[i])
        v2 = frozenset(v for i in self.edge_set2 for v in g.edges[i])
        return v1, v2

    def shared_vertices(self, g: Graph) -> frozenset[int]:
        v1, v2 = self.side_vertices(g)
        return v1 & v2

    def is_stable(self, g: Graph) -> bool:
        return is_stable_set(g, self.shared_vertices(g))


# ---------------------------------------------------------------------------
# canonical forms (small graphs)


def _refine(nbrs: Sequence[Iterable[int]], cells: list[list[int]], colours: list[int], first: int) -> list[list[int]]:
    """Refine the ordered partition ``cells`` (each colour's vertices, in
    colour order, each in vertex order) to an equitable one, renumbering
    ``colours[v]``, the index of v's cell, in place from cell ``first`` on.
    A pass splits each cell of two or more vertices in place, its parts in
    sorted-neighbour-colour order, as ranking every vertex's (colour, sorted
    neighbour colours) would; a pass that splits nothing, or a discrete
    partition, ends the refinement."""
    n = len(colours)
    while first >= 0:
        for c in range(first, len(cells)):
            for v in cells[c]:
                colours[v] = c
        if len(cells) == n:
            break
        out: list[list[int]] = []
        first = -1
        for cell in cells:
            if len(cell) == 2:
                a, b = cell
                sa, sb = sorted([colours[u] for u in nbrs[a]]), sorted([colours[u] for u in nbrs[b]])
                parts = [cell] if sa == sb else [[a], [b]] if sa < sb else [[b], [a]]
            elif len(cell) > 2:
                parts, last = [], None
                for sig, v in sorted([(sorted([colours[u] for u in nbrs[v]]), v) for v in cell]):
                    if sig == last:
                        parts[-1].append(v)
                    else:
                        parts.append([v])
                        last = sig
            else:
                out.append(cell)
                continue
            if first < 0 and len(parts) > 1:
                first = len(out)
            out += parts
        cells = out
    return cells


def canonical_search(nbrs: Sequence[Iterable[int]]) -> tuple[int, list[list[int]], list[int]]:
    """Canonical certificate of a graph, generators of its automorphism group
    and the canonical labelling.

    ``nbrs[v]`` holds the neighbours of vertex v.  The search works on an
    ordered partition: its cells in colour order, each a list of vertices in
    vertex order.  The root is the degree partition, cells in increasing
    degree: the cells that a refinement pass makes from one cell.  After each
    refinement (``_refine``) the search individualises, in vertex order, each
    vertex w of the first cell with more than one vertex, splitting that cell
    into [w] followed by the rest.  A leaf's certificate is the graph6 bit string
    of its labelling read as one integer, so the smallest certificate is the
    graph6 minimum.  A leaf whose certificate equals the first or the best
    leaf's gives an automorphism; a child is skipped when its vertex lies in
    the orbit of an explored sibling under the automorphisms found so far that
    fix the individualised prefix, because its subtree is an image of the
    sibling's with the same certificates (McKay and Piperno, J. Symb. Comput.
    2014).  The generators returned generate the whole automorphism group;
    each maps vertex v to ``gen[v]``.  The search recurses once per
    individualised vertex, so n <= 12.  The labelling is the best leaf's:
    vertex v is vertex ``labelling[v]`` of the graph whose graph6 bit string
    is the certificate.
    """
    n = len(nbrs)
    if n > CANONICAL_FORM_MAX_VERTICES:
        raise PreconditionError(
            f"canonical_form limited to {CANONICAL_FORM_MAX_VERTICES} vertices, got {n}"
        )
    shifts = _pair_shifts(n)
    gens: list[list[int]] = []
    first: tuple[int, list[int]] | None = None
    best: tuple[int, list[int]] | None = None

    def visit(cells: list[list[int]], colours: list[int], start: int, prefix: list[int]) -> None:
        nonlocal first, best
        cells = _refine(nbrs, cells, colours, start)
        if len(cells) == n:
            cert = 0
            for v, p in enumerate(colours):
                row = shifts[p]
                for w in nbrs[v]:
                    q = colours[w]
                    if q < p:
                        cert |= 1 << row[q]
            if first is None:
                first = best = (cert, colours)
                return
            ref = first if cert == first[0] else best if cert == best[0] else None
            if ref is not None:
                gens.append([cells[p][0] for p in ref[1]])
            elif cert < best[0]:
                best = (cert, colours)
            return
        t = next(c for c, cell in enumerate(cells) if len(cell) > 1)
        orbit = list(range(n))  # orbit labels under the generators fixing prefix
        used = 0
        explored: list[int] = []
        for w in cells[t]:
            if explored:
                for gen in gens[used:]:
                    if all(gen[p] == p for p in prefix):
                        for v in range(n):
                            a, b = orbit[v], orbit[gen[v]]
                            if a != b:
                                orbit = [a if o == b else o for o in orbit]
                used = len(gens)
                if any(orbit[w] == orbit[x] for x in explored):
                    continue
            explored.append(w)
            visit(cells[:t] + [[w], [u for u in cells[t] if u != w]] + cells[t + 1 :], colours[:], t + 1, prefix + [w])

    degrees = [len(nb) for nb in nbrs]
    visit([[v for v in range(n) if degrees[v] == d] for d in sorted(set(degrees))], [0] * n, 0, [])
    assert best is not None
    return best[0], gens, best[1]


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal iff isomorphic (n <= 12).

    The graph6 encoding of the canonical labelling found by
    ``canonical_search``, so it doubles as a catalog key.
    """
    cert = canonical_search(g.adjacency)[0]
    return certificate_graph6(g.n, cert).encode("ascii")
