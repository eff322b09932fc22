"""Independent oracles: definition-level recomputations that share no code
with the implementation paths they check."""

from __future__ import annotations

import bisect
import random
import signal
from contextlib import contextmanager
from itertools import combinations, permutations
from typing import Iterator

from rignac.graph import Graph, parse_graph6

RED = 1
BLUE = 0

_GFP = 2_147_483_647


# ---------------------------------------------------------------------------
# time limits


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once `seconds` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# connectivity


def _components_without(g: Graph, removed=()) -> list[set[int]]:
    """Connected components of g after deleting `removed`, ordered by
    smallest vertex: union-find over `g.edges`, not `rignac.graph`'s walk
    over the adjacency."""
    drop = set(removed)
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in g.edges:
        if a not in drop and b not in drop:
            parent[find(a)] = find(b)
    comps: dict[int, set[int]] = {}
    for w in range(g.n):
        if w not in drop:
            comps.setdefault(find(w), set()).add(w)
    return list(comps.values())


def is_cut(g: Graph, vertices) -> bool:
    """True iff deleting the set leaves two or more components."""
    removed = set(vertices)
    for v in removed:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return len(_components_without(g, removed)) >= 2


# ---------------------------------------------------------------------------
# graph edits and isomorphism


def add_edge(g: Graph, u: int, v: int) -> Graph:
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) already present")
    return Graph.from_edges(g.n, list(g.edges) + [(u, v)])


def remove_edge_index(g: Graph, i: int) -> Graph:
    return Graph(g.n, g.edges[:i] + g.edges[i + 1 :])


def contract_edge(g: Graph, e: int) -> tuple[Graph, int]:
    """Contract edge index e to a simple graph; returns (graph, merged vertex id).

    The merged vertex keeps the smaller endpoint's id; larger ids shift down.
    """
    if not 0 <= e < g.m:
        raise ValueError(f"edge index {e} out of range")
    u, v = g.edges[e]

    def relabel(w: int) -> int:
        if w == v:
            return u
        return w - 1 if w > v else w

    edges = set()
    for a, b in g.edges:
        x, y = relabel(a), relabel(b)
        if x != y:
            edges.add((min(x, y), max(x, y)))
    return Graph.from_edges(g.n - 1, sorted(edges)), u


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism by `rignac.graph.canonical_form` (n <= 12); see
    `brute_isomorphic` for a check that shares no code with it."""
    from rignac.graph import canonical_form

    return g.n == h.n and g.m == h.m and canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# colouring oracles


def all_simple_cycles(g: Graph) -> list[frozenset[int]]:
    """Every simple cycle as a frozenset of edge indices (small graphs only)."""
    cycles: set[frozenset[int]] = set()

    def dfs(start: int, v: int, visited: set[int], path: list[int]) -> None:
        for w in sorted(g.adjacency[v]):
            ei = g.edge_index[(min(v, w), max(v, w))]
            if w == start and len(path) >= 2:
                cycles.add(frozenset(path + [ei]))
            elif w not in visited and w > start:
                dfs(start, w, visited | {w}, path + [ei])

    for s in range(g.n):
        dfs(s, s, {s}, [])
    return sorted(cycles, key=sorted)


def brute_nnac_by_cycles(g: Graph) -> int:
    """Count NAC classes straight from the cycle condition over all 2^m masks."""
    cycles = all_simple_cycles(g)
    count = 0
    for mask in range(1, (1 << g.m) - 1):
        ok = True
        for cyc in cycles:
            red = sum(1 for e in cyc if mask >> e & 1)
            blue = len(cyc) - red
            if red == 1 or blue == 1:
                ok = False
                break
        if ok:
            count += 1
    assert count % 2 == 0
    return count // 2


def _components_of(g: Graph, edge_mask: int) -> list[int]:
    """Component id per vertex for the chosen edges, by BFS (no union-find)."""
    label = [-1] * g.n
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        if edge_mask >> i & 1:
            adj[u].append(v)
            adj[v].append(u)
    nxt = 0
    for s in range(g.n):
        if label[s] != -1:
            continue
        label[s] = nxt
        queue = [s]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if label[y] == -1:
                    label[y] = nxt
                    queue.append(y)
        nxt += 1
    return label


def brute_is_nac(g: Graph, mask: int) -> bool:
    full = (1 << g.m) - 1
    if mask == 0 or mask == full:
        return False
    red_label = _components_of(g, mask)
    for i, (u, v) in enumerate(g.edges):
        if not mask >> i & 1 and red_label[u] == red_label[v]:
            return False
    blue_label = _components_of(g, full ^ mask)
    for i, (u, v) in enumerate(g.edges):
        if mask >> i & 1 and blue_label[u] == blue_label[v]:
            return False
    return True


def brute_nnac(g: Graph) -> int:
    count = sum(1 for mask in range(1 << g.m) if brute_is_nac(g, mask))
    assert count % 2 == 0
    return count // 2


def brute_is_nap(g: Graph, mask: int) -> bool:
    """Direct definition scan: surjective, monochromatic triangles, no
    alternating path on three edges."""
    full = (1 << g.m) - 1
    if mask == 0 or mask == full:
        return False

    def colour(a: int, b: int) -> int:
        return mask >> g.edge_index[(min(a, b), max(a, b))] & 1

    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            if not colour(a, b) == colour(b, c) == colour(a, c):
                return False
    for b in range(g.n):
        for c in g.adjacency[b]:
            for a in g.adjacency[b]:
                if a == c:
                    continue
                for d in g.adjacency[c]:
                    if d == b or d == a:
                        continue
                    if colour(a, b) != colour(b, c) != colour(c, d):
                        return False
    return True


# ---------------------------------------------------------------------------
# rigidity oracles


def is_23_sparse(g: Graph, edge_subset: tuple[int, ...]) -> bool:
    for verts in range(1 << g.n):
        vs = {v for v in range(g.n) if verts >> v & 1}
        if len(vs) < 2:
            continue
        inside = sum(1 for i in edge_subset if g.edges[i][0] in vs and g.edges[i][1] in vs)
        if inside > 2 * len(vs) - 3:
            return False
    return True


def brute_max_sparse_subset(g: Graph) -> int:
    """Greedy matroid rank with exhaustive sparsity checks (m small)."""
    chosen: list[int] = []
    for i in range(g.m):
        if is_23_sparse(g, tuple(chosen + [i])):
            chosen.append(i)
    return len(chosen)


def _rank_gfp(rows: list[list[int]], p: int = _GFP) -> int:
    rows = [r[:] for r in rows]
    rank_ = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = pow(rows[pivot_row][col], p - 2, p)
        for r in range(pivot_row + 1, len(rows)):
            factor = rows[r][col] * inv % p
            if factor:
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank_ += 1
        if pivot_row == len(rows):
            break
    return rank_


def _rigidity_rows(g: Graph, s: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """A seeded placement over GF(p) and the rigidity matrix rows of g's edges."""
    rnd = random.Random((s << 16) | 0xACE5)
    pts = [(rnd.randrange(1, _GFP), rnd.randrange(1, _GFP)) for _ in range(g.n)]
    rows = []
    for u, v in g.edges:
        row = [0] * (2 * g.n)
        dx = (pts[u][0] - pts[v][0]) % _GFP
        dy = (pts[u][1] - pts[v][1]) % _GFP
        row[2 * u], row[2 * u + 1] = dx, dy
        row[2 * v], row[2 * v + 1] = (-dx) % _GFP, (-dy) % _GFP
        rows.append(row)
    return pts, rows


def generic_matrix_rank(g: Graph, seed: int = 0) -> int:
    """Rank of the generic distance-constraint matrix over a big prime field.

    Independent of the pebble game; two seeds are combined to suppress the
    (already tiny) chance of a degenerate random placement.
    """
    return max(_rank_gfp(_rigidity_rows(g, s)[1]) for s in (seed, seed + 1))


def _kernel_gfp(rows: list[list[int]], cols: int, p: int = _GFP) -> list[list[int]]:
    """A basis of {x : row . x = 0 for every row}, by reduced row echelon form."""
    rows = [r[:] for r in rows]
    pivots: list[int] = []
    for col in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [a * inv % p for a in rows[r]]
        for i in range(len(rows)):
            factor = rows[i][col] if i != r else 0
            if factor:
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        x = [0] * cols
        x[free] = 1
        for i, col in enumerate(pivots):
            x[col] = -rows[i][free] % p
        basis.append(x)
    return basis


def generic_related_pairs(g: Graph, seed: int = 0) -> set[tuple[int, int]]:
    """Pairs u < v such that adding the edge uv does not raise generic_matrix_rank.

    Edges of g qualify trivially.  The row of uv lies in the row space of
    the rigidity matrix iff it is orthogonal to every infinitesimal motion
    (the matrix's kernel), so one kernel basis decides every pair.  Of the
    two placements generic_matrix_rank tries, the one of higher rank is used.
    """
    best = None
    for s in (seed, seed + 1):
        pts, rows = _rigidity_rows(g, s)
        kernel = _kernel_gfp(rows, 2 * g.n)
        if best is None or len(kernel) < len(best[1]):
            best = pts, kernel
    pts, kernel = best
    related = set()
    for u, v in combinations(range(g.n), 2):
        dx = pts[u][0] - pts[v][0]
        dy = pts[u][1] - pts[v][1]
        if all((dx * (k[2 * u] - k[2 * v]) + dy * (k[2 * u + 1] - k[2 * v + 1])) % _GFP == 0 for k in kernel):
            related.add((u, v))
    return related


def brute_rigid_components(g: Graph) -> set[frozenset[int]]:
    """Maximal vertex sets inducing subgraphs of full generic rank."""
    rigid_sets = []
    for k in range(2, g.n + 1):
        for vs in combinations(range(g.n), k):
            sub_edges = [e for e in g.edges if e[0] in vs and e[1] in vs]
            if not sub_edges:
                continue
            pos = {v: i for i, v in enumerate(vs)}
            sub = Graph.from_edges(k, [(pos[u], pos[v]) for u, v in sub_edges])
            if generic_matrix_rank(sub) == 2 * k - 3:
                rigid_sets.append(frozenset(vs))
    maximal = {
        s for s in rigid_sets if not any(s < t for t in rigid_sets)
    }
    return maximal


def index_order_game(g: Graph):
    """The finished pebble game after offering g's edges in index order,
    each as (smaller end, larger end): `rigidity.pebble_game` without its
    minimum-degree peel order."""
    from rignac.rigidity import PebbleState

    state = PebbleState(g.n)
    for u, v in g.edges:
        state.try_accept(u, v)
    return state


def slow_rigid_components(g: Graph) -> tuple[frozenset[int], ...]:
    """`rigidity.rigid_components` with each component found by one search
    of the whole finished game: gather three pebbles on an uncovered edge,
    rebuild the reverse adjacency, and mark every vertex that reaches
    another free pebble by a search backwards from all of them."""
    from rignac.rigidity import pebble_game

    state = pebble_game(g)
    comps: list[frozenset[int]] = []
    for u, v in g.edges:
        if any(u in c and v in c for c in comps):
            continue
        state._collect(u, v)
        into: list[list[int]] = [[] for _ in range(g.n)]
        for x, heads in enumerate(state.out):
            for y in heads:
                into[y].append(x)
        floppy = [x != u and x != v and state.pebbles[x] > 0 for x in range(g.n)]
        stack = [x for x in range(g.n) if floppy[x]]
        while stack:
            for x in into[stack.pop()]:
                if not floppy[x]:
                    floppy[x] = True
                    stack.append(x)
        comps.append(frozenset(x for x in range(g.n) if not floppy[x]))
    return tuple(comps)


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    hedges = set(h.edges)
    for perm in permutations(range(g.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in hedges for u, v in g.edges):
            return True
    return False


def _slow_graph6(g: Graph, order: list[int]) -> bytes:
    """graph6 bytes of g relabelled so that order[i] becomes vertex i, bit by bit."""
    pos = {v: i for i, v in enumerate(order)}
    edges = {(min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in g.edges}
    bits = [1 if (i, j) in edges else 0 for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [g.n + 63]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(val + 63)
    return bytes(out)


def slow_canonical_form(g: Graph) -> bytes:
    """The canonical form by the unpruned individualisation search.

    Refinement runs until a pass changes no colour; every leaf of the search
    tree is relabelled and encoded, and the smallest graph6 string wins.
    Exponential on symmetric graphs, so only for small inputs.
    """
    adj = g.adjacency

    def refine(colours: list[int]) -> list[int]:
        while True:
            sigs = [(colours[v], tuple(sorted(colours[u] for u in adj[v]))) for v in range(g.n)]
            rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [rank[s] for s in sigs]
            if new == colours:
                return colours
            colours = new

    best: list[bytes] = []

    def search(colours: list[int]) -> None:
        colours = refine(colours)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colours):
            cells.setdefault(c, []).append(v)
        target = min((c for c in cells if len(cells[c]) > 1), default=None)
        if target is None:
            form = _slow_graph6(g, sorted(range(g.n), key=colours.__getitem__))
            if not best or form < best[0]:
                best[:] = [form]
            return
        for v in cells[target]:
            search([c * 2 + (0 if u == v else 1) for u, c in enumerate(colours)])

    search([0] * g.n)
    return best[0]


def signature_refine(nbrs, colours: list[int], cells: int) -> tuple[list[int], int]:
    """Colour refinement to an equitable partition.

    Each pass ranks the signatures (colour, sorted neighbour colours); the
    first pass that leaves the number of cells (``cells`` on entry) unchanged,
    or makes every cell a single vertex, ends the refinement.  A discrete
    partition is already equitable: a further pass would rank the signatures
    by their distinct first entries and return the same colours.  Returns
    that pass's colours 0..k-1 and k.
    """
    n = len(colours)
    while True:
        sigs = [(c, tuple(sorted([colours[u] for u in nb]))) for c, nb in zip(colours, nbrs)]
        distinct = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(distinct)}
        colours = [rank[s] for s in sigs]
        if len(distinct) == cells or len(distinct) == n:
            return colours, len(distinct)
        cells = len(distinct)


def signature_canonical_search(nbrs, zero_root: bool = False) -> tuple[int, list[list[int]], list[int]]:
    """`rignac.graph.canonical_search` on colour vectors: every refinement
    pass re-ranks every vertex (`signature_refine`), and individualising w
    recolours each vertex u of colour c as 2c + (u != w).  The root is the
    degree partition or, with ``zero_root``, one cell with all colours zero,
    so the first refinement pass finds the degree partition.  The same pruned
    search otherwise (certificate, generators, labelling)."""
    from rignac.graph import _pair_shifts

    n = len(nbrs)
    shifts = _pair_shifts(n)
    gens: list[list[int]] = []
    first = best = None

    def visit(colours: list[int], cells: int, prefix: list[int]) -> None:
        nonlocal first, best
        colours, cells = signature_refine(nbrs, colours, cells)
        if cells == n:
            cert = sum(1 << shifts[p][colours[w]] for v, p in enumerate(colours) for w in nbrs[v] if colours[w] < p)
            if first is None:
                first = best = (cert, colours)
                return
            ref = first if cert == first[0] else best if cert == best[0] else None
            if ref is not None:
                at = [0] * n
                for v, p in enumerate(colours):
                    at[p] = v
                gens.append([at[p] for p in ref[1]])
            elif cert < best[0]:
                best = (cert, colours)
            return
        target = min(c for c in set(colours) if colours.count(c) > 1)
        orbit = list(range(n))
        used = 0
        explored: list[int] = []
        for w in [v for v in range(n) if colours[v] == target]:
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
            visit([2 * c + (u != w) for u, c in enumerate(colours)], cells + 1, prefix + [w])

    if zero_root:
        visit([0] * n, 1, [])
    else:
        degrees = [len(nb) for nb in nbrs]
        rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
        visit([rank[d] for d in degrees], len(rank), [])
    return best[0], gens, best[1]


def henneberg_extensions(g: Graph) -> list[Graph]:
    """Every 0-extension (new vertex n on a vertex pair) and 1-extension
    (edge xy replaced by new vertex n on x, y and a third vertex z) of g."""
    n = g.n
    children = [list(g.edges) + [(u, n), (v, n)] for u, v in combinations(range(n), 2)]
    for i, (x, y) in enumerate(g.edges):
        kept = list(g.edges[:i] + g.edges[i + 1 :])
        children += [kept + [(x, n), (y, n), (z, n)] for z in range(n) if z not in (x, y)]
    return [Graph.from_edges(n + 1, es) for es in children]


def slow_henneberg_children(g: Graph) -> set[str]:
    """Keys of every Henneberg extension of g, each put through slow_canonical_form."""
    return {slow_canonical_form(h).decode("ascii") for h in henneberg_extensions(g)}


def relabelled(g: Graph, rnd: random.Random) -> Graph:
    """g with its vertices permuted at random."""
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def remove_vertices(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """g with `vertices` deleted and the rest relabelled 0..k-1 in order;
    returns the graph and the kept original ids."""
    drop = set(vertices)
    keep = tuple(v for v in range(g.n) if v not in drop)
    pos = {v: i for i, v in enumerate(keep)}
    return Graph.from_edges(len(keep), [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]), keep


def slow_minimally_rigid_graph6(n: int) -> list[str]:
    """Sorted canonical keys of the minimally rigid classes on n vertices,
    grown from the triangle with slow_henneberg_children (n <= 8)."""
    level = {slow_canonical_form(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])).decode("ascii")}
    for _ in range(3, n):
        level = set().union(*(slow_henneberg_children(parse_graph6(k)) for k in level))
    return sorted(level)


def brute_is_biconnected(g: Graph) -> bool:
    if g.n < 3 or len(_components_without(g)) > 1:
        return False
    return all(len(_components_without(g, [v])) == 1 for v in range(g.n))


# ---------------------------------------------------------------------------
# stable cut oracles


def iter_brute_stable_cuts(g: Graph) -> Iterator[frozenset[int]]:
    """Every stable cut of g, smallest first, then lexicographically."""
    for k in range(0, g.n - 1):
        for cand in combinations(range(g.n), k):
            s = frozenset(cand)
            if not any(a in s and b in s for a, b in g.edges) and len(_components_without(g, s)) >= 2:
                yield s


def brute_stable_cuts(g: Graph) -> list[frozenset[int]]:
    return list(iter_brute_stable_cuts(g))


def scan_stable_cut(g: Graph, separate=None, avoid=None) -> frozenset[int] | None:
    """The first stable cut, smallest first and then lexicographically, that
    leaves `separate` = (u, v) in different components (neither in the cut)
    and does not hold `avoid`: a scan over vertex subsets."""
    for s in iter_brute_stable_cuts(g):
        if avoid in s:
            continue
        if separate is not None:
            u, v = separate
            if u in s or v in s or not any(u in c and v not in c for c in _components_without(g, s)):
                continue
        return s
    return None


def _fan_contraction(n: int, comps, keep: int, removed: int) -> Graph:
    """The component-completed graph with vertex `removed` merged into `keep`,
    relabelled as `contract_edge` does, each component image a fan on all
    of its vertices."""
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


def slow_alg1(n: int, comps, u: int, v: int, stats: dict) -> frozenset[int]:
    """The contraction loop of `stable_cut._alg1`, with each contraction's
    rigid components found by a full pebble game on all of its vertices."""
    from rignac.rigidity import pebble_game, rigid_components

    removals: list[int] = []
    while True:
        stats["calls"] += 1
        member: list[set[int]] = [set() for _ in range(n)]
        for i, comp in enumerate(comps):
            for w in comp:
                member[w].add(i)
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
            contracted = _fan_contraction(n, comps, keep, removed)
            state = pebble_game(contracted)
            stats["pair_probes"] += state.searches
            comps2 = rigid_components(contracted, state)
            v2 = v - 1 if v > removed else v
            if not any(keep in comp and v2 in comp for comp in comps2):
                break
        else:
            raise RuntimeError("neither contraction separates; flexibility invariant broken")
        removals.append(removed)
        n, comps, u, v = n - 1, comps2, keep, v2
    for removed in reversed(removals):
        cut = frozenset(w + 1 if w >= removed else w for w in cut)
    return cut


# ---------------------------------------------------------------------------
# gluing-family oracle


def slow_two_tree_peel(g: Graph) -> list[int] | None:
    """Peel order certifying g is a 2-tree, or None: remove the smallest
    degree-2 vertex with adjacent neighbours, rescanning every vertex after
    each removal, until an edge is left."""
    if g.n < 2:
        return None
    adj = [set(s) for s in g.adjacency]
    alive = set(range(g.n))
    order: list[int] = []
    while len(alive) > 2:
        pick = -1
        for v in sorted(alive):
            if len(adj[v]) == 2:
                a, b = adj[v]
                if b in adj[a]:
                    pick = v
                    break
        if pick < 0:
            return None
        for w in adj[pick]:
            adj[w].discard(pick)
        adj[pick].clear()
        alive.discard(pick)
        order.append(pick)
    a, b = sorted(alive)
    return order if b in adj[a] else None


def _slow_prism_moves(adj: list[set[int]], t1: tuple[int, ...], t2: tuple[int, ...]) -> list:
    """Every move that peels prism (t1, t2) off, vertex k of t1 matched to
    vertex k of t2, whose new vertices all have live degree 3."""
    from rignac.rigidity import GscStep

    def free(vs: tuple[int, ...]) -> bool:
        return all(len(adj[x]) == 3 for x in vs)

    out = []
    for face, kept in ((t1, t2), (t2, t1)):
        if free(face):
            kt = tuple(sorted(kept))
            order = {kept[k]: face[k] for k in range(3)}
            out.append(GscStep("prism", "triangle", kt, tuple(order[x] for x in kt)))
    for face, other in ((t1, t2), (t2, t1)):
        partner = dict(zip(face, other))
        for i, j in ((0, 1), (1, 2), (0, 2)):
            a, b = sorted((face[i], face[j]))
            (p,) = set(face) - {a, b}
            new = (p, partner[a], partner[b], partner[p])
            if free(new):
                out.append(GscStep("prism", "edge", (a, b), new, "triangle"))
    for k in range(3):
        a, b = t1[k], t2[k]
        fa = tuple(x for x in t1 if x != a)
        fb = tuple(t2[t1.index(x)] for x in fa)
        if a > b:
            a, b, fa, fb = b, a, fb, fa
        if free(fa + fb):
            out.append(GscStep("prism", "edge", (a, b), fa + fb, "matching"))
    return out


def _slow_live_prisms(adj: list[set[int]]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every prism of the live graph, keyed by its smaller triangle t1 as a
    sorted triple and t2 as t1's matched images, in the order (t1, sorted
    t2, t2)."""
    found = set()
    for x in range(len(adj)):
        for y, z in combinations(sorted(adj[x]), 2):
            if z not in adj[y]:
                continue
            tri = (x, y, z)
            for xp in adj[x] - {y, z}:
                for yp in adj[y] & adj[xp]:
                    for zp in adj[z] & adj[xp] & adj[yp]:
                        if yp in tri or zp in tri:
                            continue
                        partner = {x: xp, y: yp, z: zp, xp: x, yp: y, zp: z}
                        t1 = min(tuple(sorted(tri)), tuple(sorted((xp, yp, zp))))
                        found.add((t1, tuple(partner[v] for v in t1)))
    return sorted(found, key=lambda p: (p[0], sorted(p[1]), p[1]))


def slow_peel(g: Graph) -> list:
    """The gluing-family peel's steps, rescanning the whole live graph at
    each step: the smallest degree-2 vertex with adjacent neighbours, else
    the first move of the first live prism (in `_slow_live_prisms`'s order)
    that has one; stop when two vertices are left or nothing applies."""
    from rignac.rigidity import GscStep

    adj = [set(s) for s in g.adjacency]
    left = g.n
    steps = []
    while left > 2:
        w = next((w for w in range(g.n) if len(adj[w]) == 2 and min(adj[w]) in adj[max(adj[w])]), None)
        if w is not None:
            mv = GscStep("triangle", "edge", tuple(sorted(adj[w])), (w,))
        else:
            moves = [mv for t1, t2 in _slow_live_prisms(adj) for mv in _slow_prism_moves(adj, t1, t2)]
            if not moves:
                break
            mv = moves[0]
        for v in mv.new_vertices:
            for u in adj[v]:
                adj[u].discard(v)
            adj[v] = set()
        left -= len(mv.new_vertices)
        steps.append(mv)
    return steps



def _live_triangles(adj: list[frozenset[int]], verts: set[int]) -> list[tuple[int, int, int]]:
    return [
        (a, b, c)
        for a in sorted(verts)
        for b in sorted(adj[a])
        if b > a
        for c in sorted(adj[a] & adj[b])
        if c > b
    ]


def _all_prisms(adj: list[frozenset[int]], verts: set[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every triangle pair t1 < t2 with a matching, vertex k of t1 to perm[k]."""
    tris = _live_triangles(adj, verts)
    out = []
    for i, t1 in enumerate(tris):
        for t2 in tris[i + 1 :]:
            if set(t1) & set(t2):
                continue
            for perm in permutations(t2):
                if all(perm[k] in adj[t1[k]] for k in range(3)):
                    out.append((t1, perm))
    return out


def _prism_step_coloured_edges(step) -> tuple[list[tuple[int, int]], list[tuple[int, int]], int]:
    """(blue edges, red edges, glue-site colour, 1 for red) of a prism
    gluing step, from its own table of the three prism layouts.

    Both prism triangles are blue and the matching is red; the glue site's
    colour follows from where it sits in the prism.
    """

    def e(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    if step.glue_type == "triangle":
        a, b, c = step.glue_at
        p, q, r = step.new_vertices
        blue = [e(a, b), e(b, c), e(a, c), e(p, q), e(q, r), e(p, r)]
        return blue, [e(a, p), e(b, q), e(c, r)], 0
    a, b = step.glue_at
    if step.layout == "matching":
        x, y, xx, yy = step.new_vertices
        blue = [e(a, x), e(a, y), e(x, y), e(b, xx), e(b, yy), e(xx, yy)]
        return blue, [e(a, b), e(x, xx), e(y, yy)], 1
    p, q, r, t = step.new_vertices
    blue = [e(a, b), e(a, p), e(b, p), e(q, r), e(r, t), e(q, t)]
    return blue, [e(a, q), e(b, r), e(p, t)], 0


def slow_colouring_from_decomposition(g: Graph, dec) -> int:
    """The red-edge mask of a gluing-family member's NAC-colouring, by
    replaying its build script step by step (quadratic).

    A triangle gluing copies its glue edge's colour; a prism gluing
    repaints the whole graph built so far in its glue site's colour and
    adds its own two-triangles-blue, matching-red pattern.
    """
    colour: dict[tuple[int, int], int] = {}
    painted = False
    present: set[tuple[int, int]] = {tuple(sorted(dec.base_vertices))}
    for step in dec.steps:
        if step.piece == "triangle":
            a, b = step.glue_at
            (w,) = step.new_vertices
            new = [tuple(sorted((a, w))), tuple(sorted((b, w)))]
            if painted:
                for edge in new:
                    colour[edge] = colour[(a, b)]
            present.update(new)
        else:
            blue, red, glue_colour = _prism_step_coloured_edges(step)
            for edge in present:
                colour[edge] = glue_colour
            colour.update(dict.fromkeys(blue, 0))
            colour.update(dict.fromkeys(red, 1))
            present.update(blue + red)
            painted = True
    if not painted:
        raise RuntimeError("decomposition has no prism step; graph is a 2-tree")
    return sum(1 << g.edge_index[edge] for edge, col in colour.items() if col)


def slow_count_prism_subgraphs(g: Graph) -> int:
    """Distinct 3-prism subgraphs of g: every triangle pair with a matching,
    deduplicated by its 9-edge set."""
    seen = set()
    for t1, t2 in _all_prisms(list(g.adjacency), set(range(g.n))):
        edges = set()
        for k in range(3):
            for a, b in ((t1[k], t1[k - 1]), (t2[k], t2[k - 1]), (t1[k], t2[k])):
                edges.add((min(a, b), max(a, b)))
        seen.add(frozenset(edges))
    return len(seen)


def slow_gsc_decomposition(g: Graph) -> dict | None:
    """The gluing-family peel by plain recursion over vertex subsets, no memo.

    Rebuilds the live graph, every triangle and every prism at each level
    and tries all moves in a fixed order: triangle moves by ascending vertex,
    then prism moves by triangle pair.  Returns the first build script found
    in the JSON shape of `GscDecomposition.to_json()`, or None.  Exponential
    on non-members; small graphs only.
    """
    if g.m != 2 * g.n - 3:
        return None

    def search(verts: set[int]) -> list[dict] | None:
        if len(verts) == 2:
            return []
        adj = [g.adjacency[v] & frozenset(verts) if v in verts else frozenset() for v in range(g.n)]

        def free(vs) -> bool:
            return all(len(adj[x]) == 3 for x in vs)

        def step(piece, glue_type, at, new, layout=None) -> dict:
            item = {"piece": piece, "glue": {"type": glue_type, "at": list(at)}, "new": list(new)}
            if layout is not None:
                item["layout"] = layout
            return item

        moves = []
        for w in sorted(verts):
            if len(adj[w]) == 2:
                a, b = sorted(adj[w])
                if b in adj[a]:
                    moves.append(step("triangle", "edge", (a, b), (w,)))
        for t1, t2 in _all_prisms(adj, verts):
            for face, kept in ((t1, t2), (t2, t1)):
                if free(face):
                    kt = sorted(kept)
                    order = {kept[k]: face[k] for k in range(3)}
                    moves.append(step("prism", "triangle", kt, [order[x] for x in kt]))
            for face, other in ((t1, t2), (t2, t1)):
                partner = {face[k]: other[k] for k in range(3)}
                for i, j in ((0, 1), (1, 2), (0, 2)):
                    a, b = sorted((face[i], face[j]))
                    (p,) = set(face) - {a, b}
                    new = (p, partner[a], partner[b], partner[p])
                    if free(new):
                        moves.append(step("prism", "edge", (a, b), new, "triangle"))
            for k in range(3):
                a, b = t1[k], t2[k]
                fa = [x for x in t1 if x != a]
                fb = [t2[t1.index(x)] for x in fa]
                if a > b:
                    a, b, fa, fb = b, a, fb, fa
                if free(fa + fb):
                    moves.append(step("prism", "edge", (a, b), fa + fb, "matching"))
        seen = set()
        for mv in moves:
            key = (mv["piece"], mv["glue"]["type"], tuple(mv["glue"]["at"]), tuple(sorted(mv["new"])), mv.get("layout"))
            if key in seen:
                continue
            seen.add(key)
            sub = search(verts - set(mv["new"]))
            if sub is not None:
                return sub + [mv]
        return None

    steps = search(set(range(g.n)))
    if steps is None:
        return None
    base = set(range(g.n)) - {w for s in steps for w in s["new"]}
    return {
        "base": "K2",
        "base_vertices": sorted(base),
        "steps": steps,
        "prisms": sum(1 for s in steps if s["piece"] == "prism"),
    }


class PartialNacState:
    """Two union-find forests (red and blue components) with trail-based undo.

    Union by size, iterative find, no path compression, so a rollback
    restores the exact prior forest.  Per colour and per component root a
    list of other-coloured edge indices incident to that component is kept;
    it is what makes the almost-monochromatic-cycle test O(small) under
    unions.  Component counts never reach the component count of the graph
    itself (that would force a monochromatic spanning forest); equality
    triggers rejection.
    """

    __slots__ = ("g", "base", "parent", "size", "cross", "counts", "colours", "trail")

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.base = len(_components_without(g))
        self.parent = (list(range(g.n)), list(range(g.n)))
        self.size = ([1] * g.n, [1] * g.n)
        self.cross: tuple[list[list[int]], list[list[int]]] = (
            [[] for _ in range(g.n)],
            [[] for _ in range(g.n)],
        )
        self.counts = [g.n, g.n]
        self.colours = [-1] * g.m
        self.trail: list[tuple] = []

    def find(self, colour: int, x: int) -> int:
        p = self.parent[colour]
        while p[x] != x:
            x = p[x]
        return x

    def red_component_count(self) -> int:
        return self.counts[RED]

    def blue_component_count(self) -> int:
        return self.counts[BLUE]

    def try_colour(self, i: int, red: bool) -> bool:
        """Colour edge i; reject (committing nothing) if an invariant breaks."""
        mine = RED if red else BLUE
        other = 1 - mine
        u, v = self.g.edges[i]
        ou, ov = self.find(other, u), self.find(other, v)
        if ou == ov:
            return False  # almost cycle in the other colour through edge i
        mu, mv = self.find(mine, u), self.find(mine, v)
        union_rec = None
        if mu != mv:
            la, lb = self.cross[mine][mu], self.cross[mine][mv]
            scan = la if len(la) <= len(lb) else lb
            for j in scan:
                a, b = self.g.edges[j]
                ra, rb = self.find(mine, a), self.find(mine, b)
                if (ra == mu and rb == mv) or (ra == mv and rb == mu):
                    return False  # merging would trap an other-coloured edge
            if self.counts[mine] - 1 == self.base:
                return False  # monochromatic spanning forest
            if self.size[mine][mu] < self.size[mine][mv]:
                mu, mv = mv, mu
            self.parent[mine][mv] = mu
            self.size[mine][mu] += self.size[mine][mv]
            old_len = len(self.cross[mine][mu])
            self.cross[mine][mu].extend(self.cross[mine][mv])
            self.counts[mine] -= 1
            union_rec = (mine, mu, mv, old_len)
        self.cross[other][ou].append(i)
        self.cross[other][ov].append(i)
        self.colours[i] = mine
        self.trail.append((i, other, ou, ov, union_rec))
        return True

    def undo_last(self) -> None:
        i, other, ou, ov, union_rec = self.trail.pop()
        self.colours[i] = -1
        self.cross[other][ov].pop()
        self.cross[other][ou].pop()
        if union_rec is not None:
            colour, win, lose, old_len = union_rec
            del self.cross[colour][win][old_len:]
            self.size[colour][win] -= self.size[colour][lose]
            self.parent[colour][lose] = lose
            self.counts[colour] += 1

    def checkpoint(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        while len(self.trail) > mark:
            self.undo_last()

    def mask(self) -> int:
        out = 0
        for i, c in enumerate(self.colours):
            if c == RED:
                out |= 1 << i
        return out


def dfs_nac_masks(g: Graph, first_only: bool = False) -> tuple[list[int], int]:
    """(red-edge masks of the NAC-colourings with edge 0 blue, search nodes),
    by the edge-by-edge search over edge indices that tries red first.

    The slow path of the frontier programme: it shares no code with it, and
    its emission order is the order `nac list` prints.
    """
    m = g.m
    state = PartialNacState(g)
    masks: list[int] = []
    nodes = 0
    tried = [0] * (m + 1)  # per depth: bit 1 red tried, bit 2 blue tried
    marks = [0] * (m + 1)
    d = 0
    while d >= 0:
        if d == m:
            masks.append(state.mask())
            if first_only:
                break
            d -= 1
            continue
        t = tried[d]
        if d == 0:  # edge 0 is pinned blue
            nxt = BLUE if not t & 2 else None
        elif not t & 1:
            nxt = RED
        elif not t & 2:
            nxt = BLUE
        else:
            nxt = None
        if nxt is None:
            state.rollback(marks[d])
            d -= 1
            continue
        tried[d] = t | (2 if nxt == BLUE else 1)
        state.rollback(marks[d])
        nodes += 1
        if state.try_colour(d, nxt == RED):
            d += 1
            tried[d] = 0
            marks[d] = state.checkpoint()
    return masks, nodes


def slow_0extension(g: Graph) -> tuple[bool, int | None]:
    """Recursive memoised 0-extension search: (buildable, min open steps).

    Recurses once per removed vertex, so only for small graphs.
    """
    if g.n < 2:
        return (False, None)
    if g.n == 2:
        return (g.m == 1, 0 if g.m == 1 else None)
    if g.m != 2 * g.n - 3 or len(_components_without(g)) > 1:
        return (False, None)
    memo: dict[frozenset[int], int | None] = {}

    def search(verts: frozenset[int]) -> int | None:
        if len(verts) == 2:
            return 0
        if verts not in memo:
            best = None
            for w in verts:
                nbrs = g.adjacency[w] & verts
                if len(nbrs) == 2:
                    a, b = nbrs
                    sub = search(verts - {w})
                    if sub is not None:
                        cost = (0 if g.has_edge(a, b) else 1) + sub
                        best = cost if best is None else min(best, cost)
            memo[verts] = best
        return memo[verts]

    result = search(frozenset(range(g.n)))
    return (result is not None, result)


# ---------------------------------------------------------------------------
# corpora


def random_graph(rnd: random.Random, n: int, m: int) -> Graph:
    """Any simple graph: may be disconnected or have isolated vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, rnd.sample(pairs, min(m, len(pairs))))


def random_connected_graph(rnd: random.Random, n: int, m: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    m = min(m, len(pairs))
    while True:
        g = Graph.from_edges(n, rnd.sample(pairs, m))
        if len(_components_without(g)) <= 1:
            return g


def random_flexible_connected(seed: int, count: int, n_lo: int = 4, n_hi: int = 12) -> list[Graph]:
    from rignac.rigidity import rigidity_report

    rnd = random.Random(seed)
    out: list[Graph] = []
    while len(out) < count:
        n = rnd.randrange(n_lo, n_hi + 1)
        m = rnd.randrange(n - 1, min(2 * n - 3, n * (n - 1) // 2) + 1)
        g = random_connected_graph(rnd, n, m)
        if rigidity_report(g).is_flexible:
            out.append(g)
    return out


def random_laman_edges(rnd: random.Random, vertices: list[int]) -> set[tuple[int, int]]:
    """A minimally rigid graph on `vertices` by Henneberg steps: a triangle,
    then 0-extensions and 1-extensions."""
    a, b, c = sorted(vertices[:3])
    edges = [(a, b), (a, c), (b, c)]  # kept sorted
    pos = {v: i for i, v in enumerate(vertices)}
    for i in range(3, len(vertices)):
        w = vertices[i]
        if rnd.random() < 0.5:
            ends = rnd.sample(vertices[:i], 2)
        else:
            # choices by index, drawn as rnd.choice draws from the sorted
            # edges and from the earlier vertices other than x and y
            x, y = edges.pop(rnd.choice(range(len(edges))))
            j = rnd.choice(range(i - 2))
            for p in sorted((pos[x], pos[y])):
                j += j >= p
            ends = [x, y, vertices[j]]
        for t in ends:
            bisect.insort(edges, (min(t, w), max(t, w)))
    return set(edges)


def random_two_body(rnd: random.Random, n: int) -> Graph:
    """Two minimally rigid bodies joined by two disjoint bars (m = 2n - 4).

    Its rigid components are exactly the two bodies and the two bars.
    """
    half = n // 2
    edges = random_laman_edges(rnd, list(range(half))) | random_laman_edges(rnd, list(range(half, n)))
    a1, a2 = rnd.sample(range(half), 2)
    b1, b2 = rnd.sample(range(half, n), 2)
    edges.update([(a1, b1), (a2, b2)])
    return Graph.from_edges(n, edges)


def two_trees_with_bars() -> Graph:
    """Two 40-vertex 2-trees joined by two disjoint bars (m = 2n - 4): no
    vertex neighbourhood is stable, so Algorithm 1 gives its stable cut."""
    from rignac.constructions import make_2tree

    left, right = make_2tree(31, 40), make_2tree(32, 40)
    bars = [(0, 40), (7, 53)]
    return Graph.from_edges(80, list(left.edges) + [(a + 40, b + 40) for a, b in right.edges] + bars)


def non_member_graphs() -> dict[int, Graph]:
    """Minimally rigid graphs outside the gluing family with no stable vertex
    neighbourhood, by vertex count: a 6-vertex base, the base with 30 ears
    on edge 0-1 (36 vertices), and the base with 40 prisms glued along edge
    0-1 (166 vertices).  A peel removes the ears or the prisms, then the ear
    at vertex 0, and gets stuck on the other five vertices."""
    base = [(0, 1), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]
    eared = base + [e for w in range(6, 36) for e in ((0, w), (1, w))]
    glued = base + [
        e
        for p in range(6, 166, 4)
        for e in ((0, p), (1, p), (p + 1, p + 2), (p + 2, p + 3), (p + 1, p + 3), (0, p + 1), (1, p + 2), (p, p + 3))
    ]
    return {n: Graph.from_edges(n, edges) for n, edges in ((6, base), (36, eared), (166, glued))}


def random_eared_laman(rnd: random.Random, n: int) -> Graph:
    """A random minimally rigid graph on n vertices with an ear (a
    degree-2 vertex) on the edge from each vertex to its smallest
    neighbour: 2n vertices, each in a triangle, so no vertex neighbourhood
    is a stable cut.  The peel strips the ears, so the graph is in the
    gluing family exactly when the random one is."""
    edges = random_laman_edges(rnd, list(range(n)))
    g = Graph.from_edges(n, edges)
    for v in range(n):
        edges |= {(v, n + v), (min(g.adjacency[v]), n + v)}
    return Graph.from_edges(2 * n, edges)


def triangulated_grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid with one diagonal in each square: vertex
    r * cols + c.  Every separator of it holds two adjacent vertices, so it
    has no stable cut."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
            if r + 1 < rows and c + 1 < cols:
                edges.append((v, v + cols + 1))
    return Graph.from_edges(rows * cols, edges)


def glued_copies(h: Graph, copies: int) -> Graph:
    """`copies` copies of h in a chain, each glued by its edge 0 onto the
    edge 5 of the copy before (end to end).  Gluing minimally rigid graphs
    along an edge keeps m = 2n - 3."""
    (a, b), (c, d) = h.edges[0], h.edges[5]
    edges = set(h.edges)
    names = list(range(h.n))
    n = h.n
    for _ in range(copies - 1):
        glued = {a: names[c], b: names[d]}
        names = []
        for v in range(h.n):
            if v not in glued:
                glued[v], n = n, n + 1
            names.append(glued[v])
        edges |= {(min(names[u], names[v]), max(names[u], names[v])) for u, v in h.edges}
    return Graph.from_edges(n, edges)


def slow_make_gsc(steps: list) -> Graph:
    """make_gsc with every glue site checked against a full replay of the
    script so far (quadratic in the script length)."""
    from rignac.graph import PreconditionError
    from rignac.rigidity import GscDecomposition, GscStep

    built: list[GscStep] = []
    for raw in steps:
        edges = set(GscDecomposition((0, 1), tuple(built)).replay().edges)
        next_id = 2 + sum(len(s.new_vertices) for s in built)
        piece, glue_type, glue_at = raw[0], raw[1], tuple(raw[2])
        layout = raw[3] if len(raw) > 3 else None
        if piece not in ("triangle", "prism") or glue_type not in ("edge", "triangle"):
            raise PreconditionError(f"unknown step {raw!r}")
        site = tuple(sorted(glue_at))
        if glue_type == "edge" and site not in edges:
            raise PreconditionError(f"glue edge ({site[0]},{site[1]}) not present")
        if glue_type == "triangle" and not set(combinations(site, 2)) <= edges:
            raise PreconditionError(f"glue triangle {site} not present")
        if piece == "triangle" and glue_type == "triangle":
            continue
        size = 1 if piece == "triangle" else 3 if glue_type == "triangle" else 4
        if size == 4:
            layout = layout or "triangle"
            if layout not in ("triangle", "matching"):
                raise PreconditionError(f"unknown prism layout {layout!r}")
        built.append(GscStep(piece, glue_type, site, tuple(range(next_id, next_id + size)), layout if size == 4 else None))
    return GscDecomposition((0, 1), tuple(built)).replay()


def random_gsc_script(rnd: random.Random, length: int) -> list[list]:
    """A script of up to `length` random steps of every kind, each glued on
    an edge or triangle of the graph built so far; now and then the script
    ends early in a step glued on a vertex pair or triple that need not be
    one."""
    steps: list[list] = []
    for _ in range(length):
        g = slow_make_gsc(steps)
        tris = _live_triangles(list(g.adjacency), set(range(g.n)))
        piece = rnd.choice(["triangle", "prism"])
        if tris and rnd.random() < 0.3:
            site = list(rnd.choice(tris))
            steps.append([piece, "triangle", site])
        else:
            site = list(rnd.choice(g.edges))
            steps.append([piece, "edge", site] + ([rnd.choice(["triangle", "matching"])] if rnd.random() < 0.7 else []))
        if rnd.random() < 0.05:
            steps[-1][2] = rnd.sample(range(g.n), len(site))
            break
    return steps


def random_prism_chain(rnd: random.Random, prisms: int) -> Graph:
    """Prisms glued edge to edge, each onto an edge between two of the
    previous prism's new vertices, with a random layout (n = 4 * prisms + 2)."""
    from rignac.constructions import make_gsc

    # edges among the new ids k..k+3 of an edge-glued prism, by layout (see GscStep)
    inner = {"triangle": ((0, 3), (1, 2), (2, 3), (1, 3)), "matching": ((0, 1), (2, 3), (0, 2), (1, 3))}
    steps: list[list] = []
    glue = (0, 1)
    for i in range(prisms):
        layout = rnd.choice(["triangle", "matching"])
        steps.append(["prism", "edge", list(glue), layout])
        x, y = rnd.choice(inner[layout])
        glue = (2 + 4 * i + x, 2 + 4 * i + y)
    return make_gsc(steps)


def glue_random_pieces(rnd: random.Random, g: Graph, pieces: int) -> Graph:
    """g with `pieces` gluing-family pieces glued on one after another, each
    on a random edge or triangle of the graph so far: an ear, a prism along
    an edge in either layout, or a prism along a triangle.  New vertices take
    the next ids.  A piece has no stable cut, so gluing one on keeps g's
    membership in the gluing family."""
    edges = set(g.edges)
    n = g.n
    for _ in range(pieces):
        h = Graph.from_edges(n, edges)
        tris = _live_triangles(list(h.adjacency), set(range(n)))
        kind = rnd.choice(["ear", "triangle", "matching", "face"] if tris else ["ear", "triangle", "matching"])
        if kind == "face":
            a, b, c = rnd.choice(tris)
            p, q, r = n, n + 1, n + 2
            new = [(p, q), (q, r), (p, r), (a, p), (b, q), (c, r)]
        else:
            a, b = rnd.choice(h.edges)
            p, q, r, t = n, n + 1, n + 2, n + 3
            new = {
                "ear": [(a, p), (b, p)],
                "triangle": [(a, p), (b, p), (q, r), (r, t), (q, t), (a, q), (b, r), (p, t)],
                "matching": [(a, p), (a, q), (p, q), (b, r), (b, t), (r, t), (p, r), (q, t)],
            }[kind]
        edges.update(new)
        n = max(map(max, new)) + 1
    return Graph.from_edges(n, edges)


def random_0extension_graph(rnd: random.Random, n: int) -> Graph:
    """An edge grown by n - 2 random 0-extensions, open or closed, with its
    vertices relabelled at random."""
    return grow_by_0extensions(rnd, Graph.from_edges(2, [(0, 1)]), n)[0]


def grow_by_0extensions(rnd: random.Random, g: Graph, n: int) -> tuple[Graph, int]:
    """(g grown to n vertices by random 0-extensions, open or closed, with
    its vertices relabelled at random; how many of those steps were open).

    Read backwards, the steps are a removal order of degree-2 vertices with
    the same open steps, so when g is an edge the count is the minimum
    number of open steps by the lemma of `recognize_0extension_graph`.
    """
    edges = set(g.edges)
    opens = 0
    for w in range(g.n, n):
        a, b = rnd.sample(range(w), 2)
        opens += (min(a, b), max(a, b)) not in edges
        edges.update([(a, w), (b, w)])
    label = list(range(n))
    rnd.shuffle(label)
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges]), opens


def random_gsc_member(rnd: random.Random, pieces: int) -> Graph:
    """A gluing-family member from a random script mixing all four step kinds,
    with its vertices relabelled at random."""
    from rignac.constructions import make_gsc

    steps: list[list] = []
    g = Graph.from_edges(2, [(0, 1)])
    for _ in range(pieces):
        tris = _live_triangles(list(g.adjacency), set(range(g.n)))
        if tris and rnd.random() < 0.2:
            steps.append(["prism", "triangle", list(rnd.choice(tris))])
        else:
            edge = list(rnd.choice(g.edges))
            if rnd.random() < 0.5:
                steps.append(["triangle", "edge", edge])
            else:
                steps.append(["prism", "edge", edge, rnd.choice(["triangle", "matching"])])
        g = make_gsc(steps)
    label = list(range(g.n))
    rnd.shuffle(label)
    return Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges])
