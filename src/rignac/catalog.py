"""Catalog of minimally rigid graphs for small n: generation, histograms,
and the unique-colouring conjecture harness.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional

from .colouring import _colour_components, count_nac, nac_masks
from .graph import (
    Graph,
    PreconditionError,
    canonical_search,
    certificate_graph6,
    parse_graph6,
)
from .rigidity import (
    count_prism_subgraphs,
    gsc_decomposition,
    rank,
    recognize_0extension_graph,
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


def _open_ear_counts(item: tuple[str, list[tuple[int, int]]]) -> list[int]:
    """nnac(G) for each open ear (a, b) of item, then the count of the class
    with key item[0] itself: G is that class plus a vertex on a and b, which
    are not adjacent.  With no pairs this is `count_nac`; otherwise one
    listing of the class's NAC-colourings serves every pair (`_nnacs`'s
    lemma), and its length is the class's own count."""
    g6, pairs = item
    g = parse_graph6(g6)
    if not pairs:
        return [count_nac(g)]
    counts = [1] * len(pairs)
    masks = nac_masks(g)
    for mask in masks:
        red = [i for i in range(g.m) if mask >> i & 1]
        blue = [i for i in range(g.m) if not mask >> i & 1]
        rc, bc = _colour_components(g, red), _colour_components(g, blue)
        red_joins = {_pair(rc[u], rc[v]) for u, v in (g.edges[i] for i in blue)}
        blue_joins = {_pair(bc[u], bc[v]) for u, v in (g.edges[i] for i in red)}
        for j, (a, b) in enumerate(pairs):
            red_apart, blue_apart = rc[a] != rc[b], bc[a] != bc[b]
            counts[j] += (
                (not red_apart or _pair(rc[a], rc[b]) not in red_joins)
                + (not blue_apart or _pair(bc[a], bc[b]) not in blue_joins)
                + 2 * (red_apart and blue_apart)
            )
    return counts + [len(masks)]


def _classify(item: tuple[str, int]) -> CatalogEntry:
    g6, nnac = item
    g = parse_graph6(g6)
    dec = gsc_decomposition(g)
    member = dec is not None
    zext, opens = recognize_0extension_graph(g)
    return CatalogEntry(
        graph6=g6,
        nnac=nnac,
        is_2tree=member and dec.prism_count == 0,
        is_gsc=member,
        prism_count=dec.prism_count if member else None,
        is_0ext_graph=zext,
        min_open_steps=opens,
    )


def _orbit_representatives(items: list, gens: list[list[int]], image) -> list:
    """The first item of each orbit of the group generated by gens;
    ``image(gen, item)`` is the item that gen maps item to."""
    seen: set = set()
    reps = []
    for item in items:
        if item in seen:
            continue
        reps.append(item)
        seen.add(item)
        stack = [item]
        while stack:
            x = stack.pop()
            for gen in gens:
                y = image(gen, x)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return reps


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _extension_choices(g: Graph, gens: list[list[int]], apexes: Iterable[int]) -> tuple[list, list]:
    """One vertex pair (0-extension) and one (edge, vertex) triple
    (1-extension) per orbit of the group generated by gens.  A triple's
    vertex is taken from `apexes`, an ascending set closed under the group."""
    pairs = list(combinations(range(g.n), 2))
    triples = [(x, y, z) for x, y in g.edges for z in apexes if z != x and z != y]
    return (
        _orbit_representatives(pairs, gens, lambda s, p: _pair(s[p[0]], s[p[1]])),
        _orbit_representatives(triples, gens, lambda s, t: (*_pair(s[t[0]], s[t[1]]), s[t[2]])),
    )


def _search_key(nbrs: list[list[int]]) -> tuple[str, tuple]:
    """The canonical key of the graph with neighbour lists nbrs and its
    automorphism generators, from one canonical search, rewritten from nbrs's
    vertex ids into the key's labelling: vertex p goes to gen[p]."""
    cert, gens, labelling = canonical_search(nbrs)
    n = len(nbrs)
    at = [0] * n
    for v, p in enumerate(labelling):
        at[p] = v
    return certificate_graph6(n, cert), tuple([labelling[gen[at[p]]] for p in range(n)] for gen in gens)


def _deletable(nbrs: list[list[int]]) -> list[int]:
    """The vertices that pass the canonical-deletion filter: those of degree
    d, d = 2 if some vertex has degree 2 and 3 otherwise, and closed ears
    (degree 2 with adjacent neighbours) if some vertex is one, whose sorted
    neighbour degrees are the maximum among these candidates.

    Degrees and being a closed ear depend on the graph alone, so an
    isomorphism maps the set onto the image graph's set."""
    deg = [len(a) for a in nbrs]
    d = 2 if 2 in deg else 3
    low = [v for v in range(len(nbrs)) if deg[v] == d]
    if d == 2:
        low = [v for v in low if nbrs[v][0] in nbrs[nbrs[v][1]]] or low
    inv = {v: sorted([deg[u] for u in nbrs[v]]) for v in low}
    top = max(inv.values())
    return [v for v, t in inv.items() if t == top]


def _henneberg_children(parent: tuple[str, tuple]) -> tuple[dict[str, tuple], dict[str, tuple]]:
    """Keys and generators (`_search_key`) of the one-vertex extensions of
    the tight graph parent (a key and its generators) whose new vertex passes
    the canonical-deletion filter (`_deletable`): 0-extensions, and
    1-extensions whose child has no degree-2 vertex.  Only those are searched.
    Second, each of these children that a 0-extension forms, mapped to
    (parent key, u, v, whether uv is an edge) for the first pair (u, v), in
    the parent key's labelling, that forms it (`_nnacs`).

    Automorphic extensions give isomorphic children, so one choice per orbit
    of the parent's automorphism group is extended.
    A 1-extension on (x, y, z) keeps the degrees of x and y and raises only
    z's, so its child has a degree-2 vertex exactly when g has one other
    than z; a triple is therefore formed only if every degree-2 vertex of g
    is z: z is any vertex when g has none, the one when g has one, and there
    is no triple when g has two or more.  These apexes are closed under g's
    automorphisms: a unique degree-2 vertex is fixed by all of them.

    Lemma: when every class on g.n vertices is extended, every class C on
    g.n + 1 vertices is reached by a child that passes the filter.  A
    Laman graph on at least 3 vertices has minimum degree 2 or 3, so let w
    be a vertex of C that passes it, of degree d.  If d = 2, C - w is
    tight.  If d = 3, C has no degree-2 vertex, C - w + xy is tight for
    some pair x, y of w's neighbours (Laman's reverse 1-extension), and its
    only possible degree-2 vertex is w's third neighbour z.  So the pair N(w), or the
    triple (x, y, z), of that parent is an allowed choice, and the
    representative of its orbit gives a child isomorphic to C with the new
    vertex in w's place.  The filter depends on the graph alone, so that
    new vertex passes.  Distinct parents may still give one class; the
    level's dict keeps it once.
    """
    g6, gens = parent
    g = parse_graph6(g6)
    n = g.n
    adj = [list(a) for a in g.adjacency]
    low = [v for v in range(n) if len(adj[v]) == 2]
    apexes = range(n) if not low else low if len(low) == 1 else []
    pairs, triples = _extension_choices(g, gens, apexes)
    grown = []
    for u, v in pairs:
        child = [list(a) for a in adj] + [[u, v]]
        child[u].append(n)
        child[v].append(n)
        grown.append((child, (g6, u, v, g.has_edge(u, v))))
    for x, y, z in triples:
        child = [list(a) for a in adj] + [[x, y, z]]
        child[x].remove(y)
        child[y].remove(x)
        for w in (x, y, z):
            child[w].append(n)
        grown.append((child, None))
    kept = [(_search_key(child), ear) for child, ear in grown if n in _deletable(child)]
    ears: dict[str, tuple] = {}
    for (key, _), ear in kept:
        if ear is not None:
            ears.setdefault(key, ear)
    return dict(key for key, _ in kept), ears


def _fan_out(fn: Callable, items: list, workers: int) -> Iterator:
    """fn(item) for each item, in order, yielded as each result arrives;
    over a pool of min(workers, cpu count) processes when there are at least
    4 items per process."""
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(items) >= 4 * workers:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, items, chunksize=8)
    else:
        yield from map(fn, items)


def _generate(n: int, allow_large: bool, workers: int) -> tuple[list[str], dict[str, tuple]]:
    """The sorted keys of `minimally_rigid_graph6`, and the count source of
    the classes that generation reaches by a 0-extension, for `_nnacs`: (r,)
    for a class that shares the count of the class r, the end of its chain
    of closed-ear parents, or (p, a, b) for an open ear on a, b of the
    parent p.  A closed ear on p takes p's own source, or (p,) if it has
    none, so every source names a class that `_nnacs` counts or lists.  A
    closed ear overrides an open one, and the last closed parent in sorted
    order wins; an open ear comes from the first parent that forms it."""
    limit = OPT_IN_MAX_N if allow_large else DEFAULT_MAX_N
    if not 3 <= n <= limit:
        raise PreconditionError(
            f"catalog supports 3 <= n <= {limit}"
            + ("" if allow_large else f" ({OPT_IN_MAX_N} behind allow_large)")
        )
    level, source = dict([_search_key([[1, 2], [0, 2], [0, 1]])]), {}
    for size in range(4, n + 1):
        nxt, below, source = {}, source, {}
        for children, ears in _fan_out(_henneberg_children, sorted(level.items()), workers):
            nxt.update(children if size < n else dict.fromkeys(children))
            for key, (p, a, b, closed) in ears.items():
                if closed:
                    source[key] = below.get(p, (p,))
                else:
                    source.setdefault(key, (p, a, b))
        level = nxt
    for g6 in level:
        g = parse_graph6(g6)
        if g.m != 2 * g.n - 3 or rank(g) != 2 * g.n - 3:
            raise RuntimeError(f"generated class {g6} is not minimally rigid")
    return sorted(level), source


def minimally_rigid_graph6(n: int, allow_large: bool = False, workers: int = 1) -> list[str]:
    """Canonical graph6 keys of all minimally rigid isomorphism classes.

    Grown from the triangle by vertex additions of degree 2 and edge splits,
    with canonical-form dedup; every class is rank-checked.  Each level is
    the complete set of classes on its vertex count, so a child is searched
    only when its new vertex passes the canonical-deletion filter, and an
    edge split whose child has a degree-2 vertex is not formed
    (`_henneberg_children` proves that no class is lost).  Each class is
    searched once: a level is a dict from key to the automorphism generators
    that the next level's orbit choices need, and the last level keeps keys
    only.  Generation can fan out over parent graphs; per-parent children are
    merged, and the sorted output is identical for every worker count.  The
    count sources that `_generate` keeps beside the keys are dropped.
    """
    return _generate(n, allow_large, workers)[0]


def _nnacs(keys: list[str], source: dict[str, tuple], workers: int) -> list[int]:
    """The NAC counts of keys, in order, from their count sources
    (`_generate`); a class with no source is its own, (key,).  Each class
    that a source names is one work item for `_open_ear_counts`, with the
    sorted open ears that name it: `count_nac` runs on those with none (the
    triangle and classes with no degree-2 vertex), and the others are
    listed once, the listing's length being their own count.  The items
    fan out once, in sorted order.

    Lemma (closed ear): if w has degree 2 and adjacent neighbours a, b,
    nnac(G) = nnac(G - w).  A NAC-colouring gives a triangle one colour
    (Grasegger, Legerský and Schicho), so restriction to G - w is a bijection
    whose inverse colours wa and wb as ab: a cycle through w but not ab,
    closed by ab instead, is a cycle of G - w with one edge of ab's colour
    fewer, so if that one is monochromatic or has two edges of each, so has it.

    Lemma (open ear): let w have degree 2 and neighbours a, b that are not
    adjacent, with G' = G - w connected.  A NAC-colouring of G restricts to
    a NAC-colouring of G' or to a monochromatic G', since an almost
    monochromatic cycle of G' is one of G.  The cycles through w are wa, a
    path P from a to b in G', and bw, and P has at least two edges.
    - G' blue: if just one of wa, wb is red, a cycle through w has one red
      edge; both red give every such cycle two red edges and at least two
      blue ones.  So a monochromatic G' extends in exactly 1 class.
    - A NAC-colouring δ of G' with wa and wb red: a cycle through w has two
      red edges, so it is almost monochromatic exactly when P has one blue
      edge xy.  Then a, x share a red component and y, b share one, and not
      the same one, or xy would close an almost red cycle in G'.
      Conversely, a blue edge joining the distinct red components of a and
      b gives such a P.  So δ extends exactly when a and b share a red
      component or no blue edge joins theirs.  Both blue: the same test
      with the colours swapped.
    - wa and wb of different colours: a cycle through w is almost
      monochromatic exactly when P is monochromatic, so δ extends, in 2
      ways, exactly when a and b lie in different red components and in
      different blue ones.
    So nnac(G) = 1 + the sum over the classes δ of G' of those extensions."""
    sources = [source.get(k, (k,)) for k in keys]
    ears: dict[str, set] = {}
    for r, *ear in sources:
        pairs = ears.setdefault(r, set())
        if ear:
            pairs.add(tuple(ear))
    items = [(r, sorted(pairs)) for r, pairs in sorted(ears.items())]
    nnac: dict[tuple, int] = {}
    for (r, pairs), counts in zip(items, _fan_out(_open_ear_counts, items, workers)):
        nnac[(r,)] = counts[-1]
        nnac.update(((r, *pair), c) for pair, c in zip(pairs, counts))
    return [nnac[s] for s in sources]


def enumerate_minimally_rigid(
    n: int, allow_large: bool = False, workers: int = 1
) -> list[CatalogEntry]:
    """Every class classified in full, with its NAC count from `_nnacs`."""
    keys, source = _generate(n, allow_large, workers)
    return list(_fan_out(_classify, list(zip(keys, _nnacs(keys, source, workers))), workers))


def _fold(counts: Iterable[int]) -> tuple[dict[int, int], int]:
    hist: dict[int, int] = {}
    for nnac in counts:
        hist[nnac] = hist.get(nnac, 0) + 1
    return hist, max(hist) if hist else 0


def nnac_histogram(entries: list[CatalogEntry]) -> tuple[dict[int, int], int]:
    """Exact histogram nnac -> class count, and the maximum attained value."""
    return _fold(e.nnac for e in entries)


def histogram_report(
    n: int,
    allow_large: bool = False,
    entries: Optional[list[CatalogEntry]] = None,
    workers: int = 1,
) -> dict:
    """Histogram plus a flagged comparison against published 6-vertex counts.

    Without `entries` it classifies nothing: it reads the NAC counts of
    `_nnacs` from the one count source per class that generation keeps,
    fanned out over `workers` processes, so each class that a source names
    is counted or listed once.  The published reference counts for 6
    vertices sum to 14 classes while regeneration is the arbiter; any
    per-bucket deviation is reported, never silently dropped.
    """
    if entries is None:
        hist, mx = _fold(_nnacs(*_generate(n, allow_large, workers), workers))
    else:
        hist, mx = nnac_histogram(entries)
    report = {
        "n": n,
        "classes": sum(hist.values()),
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
