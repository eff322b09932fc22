"""NAC- and NAP-colourings: validation, construction, enumeration, counting.

A NAC-colouring is a surjective red/blue edge colouring with no almost
monochromatic cycle; equivalently no edge of one colour joins two vertices of
a single component of the other colour.  Counts are reported modulo the
colour-swap involution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from operator import add
from typing import Callable, Iterable, Iterator, Optional

from .graph import (
    Graph,
    PreconditionError,
    Separation,
    _frontier_run,
    _vertex_order,
    blocks,
    connected_components_without,
    induced_subgraph,
    is_stable_set,
)
from .stable_cut import BLUE, MIXED, RED, Answers, _labellings

_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


@dataclass(frozen=True)
class EdgeColouring:
    """Total red/blue assignment: bit i of `mask` set means edge i is red."""

    m: int
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < (1 << self.m):
            raise ValueError("colour mask out of range for edge count")

    @classmethod
    def from_red_edges(cls, m: int, red: Iterable[int]) -> "EdgeColouring":
        mask = 0
        for i in red:
            if not 0 <= i < m:
                raise ValueError(f"edge index {i} out of range")
            mask |= 1 << i
        return cls(m, mask)

    def is_red(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def red_edges(self) -> list[int]:
        return [i for i in range(self.m) if self.mask >> i & 1]

    def blue_edges(self) -> list[int]:
        return [i for i in range(self.m) if not self.mask >> i & 1]

    def is_surjective(self) -> bool:
        return 0 < self.mask < (1 << self.m) - 1

    def to_json(self) -> dict:
        return {"red": self.red_edges(), "blue": self.blue_edges()}


class _ChunkIds(dict):
    """Byte value -> the ids, each followed by ", ", of the edges of one
    8-edge chunk whose bits are set in the byte; filled on first use, from
    the lowest set bit and the entry of the byte without it."""

    def __init__(self, chunk: int) -> None:
        self.first = 8 * chunk
        self[0] = ""

    def __missing__(self, byte: int) -> str:
        text = f"{self.first + (byte & -byte).bit_length() - 1}, " + self[byte & (byte - 1)]
        self[byte] = text
        return text


def json_lines(m: int, masks: Iterable[int]) -> Iterator[str]:
    """The listing line of each red-edge mask on m edges, in order.

    A line is `json.dumps(EdgeColouring(m, mask).to_json()) + "\n"`, byte
    for byte.  The mask is cut into 8-edge chunks, and a chunk's red text is
    looked up in its chunk's table at the chunk's byte, its blue text at the
    complemented byte.  The texts of the chunks below the first one in which
    a mask differs from the previous mask are kept from the previous line,
    so a listing in sorted order, whose neighbours mostly differ in their
    last chunks, rebuilds few chunks per line.  Lines are right for masks in
    any order.
    """
    size = (m + 7) // 8
    # chunk k: (k + 1, its table, its shift, the mask of its edges in a byte)
    chunks = [(k + 1, _ChunkIds(k), 8 * k, (1 << min(8, m - 8 * k)) - 1) for k in range(size)]
    rebuild = [chunks[k:] for k in range(size)]
    red = [""] * (size + 1)  # red[k]: the red text of the chunks below k
    blue = [""] * (size + 1)
    prev, fresh, line = 0, 1, ""  # fresh: the first line builds every chunk
    for mask in masks:
        diff = mask ^ prev | fresh
        if diff:
            first = ((diff & -diff).bit_length() - 1) >> 3
            r, b = red[first], blue[first]
            for k, table, shift, ones in rebuild[first]:
                byte = mask >> shift & 255
                red[k] = r = r + table[byte]
                blue[k] = b = b + table[byte ^ ones]
            line = f'{{"red": [{r[:-2]}], "blue": [{b[:-2]}]}}\n'
            prev, fresh = mask, 0
        yield line


def _check_length(g: Graph, c: EdgeColouring) -> None:
    if c.m != g.m:
        raise ValueError(f"colouring length {c.m} does not match edge count {g.m}")


def _find(parent: list[int], x: int) -> int:
    """The root of x in the union-find forest parent, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _colour_components(g: Graph, edge_ids: Iterable[int]) -> list[int]:
    """Component label per vertex for the subgraph on the given edges."""
    label = list(range(g.n))
    for i in edge_ids:
        u, v = g.edges[i]
        ru, rv = _find(label, u), _find(label, v)
        if ru != rv:
            label[rv] = ru
    return [_find(label, v) for v in range(g.n)]


def _no_almost_cycle(g: Graph, red: list[int], blue: list[int]) -> bool:
    """No edge of one colour joins two vertices of one component of the other."""
    for mine, theirs in ((red, blue), (blue, red)):
        comp = _colour_components(g, mine)
        for i in theirs:
            u, v = g.edges[i]
            if comp[u] == comp[v]:
                return False
    return True


def is_nac(g: Graph, c: EdgeColouring) -> bool:
    """Surjective and no edge of one colour joins one component of the other."""
    _check_length(g, c)
    return c.is_surjective() and _no_almost_cycle(g, c.red_edges(), c.blue_edges())


def is_nap(g: Graph, c: EdgeColouring) -> bool:
    """Surjective, all triangles monochromatic, no alternating 3-edge path.

    Equivalent endvertex criterion: no edge joins two mixed vertices, those
    with red edges and blue edges.
    """
    _check_length(g, c)
    reds = [0] * g.n  # red edges at each vertex
    for i in c.red_edges():
        for x in g.edges[i]:
            reds[x] += 1
    mixed = [0 < reds[x] < len(g.adjacency[x]) for x in range(g.n)]
    return c.is_surjective() and not any(mixed[u] and mixed[v] for u, v in g.edges)


def nap_from_separation(g: Graph, sep: Separation) -> EdgeColouring:
    """Colour side 1 red and side 2 blue; valid for stable separations."""
    sep.validate(g)
    if not sep.is_stable(g):
        raise PreconditionError("separation is not stable")
    return EdgeColouring.from_red_edges(g.m, sep.edge_set1)


def separation_from_nap(g: Graph, c: EdgeColouring) -> Separation:
    """The red/blue edge bipartition of a NAP-colouring, as a stable separation."""
    _check_length(g, c)
    for v in range(g.n):
        if not g.adjacency[v]:
            raise PreconditionError(f"isolated vertex {v}")
    if not is_nap(g, c):
        raise PreconditionError("colouring is not a NAP-colouring")
    return Separation(frozenset(c.red_edges()), frozenset(c.blue_edges()))


def separation_from_stable_cut(g: Graph, cut: Iterable[int]) -> Separation:
    """Stable separation splitting the edges at a stable cut of a connected graph."""
    s = frozenset(cut)
    if not is_stable_set(g, s):
        raise PreconditionError("cut is not a stable set")
    comps = connected_components_without(g, s)
    if len(comps) < 2:
        raise PreconditionError("set does not disconnect the graph")
    first = comps[0]
    e1 = frozenset(i for i, (u, v) in enumerate(g.edges) if u in first or v in first)
    e2 = frozenset(range(g.m)) - e1
    return Separation(e1, e2)


# ---------------------------------------------------------------------------
# the frontier programme: counting, listing and existence


def triangle_classes(g: Graph) -> list[list[int]]:
    """Edge classes of the relation "lie in a common triangle", closed transitively.

    A triangle cannot carry both colours in a NAC-colouring, so every
    NAC-colouring is constant on each class (Grasegger, Legerský and
    Schicho, DCG 2019).  Classes are listed by their smallest edge, each
    in increasing edge order.
    """
    parent = list(range(g.m))
    adj, index = g.adjacency, g.edge_index
    for i, (u, v) in enumerate(g.edges):
        for w in adj[u] & adj[v]:
            if w > v:  # each triangle u < v < w once
                for j in (index[(u, w)], index[(v, w)]):
                    a, b = _find(parent, i), _find(parent, j)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
    classes: dict[int, list[int]] = {}
    for i in range(g.m):
        classes.setdefault(_find(parent, i), []).append(i)
    return list(classes.values())


def _frontier_levels(g: Graph, classes: list[list[int]]) -> tuple[list[list[int]], list[tuple]]:
    """The units (g's triangle classes, `classes`) in programme order, and
    one level per unit.

    A unit is placed when the last of its vertices arrives in
    `_vertex_order`; units completed by the same vertex follow their
    smallest edges.  Level k colours unit k.  Its vertices are numbered
    locally: first the frontier (vertices with edges both before and in or
    after unit k, in increasing order), then the vertices unit k reaches
    first.  A level is (the frontier size, the local numbers of the new
    vertices, the unit's edges as local pairs, the local numbers of the
    next frontier in increasing vertex order, the local numbers of the
    unit's frontier vertices).  An edge with an end in no other unit is left
    out: that end is new and leaves with the level, so the edge can neither
    close an almost cycle nor carry a pair to the next frontier.
    """
    edges = g.edges
    verts = [{x for i in unit for x in edges[i]} for unit in classes]
    at_vertex: list[list[int]] = [[] for _ in range(g.n)]
    missing = [len(vs) for vs in verts]
    for k, vs in enumerate(verts):
        for x in vs:
            at_vertex[x].append(k)
    order = []  # class indices in programme order
    for v in _vertex_order(g):
        for k in at_vertex[v]:
            missing[k] -= 1
            if not missing[k]:
                order.append(k)
    first = [-1] * g.n
    last = [-1] * g.n
    for k, c in enumerate(order):
        for x in verts[c]:
            if first[x] < 0:
                first[x] = k
            last[x] = k
    levels = []
    frontier: list[int] = []
    for k, c in enumerate(order):
        size = len(frontier)
        local = {x: pos for pos, x in enumerate(frontier + sorted(x for x in verts[c] if first[x] == k))}
        touched = [local[x] for x in verts[c] if first[x] < k]
        carried = [(local[u], local[v]) for u, v in (edges[i] for i in classes[c]) if first[u] < last[u] and first[v] < last[v]]
        frontier = sorted(x for x in local if last[x] > k)
        levels.append((size, tuple(range(size, len(local))), carried, [local[x] for x in frontier], touched))
    return [classes[c] for c in order], levels


# A counter state is one flat tuple: the blue and the red label of each
# frontier vertex (2 * size entries), has_red (0 or 1), then the blue and the
# red pair mask.  A colour's labels number its components from 0 in order of
# first appearance, so equal partitions give equal keys.  Its pairs are the
# pairs of its components that an edge of the other colour joins; pair (a, b)
# with a < b is bit a * stride + b.  A label in a mask is below the next
# frontier's size, so the stride is the widest frontier of the graph, which
# one large triangle class does not widen.


def _colour_level(key: tuple, level: tuple, stride: int, colours: tuple) -> list:
    """The children of a state, one per colour in `colours` and in that
    order: the next state after colouring the level's unit that colour, or
    None if it is rejected.

    The key is sliced once for both colours.  A new vertex takes its local
    number as label, which no frontier label reaches.  A unit is connected,
    so its colour joins the labels of all its vertices into one component.
    A child is refused as soon as a unit edge lies in one component of the
    other colour or the join traps a pair, before any label is renamed.
    With no next frontier the child is the final state (has_red, 0, 0)."""
    size, new, edges, keep, touched = level
    labels = (key[:size] + new, key[size : 2 * size] + new)  # blue, red
    width = len(labels[0])
    fresh = (1 << width) - (1 << size)  # the labels of the new vertices
    children: list = []
    for colour in colours:
        mine, theirs = labels[colour], labels[1 - colour]
        child, added = None, []
        for a, b in edges:
            ta, tb = theirs[a], theirs[b]
            if ta == tb:
                break  # the edge closes an almost cycle of the other colour
            added.append((ta, tb))
        else:
            joined = fresh  # the labels of `mine` that the unit joins
            for x in touched:
                joined |= 1 << mine[x]
            pairs, carried = key[-2 + colour], []
            while pairs:
                low = pairs & -pairs
                pairs ^= low
                a, b = divmod(low.bit_length() - 1, stride)
                if joined >> a & joined >> b & 1:
                    break  # the join traps an edge of the other colour
                carried.append((a, b))
            else:
                has_red = 1 if colour == RED else key[-3]
                if not keep:
                    child = (has_red, 0, 0)
                else:
                    rep = (joined & -joined).bit_length() - 1  # the joined component's label
                    mine_new, theirs_new = [-1] * width, [-1] * width  # label -> kept label
                    mine_kept, theirs_kept, mine_count, theirs_count = [], [], 0, 0
                    for x in keep:
                        r, t = mine[x], theirs[x]
                        if joined >> r & 1:
                            r = rep
                        if mine_new[r] < 0:
                            mine_new[r], mine_count = mine_count, mine_count + 1
                        if theirs_new[t] < 0:
                            theirs_new[t], theirs_count = theirs_count, theirs_count + 1
                        mine_kept.append(mine_new[r])
                        theirs_kept.append(theirs_new[t])
                    mine_mask = 0
                    for a, b in carried:
                        a, b = mine_new[rep if joined >> a & 1 else a], mine_new[rep if joined >> b & 1 else b]
                        if a >= 0 and b >= 0:
                            mine_mask |= 1 << (a * stride + b if a < b else b * stride + a)
                    pairs, theirs_mask = key[-1 - colour], 0
                    while pairs:
                        low = pairs & -pairs
                        pairs ^= low
                        added.append(divmod(low.bit_length() - 1, stride))
                    for a, b in added:
                        a, b = theirs_new[a], theirs_new[b]
                        if a >= 0 and b >= 0:
                            theirs_mask |= 1 << (a * stride + b if a < b else b * stride + a)
                    if colour == RED:
                        child = (*theirs_kept, *mine_kept, has_red, theirs_mask, mine_mask)
                    else:
                        child = (*mine_kept, *theirs_kept, has_red, mine_mask, theirs_mask)
        children.append(child)
    return children


def _steady_level(key: tuple, level: tuple, stride: int, colours: tuple) -> list:
    """`_colour_level` on a steady level, one that brings no new vertex and
    keeps every frontier vertex, so the frontier and its local numbers stay.
    The other colour's labels carry over unchanged and its mask gains the
    unit's edges as pairs.  The unit's colour is renamed only when the unit
    joins two or more of its components, and the trap test runs inside that
    renaming: with one component joined no pair can be trapped, and the
    child is the key with one mask widened."""
    size, _, edges, _, touched = level
    children: list = []
    for colour in colours:
        theirs, child, added = key[(1 - colour) * size : (2 - colour) * size], None, 0
        for a, b in edges:
            ta, tb = theirs[a], theirs[b]
            if ta == tb:
                break  # the edge closes an almost cycle of the other colour
            added |= 1 << (ta * stride + tb if ta < tb else tb * stride + ta)
        else:
            mine, pairs, joined = key[colour * size : (colour + 1) * size], key[-2 + colour], 0
            for x in touched:
                joined |= 1 << mine[x]
            if joined & (joined - 1):
                rep = (joined & -joined).bit_length() - 1  # the joined component's label
                rename, labels, count = [-1] * size, [], 0
                for r in mine:
                    if joined >> r & 1:
                        r = rep
                    if rename[r] < 0:
                        rename[r], count = count, count + 1
                    labels.append(rename[r])
                mine, left, pairs = tuple(labels), pairs, 0
                while left:
                    low = left & -left
                    left ^= low
                    a, b = divmod(low.bit_length() - 1, stride)
                    if joined >> a & joined >> b & 1:
                        mine = None  # the join traps an edge of the other colour
                        break
                    a, b = rename[rep if joined >> a & 1 else a], rename[rep if joined >> b & 1 else b]
                    pairs |= 1 << (a * stride + b if a < b else b * stride + a)
            if mine is not None:
                if colour == BLUE:
                    child = (*mine, *theirs, key[-3], pairs, key[-1] | added)
                else:
                    child = (*theirs, *mine, 1, key[-2] | added, pairs)
        children.append(child)
    return children


def _frontier_pass(g: Graph, links: Optional[list] = None) -> tuple[list[list[int]], dict[tuple, object], int]:
    """Colour the units level by level, run by `graph._frontier_run` with
    `links`: (the units in level order, the final states, the states
    expanded).  The unit holding edge 0 is coloured blue, every other one
    red (back-link bit 1) or blue.  A component with no frontier vertex
    never changes again, so the number of ways to finish depends only on the
    state, and equal states add their multiplicities.  A final state is
    (has_red, 0, 0).  A steady level (`_steady_level`) takes the short step.
    A graph whose edges form one unit has no NAC-colouring: it returns no
    units and no final states, and counts the start state as expanded.
    """
    classes = triangle_classes(g)
    if len(classes) == 1:
        return [], {}, 1
    units, levels = _frontier_levels(g, classes)
    stride = max((len(level[3]) for level in levels), default=0)
    run = []
    for unit, level in zip(units, levels):
        colours = (BLUE,) if unit[0] == 0 else (BLUE, RED)
        step = _colour_level if level[1] or level[3] != list(range(level[0])) else _steady_level
        run.append((step, (level, stride, colours), colours, (0,) * len(colours), len(level[3])))
    return (units, *_frontier_run(run, {(0, 0, 0): 1}, add, links))


def _frontier_count(g: Graph) -> tuple[int, int]:
    """(NAC classes of g, states expanded), read at the final state that used red."""
    _, states, expanded = _frontier_pass(g)
    return states.get((1, 0, 0), 0), expanded


def _suffix_counts(links: list, final: list[int]) -> list[list[int]]:
    """The number of accepting path suffixes from each state, as ints:
    entry k + 1 is for the states after level k (entry 0 for the start),
    where `final` gives 1 at each accepting final state and 0 elsewhere.
    A state counted 0 is dead: no accepting path passes it."""
    counts = [final]
    for k in range(len(links) - 1, -1, -1):
        below = [0] * (len(links[k - 1]) if k else 1)
        for back, count in zip(links[k], counts[-1]):
            if count:
                for link in back:
                    below[link >> 1] += count
        counts.append(below)
    counts.reverse()
    return counts


def _join_level(links: list, counts: list[list[int]]) -> int:
    """The level k at which `_spell` joins, -1 to L-1 for L levels: the
    one that builds the fewest masks, counting the path prefixes into the
    live states after levels 0..k, built forwards, and the accepting path
    suffixes from the states after levels k..L-2, built backwards (`counts`,
    from `_suffix_counts`; level -1 is the start).  Ties go to the lower
    level; k = -1 builds suffixes only."""
    heads, prefix = [1], []  # heads: path prefixes into each live state
    for back, live in zip(links, counts[1:]):
        here = []
        for links_in, count in zip(back, live):
            total = 0
            if count:
                for link in links_in:
                    total += heads[link >> 1]
            here.append(total)
        heads = here
        prefix.append(sum(heads))
    suffix = [sum(c) for c in counts]
    cost = sum(suffix[:-1])  # k = -1: the suffixes after levels -1..L-2
    best, join = cost, -1
    for k, here in enumerate(prefix):
        cost += here - suffix[k]
        if cost < best:
            best, join = cost, k
    return join


def _spell(links: list, reds: list[int], states: dict, accept: tuple, first_only: bool, m: int) -> list[int]:
    """The sorted red-edge masks that a programme's back-links `links`
    (`graph._frontier_run`) spell on the paths from the start to its final
    state `accept`.  A step of bit 1 at level k adds the edges `reds[k]`,
    and distinct paths spell distinct colourings.

    The paths are spelled from both ends and joined at the level k that
    `_join_level` picks from their counts (`_suffix_counts`): backwards from
    the last level through level k + 1, keeping for each state the masks of
    the accepting path suffixes that start there, and forwards through
    level k, keeping for each live state the masks of the path prefixes
    into it.  At level k each prefix of a state ORs with each of its
    suffixes.  Grouping by state keeps no per-path record besides the mask.
    With `first_only` nothing is counted, k is -1, and the backward walk
    keeps only the first path.  A programme with no level spells nothing.
    The masks come out in the order of an edge-by-edge search that tries
    red before blue: descending by the mask read with edge 0 as its highest
    bit.
    """
    if not reds:
        return []
    final = [int(key == accept) for key in states]
    if first_only:
        join, counts = -1, []
    else:
        counts = _suffix_counts(links, final)
        join = _join_level(links, counts)
    tails = {j: [0] for j, count in enumerate(final) if count}
    for k in range(len(reds) - 1, join, -1):
        if first_only:
            tails = {j: masks[:1] for j, masks in list(tails.items())[:1]}
        red, below = reds[k], {}
        for j, masks in tails.items():
            for link in links[k][j]:
                below.setdefault(link >> 1, []).extend([mask | red for mask in masks] if link & 1 else masks)
        tails = below
    heads = {0: [0]}
    for k in range(join + 1):
        red, after = reds[k], {}
        for j, (back, count) in enumerate(zip(links[k], counts[k + 1])):
            if count:
                here = after[j] = []
                for link in back:
                    masks = heads[link >> 1]
                    here.extend([mask | red for mask in masks] if link & 1 else masks)
        heads = after
    masks = [head | tail for j, ends in tails.items() for head in heads[j] for tail in ends]
    if first_only:
        masks = masks[:1]
    # bits reversed over whole bytes sort as the m-bit reversal does, and
    # bytes of one length compare as the big-endian ints they spell
    size = (m + 7) // 8
    masks.sort(key=lambda mask: mask.to_bytes(size, "little").translate(_BIT_REVERSED), reverse=True)
    return masks


def _frontier_masks(g: Graph, first_only: bool) -> tuple[list[int], int]:
    """(red-edge masks of the NAC-colourings with edge 0 blue, states
    expanded), spelled from `_frontier_pass`'s back-links."""
    links: list[list[list[int]]] = []
    units, states, expanded = _frontier_pass(g, links)
    reds = [sum(1 << i for i in unit) for unit in units]
    return _spell(links, reds, states, (1, 0, 0), first_only, g.m), expanded


def enumerate_nac(
    g: Graph,
    on_found: Optional[Callable[[EdgeColouring], None]] = None,
    *,
    first_only: bool = False,
    workers: int = 1,
) -> int:
    """Exact count of NAC colour classes; optionally emits one witness per class.

    Edge 0 is pinned blue, so every class is seen exactly once and the
    returned count is already the half-count.  Without `on_found` it counts
    as `count_nac` does, block by block; with it, every class is listed, in the
    order of an edge-by-edge search that tries red before blue.
    `first_only` stops at one class: the count is 0 or 1 and the witness
    is some NAC-colouring, not necessarily the first in that order.
    `workers` is accepted for compatibility and ignored.
    """
    emit = None if on_found is None else lambda mask: on_found(EdgeColouring(g.m, mask))
    count, _states, _ms = enumerate_nac_detailed(g, emit, first_only=first_only, workers=workers)
    return count


def enumerate_nac_detailed(
    g: Graph,
    on_found: Optional[Callable[[int], None]] = None,
    *,
    first_only: bool = False,
    workers: int = 1,
) -> tuple[int, int, float]:
    """enumerate_nac with red-edge masks passed to `on_found`, plus (states
    expanded, elapsed milliseconds)."""
    if g.m < 1:
        raise PreconditionError("enumeration requires at least one edge")
    start = time.perf_counter()
    if on_found is None:
        stats: dict = {}
        count = count_nac(g, stats)
        expanded = stats["states"]
        if first_only:
            count = min(count, 1)
    else:
        masks, expanded = _frontier_masks(g, first_only)
        for mask in masks:
            on_found(mask)
        count = len(masks)
    return count, expanded, (time.perf_counter() - start) * 1000.0


def nac_masks(g: Graph) -> list[int]:
    """Red-edge masks of the NAC-colourings with edge 0 blue, in the order
    of `enumerate_nac`."""
    if g.m < 1:
        raise PreconditionError("enumeration requires at least one edge")
    return _frontier_masks(g, False)[0]


def nap_masks(g: Graph) -> list[int]:
    """Red-edge masks of the NAP-colourings with edge 0 blue, in the order
    of `nac_masks`: the labellings of `stable_cut._labellings` with both
    ends of edge 0 blue or mixed, read at the edges, where an edge is red
    exactly when an end is."""
    if g.m < 1:
        raise PreconditionError("enumeration requires at least one edge")
    links: list[list[list[int]]] = []
    order, states = _labellings(g, dict.fromkeys(g.edges[0], (BLUE, MIXED)), links)
    index = g.edge_index
    reds = [sum(1 << index[min(v, w), max(v, w)] for w in g.adjacency[v]) for v in order]
    return _spell(links, reds, states, (3,), False, g.m)


def has_nap_colouring(g: Graph) -> bool:
    """Whether g has a NAP-colouring: whether `Answers` finds a stable cut
    of the core, g without its isolated vertices.  The mixed vertices of a
    NAP-colouring are a stable cut of the core; conversely, for a stable cut
    S of the core, edges red at one component of core - S and blue at the
    others are a NAP-colouring.  A "skipped" search raises
    PreconditionError with `Answers.refusal`."""
    if g.m < 1:
        raise PreconditionError("enumeration requires at least one edge")
    answers = Answers(_core(g))
    result, method = answers.stable_cut
    if method == "skipped":
        raise PreconditionError(answers.refusal)
    return result is not None


def _core(g: Graph) -> Graph:
    """g without its isolated vertices; g itself when it has none."""
    return g if all(g.adjacency) else induced_subgraph(g, (v for v in range(g.n) if g.adjacency[v]))[0]


def count_nac(g: Graph, stats: Optional[dict] = None) -> int:
    """nnac via block decomposition: half the product of (2*nnac(block)+2), minus 1.

    Isolated vertices do not affect the count: each block of the core is
    counted by `_frontier_count`, and a block holding every edge is the
    core itself, so a 2-connected graph is counted without a copy.
    `stats`, if given, receives "states" (counter states expanded, summed
    over the blocks).
    """
    if g.m < 1:
        raise PreconditionError("count requires at least one edge")
    if stats is None:
        stats = {}
    stats.setdefault("states", 0)
    core = _core(g)
    product = 1
    for block in blocks(core):
        sub = core
        if len(block) < core.m:
            sub, _ = induced_subgraph(core, {v for i in block for v in core.edges[i]})
        count, states = _frontier_count(sub)
        stats["states"] += states
        product *= 2 * count + 2
    return product // 2 - 1


def nnac_upper_bound(n: int) -> int:
    """Exact evaluation of the binomial colouring-count bound."""
    if n < 2:
        raise PreconditionError("bound requires at least two vertices")
    return comb(2 * n - 4, n - 2) // 2


def count_nac_complete_bipartite(n1: int, n2: int) -> int:
    if n1 < 1 or n2 < 1:
        raise PreconditionError("parts must be nonempty")
    return 2 ** (n1 + n2 - 2) - 1


# ---------------------------------------------------------------------------
# constructive colouring for minimally rigid graphs


@dataclass(frozen=True)
class TwoTreeCertificate:
    """Witness that no NAC-colouring exists: a triangle peel order to K2."""

    peel_order: tuple[int, ...]


def _colouring_from_decomposition(g: Graph, dec) -> EdgeColouring:
    """A NAC-colouring of a gluing-family member from its build script.

    Only the last prism step L decides it.  L's triangles are blue and its
    matching red, so its glue site has one colour: red exactly when it is a
    matching edge.  Everything built before L, the base edge included,
    takes that colour, and each later triangle step copies the colour of
    its glue edge.  One pass over the script.
    """
    steps = dec.steps
    last = max((i for i, s in enumerate(steps) if s.piece == "prism"), default=None)
    if last is None:
        raise RuntimeError("decomposition has no prism step; graph is a 2-tree")
    red: set[tuple[int, int]] = set()
    if steps[last].layout == "matching":
        red.add(tuple(sorted(dec.base_vertices)))
        red.update(e for s in steps[:last] for e in s.edges())
    red.update(steps[last].edges()[-3:])
    for s in steps[last + 1 :]:
        if s.glue_at in red:
            red.update(s.edges())
    return EdgeColouring.from_red_edges(g.m, (g.edge_index[e] for e in red))


def construct_nac_minimally_rigid(g: Graph):
    """A NAC-colouring of a minimally rigid graph, or a 2-tree certificate.

    Read off g's `Answers`, so a member plays no pebble game: one with no
    prism is a 2-tree, any other is coloured from its decomposition,
    whatever its size.  Only a graph that the peel does not take is checked
    for minimal rigidity by a game, and a minimally rigid non-member's
    stable cut gives a NAP-colouring; where the cut search is "skipped" the
    graph is refused with `Answers.refusal`.
    """
    answers = Answers(g)
    dec = answers.decomposition
    if dec is not None:
        if dec.prism_count == 0:
            return TwoTreeCertificate(dec.peel_order)
        return _colouring_from_decomposition(g, dec)
    if not answers.report.is_minimally_rigid:
        raise PreconditionError("input graph is not minimally rigid")
    result, _ = answers.stable_cut
    if result is None:
        raise PreconditionError(answers.refusal)
    return nap_from_separation(g, separation_from_stable_cut(g, result.cut))


# ---------------------------------------------------------------------------
# windowed condition on the ladder family


def ladder_edges(k: int) -> list[tuple[int, int]]:
    """Edge list of the 2k-vertex ladder with crossed rungs (a_i=2i-2, b_i=2i-1)."""
    edges = []
    for i in range(k - 1):
        a, b, a2, b2 = 2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3
        edges += [(a, a2), (b, b2), (a, b2), (b, a2)]
    return sorted(edges)


def locally_nac_check(gk_prime: Graph, c: EdgeColouring, k: int) -> bool:
    """Windowed almost-monochromatic-cycle check on three consecutive rungs."""
    if k < 1:
        raise PreconditionError("k must be positive")
    expected = ladder_edges(k)
    if gk_prime.n != 2 * k or list(gk_prime.edges) != expected:
        raise PreconditionError("graph is not the expected ladder fixture")
    _check_length(gk_prime, c)
    for i in range(k - 2):
        window = {2 * i + j for j in range(6)}
        ids = [j for j, (u, v) in enumerate(gk_prime.edges) if u in window and v in window]
        red = [j for j in ids if c.is_red(j)]
        blue = [j for j in ids if not c.is_red(j)]
        if not _no_almost_cycle(gk_prime, red, blue):
            return False
    return True
