"""Deterministic generators for the graph families and reference fixtures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .colouring import EdgeColouring, ladder_edges
from .graph import Graph, PreconditionError
from .rigidity import GscDecomposition, GscStep

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class _Lcg:
    """64-bit linear congruential generator with fixed constants.

    Pure integer arithmetic, so corpora are identical across platforms.
    """

    def __init__(self, seed: int) -> None:
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _LCG_MASK
        self._step()

    def _step(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        return self.state

    def below(self, bound: int) -> int:
        return (self._step() >> 33) % bound


def make_2tree(seed: int, n: int) -> Graph:
    """Pseudo-random 2-tree: each new vertex attaches to a seeded edge choice."""
    if n < 2:
        raise PreconditionError("2-tree needs at least two vertices")
    rng = _Lcg(seed)
    edges: list[tuple[int, int]] = [(0, 1)]
    for w in range(2, n):
        u, v = edges[rng.below(len(edges))]
        edges.append((u, w))
        edges.append((v, w))
    return Graph.from_edges(n, edges)


def make_path(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def make_complete(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("complete graph needs at least one vertex")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def make_complete_bipartite(n1: int, n2: int) -> Graph:
    if n1 < 1 or n2 < 1:
        raise PreconditionError("parts must be nonempty")
    return Graph.from_edges(n1 + n2, [(i, n1 + j) for i in range(n1) for j in range(n2)])


def make_wheel(n: int) -> Graph:
    """Hub 0 joined to an (n-1)-cycle."""
    if n < 4:
        raise PreconditionError("wheel needs at least four vertices")
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return Graph.from_edges(n, rim + [(0, i) for i in range(1, n)])


# ---------------------------------------------------------------------------
# the crossed-ladder family


def make_gk(k: int) -> tuple[Graph, dict[str, int]]:
    """The 2k+2-vertex, 4k+1-edge family: x=0, y=1, a_i=2i, b_i=2i+1.

    Returns the graph and the role table {"x","y","a1","b1",...}.
    """
    if k < 1:
        raise PreconditionError("k must be positive")
    roles = {"x": 0, "y": 1}
    edges = [(0, 1)]
    for i in range(1, k + 1):
        roles[f"a{i}"] = 2 * i
        roles[f"b{i}"] = 2 * i + 1
    edges += [(0, 2), (0, 3), (1, 2), (1, 3)]
    for i in range(1, k):
        a, b, a2, b2 = 2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3
        edges += [(a, a2), (b, b2), (a, b2), (b, a2)]
    return Graph.from_edges(2 * k + 2, edges), roles


def make_gk_prime(k: int) -> Graph:
    """The ladder part of make_gk: roles a_i=2i-2, b_i=2i-1."""
    if k < 1:
        raise PreconditionError("k must be positive")
    return Graph.from_edges(2 * k, ladder_edges(k))


# ---------------------------------------------------------------------------
# scripted gluing constructions


def make_gsc(steps: Sequence[Sequence]) -> Graph:
    """Build a member of the gluing family from a script.

    Each step is (piece, glue_type, glue_at) with an optional fourth entry
    "triangle"|"matching" fixing where an edge-glued prism's glue edge sits
    (default "triangle").  New vertices take the next unused ids; the base
    edge is (0, 1).
    """
    built: list[GscStep] = []
    edges = {(0, 1)}
    next_id = 2
    for raw in steps:
        piece, glue_type, glue_at = raw[0], raw[1], tuple(raw[2])
        layout = raw[3] if len(raw) > 3 else None
        if piece not in ("triangle", "prism") or glue_type not in ("edge", "triangle"):
            raise PreconditionError(f"unknown step {raw!r}")
        if glue_type == "edge":
            a, b = sorted(glue_at)
            if (a, b) not in edges:
                raise PreconditionError(f"glue edge ({a},{b}) not present")
            site: tuple[int, ...] = (a, b)
        else:
            site = tuple(sorted(glue_at))
            x, y, z = site
            if not all(e in edges for e in ((x, y), (y, z), (x, z))):
                raise PreconditionError(f"glue triangle {site} not present")
        if piece == "triangle":
            if glue_type == "triangle":
                continue  # gluing a triangle onto a triangle adds nothing
            new: tuple[int, ...] = (next_id,)
            next_id += 1
        elif glue_type == "triangle":
            new = tuple(range(next_id, next_id + 3))
            next_id += 3
        else:
            new = tuple(range(next_id, next_id + 4))
            next_id += 4
            if layout is None:
                layout = "triangle"
            if layout not in ("triangle", "matching"):
                raise PreconditionError(f"unknown prism layout {layout!r}")
        step = GscStep(piece, glue_type, site, new, layout if piece == "prism" and glue_type == "edge" else None)
        built.append(step)
        edges.update(step.edges())
    return GscDecomposition((0, 1), tuple(built)).replay()


def glue_along_edge(h: Graph, e: int, k: int) -> Graph:
    """k copies of h identified along edge e; shared endpoints become 0 and 1."""
    if k < 1:
        raise PreconditionError("k must be positive")
    if not 0 <= e < h.m:
        raise ValueError(f"edge index {e} out of range")
    su, sv = h.edges[e]
    edges: set[tuple[int, int]] = {(0, 1)}
    next_id = 2
    for _ in range(k):
        mapping = {su: 0, sv: 1}
        for w in range(h.n):
            if w not in mapping:
                mapping[w] = next_id
                next_id += 1
        for a, b in h.edges:
            x, y = mapping[a], mapping[b]
            edges.add((min(x, y), max(x, y)))
    return Graph.from_edges(next_id, sorted(edges))


# ---------------------------------------------------------------------------
# reference fixtures


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    minimally_rigid: bool
    nnac: Optional[int] = None
    nac_classes: tuple[EdgeColouring, ...] = ()


_PRISM_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]

_TWELVE_MAX_EDGES = [
    (0, 7), (0, 8), (0, 9),
    (1, 7), (1, 10), (1, 11),
    (2, 8), (2, 10), (2, 11),
    (3, 8), (3, 10), (3, 11),
    (4, 9), (4, 10), (4, 11),
    (5, 9), (5, 10), (5, 11),
    (6, 9), (6, 10), (6, 11),
]

_H18_EDGES = [
    (0, 1), (0, 5), (0, 9),
    (1, 2), (1, 4), (1, 6), (1, 10), (1, 11), (1, 12), (1, 14), (1, 16),
    (2, 3), (2, 5),
    (3, 4), (3, 8), (3, 11),
    (4, 5),
    (5, 6), (5, 10), (5, 11), (5, 12), (5, 14), (5, 16),
    (6, 7),
    (7, 8),
    (8, 9), (8, 13), (8, 15), (8, 17),
    (9, 10),
    (12, 13),
    (14, 15),
    (16, 17),
]

# sha256 of the sorted edge list text; guards against silent edits
FIXTURE_SHA256 = {
    "prism": "80d0db5de30c58491fa6a1776fb703b4de470f9bf43df219d0a8f3fc75b8000b",
    "k33": "f635ef0cfe56ed668e4489aaccbed8b2226c8b6084b8e7ce0b007fe14acb8970",
    "twelve_max": "02dd3c898296f225dd7ea6c1b09597517d10c8d630da4e2d87a7adc1958ad7d6",
    "h18": "32a194ed6d00331cc7719ef9f183fec882d085f1cc7bd497ad75ad1d3c02d76a",
}


def fixture_digest(g: Graph) -> str:
    import hashlib

    text = ";".join(f"{u},{v}" for u, v in g.edges) + f"|{g.n}"
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def fixtures() -> dict[str, Fixture]:
    """Frozen reference graphs with their asserted properties."""
    prism = Graph.from_edges(6, _PRISM_EDGES)
    k33 = make_complete_bipartite(3, 3)
    star_class = EdgeColouring.from_red_edges(9, [3, 4, 5, 6, 7, 8])
    block_class = EdgeColouring.from_red_edges(9, [2, 5, 6, 7])
    return {
        "prism": Fixture(
            "prism",
            prism,
            minimally_rigid=True,
            nnac=1,
            # matching red, both triangles blue (edge indices in canonical order)
            nac_classes=(EdgeColouring.from_red_edges(9, [2, 4, 5]),),
        ),
        "k33": Fixture(
            "k33",
            k33,
            minimally_rigid=True,
            nnac=15,
            nac_classes=(star_class, block_class),
        ),
        "twelve_max": Fixture(
            "twelve_max",
            Graph.from_edges(12, _TWELVE_MAX_EDGES),
            minimally_rigid=True,
        ),
        "h18": Fixture(
            "h18",
            Graph.from_edges(18, _H18_EDGES),
            minimally_rigid=True,
            nnac=180607,
        ),
    }
