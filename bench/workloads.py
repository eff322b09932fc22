"""The benchmark's workloads: seeded inputs, CLI job lists and answer checks.

Each workload is a list of `rignac` command lines with their stdin, the
exit code a correct answer has, and a check of the answer against an
independent oracle (see `oracles.py`). `tiny=True` gives the same job list
on small inputs, which the harness's self-check uses.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable

from oracles import Edges, brute_nac_count, is_nac, is_stable_cut, separates, sorted_edges

# Fixed answers: the h18 fixture's class count (README, ROADMAP), the
# formula 2^(a+b-2) - 1 for K_{a,b}, and OEIS A227117 for Laman classes.
H18_CLASSES = 180_607
K610_CLASSES = 2**14 - 1
LAMAN_CLASSES = {6: 13, 8: 608}


@dataclass(frozen=True)
class Job:
    command: str  # per-command metric the job's time is added to
    argv: tuple[str, ...]
    stdin: str
    exit_code: int  # exit code of a correct answer
    check: Callable[[str], bool]  # stdout -> answer is correct


def _text(edges: Edges) -> str:
    return "\n".join(f"{u} {v}" for u, v in edges) + "\n"


def _colouring_ok(n: int, edges: Edges, obj: dict) -> tuple[bool, frozenset[int]]:
    red, blue = frozenset(obj["red"]), frozenset(obj["blue"])
    partition = not red & blue and red | blue == frozenset(range(len(edges)))
    return partition and is_nac(n, edges, red), red


# ---------------------------------------------------------------------------
# answer checks, one per kind of job


def _nac_count(expected: int) -> Callable[[str], bool]:
    return lambda out: json.loads(out)["nnac"] == str(expected)


def _nac_list(n: int, edges: Edges, expected: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        seen: set[int] = set()  # red edges as bitmasks, so the check adds little to peak RSS
        for line in re.finditer(".+", out):  # one line at a time, not a list of them all
            ok, red = _colouring_ok(n, edges, json.loads(line[0]))
            mask = sum(1 << i for i in red)
            if not ok or 0 in red or mask in seen:
                return False
            seen.add(mask)
        return len(seen) == expected

    return check


def _catalog(n: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        d = json.loads(out)
        want = LAMAN_CLASSES[n]
        return d["n"] == n and d["classes"] == want and sum(d["histogram"].values()) == want

    return check


def _analyze_2tree(n: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        d = json.loads(out)
        return (
            (d["n"], d["m"], d["rank"]) == (n, 2 * n - 3, 2 * n - 3)
            and d["rigid"] and d["minimally_rigid"] and not d["flexible"]
            and d["rigid_components"] == 1
            and d["two_tree"]
            and d["gsc"]["member"]
            and d["stable_cut"] is None
        )

    return check


def _analyze_two_body(n: int, edges: Edges) -> Callable[[str], bool]:
    # two rigid bodies and the two bars joining them are the four rigid components
    def check(out: str) -> bool:
        d = json.loads(out)
        return (
            (d["n"], d["m"], d["rank"]) == (n, 2 * n - 4, 2 * n - 4)
            and d["flexible"] and not d["rigid"] and not d["minimally_rigid"]
            and d["rigid_components"] == 4
            and not d["two_tree"]
            and not d["gsc"]["member"]
            and d["stable_cut"] is not None
            and is_stable_cut(n, edges, d["stable_cut"])
        )

    return check


def _rank(n: int, rank: int) -> Callable[[str], bool]:
    return lambda out: json.loads(out) == {"rank": rank, "max_rank": 2 * n - 3}


def _separating_cut(n: int, edges: Edges, u: int, v: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        d = json.loads(out)
        cut = d["cut"]
        return (
            cut is not None
            and d["separates"] == [u, v]
            and is_stable_cut(n, edges, cut)
            and separates(n, edges, cut, u, v)
        )

    return check


def _no_cut(out: str) -> bool:
    return json.loads(out)["cut"] is None


def _nac_construct(n: int, edges: Edges) -> Callable[[str], bool]:
    return lambda out: _colouring_ok(n, edges, json.loads(out))[0]


# ---------------------------------------------------------------------------
# seeded inputs


def _laman_body(rng: random.Random, vertices: list[int]) -> set[tuple[int, int]]:
    """A minimally rigid graph by Henneberg steps: a triangle, then 0- and 1-extensions."""
    a, b, c = vertices[:3]
    edges = set(sorted_edges([(a, b), (a, c), (b, c)]))
    for i in range(3, len(vertices)):
        w, old = vertices[i], vertices[:i]
        if rng.random() < 0.5:
            x, y = rng.sample(old, 2)
            edges.update(sorted_edges([(x, w), (y, w)]))
        else:
            x, y = rng.choice(sorted(edges))
            edges.remove((x, y))
            z = rng.choice([t for t in old if t not in (x, y)])
            edges.update(sorted_edges([(x, w), (y, w), (z, w)]))
    return edges


def two_body(rng: random.Random, n: int) -> tuple[list[tuple[int, int]], int, int]:
    """Two Laman bodies of n/2 vertices joined by two disjoint bars: m = 2n - 4.

    Returns the edges and a vertex of each body that is on neither bar, so
    the pair shares no rigid component.
    """
    half = n // 2
    edges = _laman_body(rng, list(range(half))) | _laman_body(rng, list(range(half, n)))
    a1, a2, u = rng.sample(range(half), 3)
    b1, b2, v = rng.sample(range(half, n), 3)
    edges.update([(a1, b1), (a2, b2)])
    return sorted(edges), u, v


def prism_chain(rng: random.Random, prisms: int) -> tuple[int, list[tuple[int, int]]]:
    """A chain of prisms, each glued along an edge of the previous one (make_gsc)."""
    from rignac.constructions import make_gsc

    steps: list[list] = []
    glue = (0, 1)
    for _ in range(prisms):
        steps.append(["prism", "edge", list(glue), rng.choice(["triangle", "matching"])])
        g = make_gsc(steps)
        new = range(g.n - 4, g.n)
        glue = rng.choice([e for e in g.edges if e[0] in new and e[1] in new])
    return g.n, list(g.edges)


def _subseed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# ---------------------------------------------------------------------------
# workloads


def nac_enum(rng: random.Random, tiny: bool) -> list[Job]:
    """NAC branch-and-bound on triangle-free graphs: count, count on 2 workers, list.

    The seed does not relabel the inputs: random relabellings of h18 move
    its search from 1.2 M to 5.0 M nodes, which would swamp any bound.
    """
    from rignac.constructions import fixtures

    if tiny:
        count_n, count_edges = 6, sorted_edges((i, 3 + j) for i in range(3) for j in range(3))
        count_classes = brute_nac_count(count_n, count_edges)
        a, b = 2, 4
    else:
        h18 = fixtures()["h18"].graph
        count_n, count_edges, count_classes = h18.n, list(h18.edges), H18_CLASSES
        a, b = 6, 10
    list_edges = sorted_edges((i, a + j) for i in range(a) for j in range(b))
    list_classes = brute_nac_count(a + b, list_edges) if tiny else K610_CLASSES
    count_text = _text(count_edges)
    return [
        Job("nac_count_s", ("nac", "count", "--threads", "1"), count_text, 0, _nac_count(count_classes)),
        Job("nac_count_2w_s", ("nac", "count", "--threads", "2"), count_text, 0, _nac_count(count_classes)),
        Job(
            "nac_list_s",
            ("nac", "list", "--threads", "1"),
            _text(list_edges),
            0,
            _nac_list(a + b, list_edges, list_classes),
        ),
    ]


def catalog_n8(rng: random.Random, tiny: bool) -> list[Job]:
    """The whole class of Laman graphs on n vertices; the seed has no effect."""
    n = 6 if tiny else 8
    return [Job("catalog_s", ("catalog", "--n", str(n), "--histogram", "--threads", "1"), "", 0, _catalog(n))]


def sparse_large(rng: random.Random, tiny: bool) -> list[Job]:
    """Rigidity on graphs with hundreds of vertices: 2-trees and two-body graphs.

    Each pass runs two seeded instances of every job, so one unusual
    instance moves the pass time less.
    """
    from rignac.constructions import make_2tree

    tree_n, body_n, cut_n, instances = (20, 20, 16, 1) if tiny else (100, 200, 100, 2)
    jobs = []
    for _ in range(instances):
        tree = list(make_2tree(_subseed(rng), tree_n).edges)
        bodies, _, _ = two_body(rng, body_n)
        cut_edges, u, v = two_body(rng, cut_n)
        jobs += [
            Job("analyze_s", ("analyze",), _text(tree), 0, _analyze_2tree(tree_n)),
            Job("analyze_s", ("analyze",), _text(bodies), 0, _analyze_two_body(body_n, bodies)),
            Job("rank_s", ("rank",), _text(bodies), 0, _rank(body_n, 2 * body_n - 4)),
            Job(
                "stable_cut_s",
                ("stable-cut", "--separate", str(u), str(v)),
                _text(cut_edges),
                0,
                _separating_cut(cut_n, cut_edges, u, v),
            ),
        ]
    return jobs


def tight_small(rng: random.Random, tiny: bool) -> list[Job]:
    """Rigid graphs with n <= 30, where exhaustive stable-cut search decides.

    A 2-tree has no stable cut, so both 2-tree jobs must answer with a null
    cut. The 7-prism chain (n = 30) is a member of the gluing family, so
    `nac construct` has an answer; today it refuses with exit 3, and that
    refusal counts as a failed job.
    """
    from rignac.constructions import make_2tree

    tree_n, short_chain = (10, 1) if tiny else (18, 4)
    tree = list(make_2tree(_subseed(rng), tree_n).edges)
    chain_n, chain = prism_chain(rng, short_chain)
    long_n, long_chain = prism_chain(rng, 7)
    return [
        Job("analyze_s", ("analyze",), _text(tree), 0, _analyze_2tree(tree_n)),
        Job("stable_cut_s", ("stable-cut",), _text(tree), 1, _no_cut),
        Job("construct_s", ("nac", "construct"), _text(chain), 0, _nac_construct(chain_n, chain)),
        Job("construct_s", ("nac", "construct"), _text(long_chain), 0, _nac_construct(long_n, long_chain)),
    ]


WORKLOADS = {
    "nac-enum": nac_enum,
    "catalog-n8": catalog_n8,
    "sparse-large": sparse_large,
    "tight-small": tight_small,
}

COMMANDS = (
    "nac_count_s",
    "nac_count_2w_s",
    "nac_list_s",
    "catalog_s",
    "analyze_s",
    "rank_s",
    "stable_cut_s",
    "construct_s",
)


def build(name: str, seed: int, tiny: bool = False) -> list[Job]:
    return WORKLOADS[name](random.Random(seed), tiny)
