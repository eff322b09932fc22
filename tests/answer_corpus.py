"""A pinned answer corpus: seeded inputs, each run through `cli.main`
in-process, one line per run.

A line is the command, the input id, the exit code and the sha256 of
stdout, separated by tabs.  Timing fields (`millis`) are dropped from
stdout before hashing.  Every input gets the runs of `commands`, and the
`catalog` runs, which read no input, come last with input id "-".
A `catalog` run with `--out F` writes F in a temporary directory, and
its hash covers stdout followed by F's bytes.
`test_answer_corpus.py` rebuilds the lines and compares them with
`answer_corpus.txt`.  `--check` does the same without writing: it prints
each changed run (command, input id, old and new exit code) and each line
that was added or went missing, and exits 1 on any difference.  A change
that means to change an answer regenerates the file, and its diff names
the runs that changed:

    PYTHONPATH=src python3 tests/answer_corpus.py [--check]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from functools import cache
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
DATA = HERE / "answer_corpus.txt"

CATALOG_RUNS = [["catalog", "--n", str(n), flag] for n in range(3, 7) for flag in ("--histogram", "--check-conjecture")]
CATALOG_RUNS.append(["catalog", "--n", "6", "--histogram", "--threads", "2"])
CATALOG_RUNS += [["catalog", "--n", str(n)] for n in range(3, 8)]
CATALOG_RUNS += [
    ["catalog", "--n", "7", "--histogram"],
    ["catalog", "--n", "6", "--histogram", "--check-conjecture"],
    ["catalog", "--n", "6", "--out", "F", "--histogram"],
]


def commands(n: int) -> Iterator[list[str]]:
    """The runs made on an input with n vertices (0 if it does not parse).
    A pair of vertices is named by the input alone: 0 and n - 1, which lie
    in different bodies of a two-body graph.  `stable-cut --exhaustive`
    runs the vertex-labelling programme, which is exponential in the
    frontier width: the 100-vertex two-body graphs keep 25 000 to 84 000
    states per level and take seconds each, so it runs on inputs with fewer
    than 100 vertices.  `nap exists` reads the stable cut of `Answers` and
    runs on every input."""
    yield from (["analyze"], ["rank"], ["stable-cut"], ["nac", "construct"], ["components"])
    if n < 100:
        yield ["stable-cut", "--exhaustive"]
    if n >= 2:
        yield ["stable-cut", "--separate", "0", str(n - 1)]
        yield ["stable-cut", "--avoid", "0"]
    if n <= 12:
        yield from (["nac", "count"], ["nac", "exists"])
    yield ["nap", "exists"]
    if n <= 10:
        yield from (["nac", "list"], ["nap", "list"])


def vertex_count(text: str) -> int:
    from rignac.graph import GraphParseError, parse_graph

    try:
        return parse_graph(text).n
    except GraphParseError:
        return 0


def inputs() -> Iterator[tuple[str, str]]:
    """(input id, stdin text) for every input of the corpus."""
    from rignac.catalog import minimally_rigid_graph6
    from rignac.constructions import make_2tree, make_complete
    from rignac.graph import Graph, emit_edge_list, emit_graph6

    from oracles import (
        non_member_graphs,
        random_eared_laman,
        random_flexible_connected,
        random_graph,
        random_gsc_member,
        random_laman_edges,
        random_prism_chain,
        random_two_body,
        relabelled,
        triangulated_grid,
    )

    for n in range(3, 8):
        for key in minimally_rigid_graph6(n):
            yield f"laman{n}:{key}", key
    for seed in range(4):
        for n in (3, 12, 40, 150):
            tree = make_2tree(seed, n)
            yield f"two-tree:{seed}:{n}", emit_edge_list(tree)
            yield f"two-tree-relabelled:{seed}:{n}", emit_edge_list(relabelled(tree, random.Random(seed)))
    for seed in range(4):
        for prisms in (1, 3, 7):
            chain = random_prism_chain(random.Random(seed), prisms)
            yield f"prism-chain:{seed}:{prisms}", emit_edge_list(chain)
            yield f"prism-chain-relabelled:{seed}:{prisms}", emit_edge_list(relabelled(chain, random.Random(seed)))
        yield f"gsc-member:{seed}", emit_edge_list(random_gsc_member(random.Random(seed), 8))
    for seed in range(4):
        for n in (8, 20, 100):
            yield f"two-body:{seed}:{n}", emit_edge_list(random_two_body(random.Random(seed), n))
    for n, g in non_member_graphs().items():
        yield f"non-member:{n}", emit_edge_list(g)
    # K5 and a disjoint edge: m = 2n - 3, but not connected
    k5_k2 = [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(5, 6)]
    yield "disconnected:k5+k2", emit_edge_list(Graph.from_edges(7, k5_k2))
    for i, g in enumerate(random_flexible_connected(2301, 12, 4, 20)):
        yield f"flexible:{i}", emit_edge_list(g)
    bases = {
        "k4": make_complete(4),
        "two-body:12": random_two_body(random.Random(0), 12),
        "prism-chain:1": random_prism_chain(random.Random(0), 1),
    }
    for name, g in bases.items():
        for k in (1, 3):
            yield f"isolated:{name}+{k}", emit_graph6(Graph(g.n + k, g.edges))
    yield "isolated:k1", emit_graph6(Graph(1, ()))
    yield "isolated:empty5", emit_graph6(Graph(5, ()))
    yield "named:k4", "a b\nb c\nc a\na d\nb d\nc d"
    for seed, n in ((0, 20), (1, 12)):
        g = relabelled(random_two_body(random.Random(seed), n), random.Random(seed))
        yield f"named:two-body:{seed}:{n}", "\n".join(f"v{u} v{w}" for u, w in g.edges)
    yield "parse-error:three-tokens", "0 1\n1 2\n2 0 3"
    # rigid graphs with 1-4 redundant edges, and dense random graphs
    for seed in range(2):
        rnd = random.Random(2500 + seed)
        for n in range(6, 13):
            edges = random_laman_edges(rnd, list(range(n)))
            extra = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
            edges |= set(rnd.sample(extra, 1 + (n + seed) % 4))
            yield f"redundant:{seed}:{n}", emit_edge_list(Graph.from_edges(n, edges))
        for n in range(6, 13):
            g = random_graph(rnd, n, rnd.randrange(2 * n, 3 * n + 1))
            yield f"dense:{seed}:{n}", emit_edge_list(g)
    # no stable cut, decided exactly; and a non-member past the search's budget
    yield "triangulated-grid:8x8", emit_edge_list(triangulated_grid(8, 8))
    yield "eared-laman:60", emit_edge_list(random_eared_laman(random.Random(60), 60))


def _without_millis(out: str) -> str:
    lines = []
    for line in out.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        if isinstance(obj, dict) and "millis" in obj:
            del obj["millis"]
            line = json.dumps(obj, sort_keys=True)
        lines.append(line)
    return "\n".join(lines)


def run(argv: list[str], text: str) -> tuple[int, str]:
    """(exit code, stdout) of one `cli.main` call with `text` on stdin;
    stderr is discarded."""
    from rignac.cli import main

    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def run_catalog(argv: list[str]) -> tuple[int, str]:
    """`run` for a catalog command; the file named F, if any, is written in
    a temporary directory and its bytes follow stdout."""
    if "F" not in argv:
        return run(argv, "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.jsonl"
        code, out = run([str(path) if a == "F" else a for a in argv], "")
        return code, out + (path.read_bytes().decode() if path.exists() else "")


@cache
def corpus_runs() -> tuple[tuple[str, str, int, str], ...]:
    """(command, input id, exit code, stdout) of every run, in file order."""
    runs = [(argv, ident, text) for ident, text in inputs() for argv in commands(vertex_count(text))]
    answers = [(" ".join(argv), ident, *run(argv, text)) for argv, ident, text in runs]
    return tuple(answers + [(" ".join(argv), "-", *run_catalog(argv)) for argv in CATALOG_RUNS])


def corpus_lines() -> list[str]:
    lines = []
    for command, ident, code, out in corpus_runs():
        digest = hashlib.sha256(_without_millis(out).encode()).hexdigest()
        lines.append(f"{command}\t{ident}\t{code}\t{digest}")
    return lines


def differences(want: list[str], got: list[str]) -> list[str]:
    """What differs between the pinned lines `want` and the rebuilt `got`,
    one message per run: a changed answer names its command, input id and
    old and new exit code; a run only one side has is printed whole."""
    old = {tuple(line.split("\t")[:2]): line for line in want}
    new = {tuple(line.split("\t")[:2]): line for line in got}
    out = []
    for key, line in new.items():
        if key not in old:
            out.append(f"added: {line}")
        elif old[key] != line:
            code_was, code_is = old[key].split("\t")[2], line.split("\t")[2]
            out.append(f"changed: {key[0]} on {key[1]}: exit {code_was} -> {code_is}")
    out += [f"missing: {line}" for key, line in old.items() if key not in new]
    if not out and list(old) != list(new):
        out.append("same runs in a different order")
    return out


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        diff = differences(DATA.read_text().splitlines(), corpus_lines())
        print("\n".join(diff) or f"{DATA.name}: no differences")
        sys.exit(1 if diff else 0)
    DATA.write_text("\n".join(corpus_lines()) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)
