"""A pinned answer corpus: seeded inputs, each run through `cli.main`
in-process, one line per run.

A line is the command, the input id, the exit code and the sha256 of
stdout, separated by tabs.  Timing fields (`millis`) are dropped from
stdout before hashing.  `test_answer_corpus.py` rebuilds the lines and
compares them with `answer_corpus.txt`; a change that means to change an
answer regenerates the file, and its diff names the runs that changed:

    PYTHONPATH=src python3 tests/answer_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
DATA = HERE / "answer_corpus.txt"

COMMANDS = (("analyze",), ("rank",), ("stable-cut",), ("nac", "construct"))


def inputs() -> Iterator[tuple[str, str]]:
    """(input id, stdin text) for every input of the corpus."""
    from rignac.catalog import minimally_rigid_graph6
    from rignac.constructions import make_2tree
    from rignac.graph import Graph, emit_edge_list

    from oracles import non_member_graphs, random_gsc_member, random_prism_chain, random_two_body, relabelled

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


def corpus_lines() -> list[str]:
    lines = []
    for ident, text in inputs():
        for command in COMMANDS:
            code, out = run(list(command), text)
            digest = hashlib.sha256(_without_millis(out).encode()).hexdigest()
            lines.append(f"{' '.join(command)}\t{ident}\t{code}\t{digest}")
    return lines


if __name__ == "__main__":
    DATA.write_text("\n".join(corpus_lines()) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)
