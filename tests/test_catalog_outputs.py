"""Each `catalog` output computes only what it prints: the key list
classifies nothing, the histogram counts NAC-colourings only, and `--out`
and `--check-conjecture` classify every class in full.  A class with a
closed ear (a degree-2 vertex on an edge) takes its parent's count, since
the canonical-deletion filter keeps the closed ears whenever there are any.
A root with an open ear (a degree-2 vertex on two non-adjacent vertices) is
counted from one listing of its parent's NAC-colourings, and a root that is
such a parent from the listing's length, so `count_nac` runs only on the
triangle and on the other roots with no degree-2 vertex, none of them
listed.  The spies replace the names that `rignac.catalog` calls."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from rignac import catalog
from rignac.catalog import (
    _open_ear_counts,
    enumerate_minimally_rigid,
    histogram_report,
    minimally_rigid_graph6,
    nnac_histogram,
)
from rignac.cli import main
from rignac.colouring import count_nac
from rignac.graph import Graph, emit_graph6, is_connected, parse_graph6

from oracles import brute_nnac, remove_vertices

SPIED = ("count_nac", "nac_masks", "gsc_decomposition", "recognize_0extension_graph")


@pytest.fixture
def calls(monkeypatch):
    """name -> Counter of the graphs (n, edges) it was called on."""
    seen = {name: Counter() for name in SPIED}

    def spy(name):
        real = getattr(catalog, name)

        def wrapper(g, *args, **kwargs):
            seen[name][(g.n, g.edges)] += 1
            return real(g, *args, **kwargs)

        return wrapper

    for name in SPIED:
        monkeypatch.setattr(catalog, name, spy(name))
    return seen


def once_per_class(n: int) -> Counter:
    return Counter((g.n, g.edges) for g in map(catalog.parse_graph6, minimally_rigid_graph6(n)))


def has_ear(g: Graph) -> bool:
    """Whether g has a vertex of degree 2: then generation reaches g by a
    0-extension of the class of g minus that vertex.  The triangle is where
    generation starts."""
    return g.n > 3 and any(len(a) == 2 for a in g.adjacency)


def assert_counted_once_per_root(calls: dict, roots: int, parents: int) -> None:
    counted, listed = calls["count_nac"], calls["nac_masks"]
    assert set(counted.values()) == {1} and len(counted) == roots
    assert not any(has_ear(Graph(n, edges)) for n, edges in counted)
    assert set(listed.values()) == {1} and len(listed) == parents
    assert not set(counted) & set(listed)


def test_histogram_counts_each_root_once_and_recognizes_nothing(calls, capsys):
    assert main(["catalog", "--n", "7", "--histogram"]) == 0
    assert '"classes": 70' in capsys.readouterr().out
    assert_counted_once_per_root(calls, 5, 13)
    assert not calls["gsc_decomposition"] and not calls["recognize_0extension_graph"]


def test_key_list_classifies_nothing(calls, capsys):
    assert main(["catalog", "--n", "7"]) == 0
    assert len(capsys.readouterr().out.split(",")) == 71
    assert not any(calls.values())


@pytest.mark.parametrize("flag", ["--out", "--check-conjecture"])
def test_out_and_conjecture_classify_each_class_once(flag, calls, capsys, tmp_path):
    argv = ["catalog", "--n", "7", flag] + ([str(tmp_path / "c.jsonl")] if flag == "--out" else [])
    assert main(argv) == 0
    capsys.readouterr()
    assert_counted_once_per_root(calls, 5, 13)
    want = once_per_class(7)
    assert calls["gsc_decomposition"] == calls["recognize_0extension_graph"] == want


@pytest.mark.parametrize("n", range(3, 9))
def test_counted_histogram_equals_the_classified_one(n):
    entries = enumerate_minimally_rigid(n)
    report = histogram_report(n)
    assert report == histogram_report(n, entries=entries)
    hist, mx = nnac_histogram(entries)
    assert (report["histogram"], report["max_nnac"]) == ({str(k): v for k, v in sorted(hist.items())}, mx)


def test_counted_histogram_on_two_workers(catalog7):
    assert histogram_report(7, workers=2) == histogram_report(7, entries=catalog7)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", range(3, 9))
def test_histogram_equals_the_count_of_every_class(n, workers):
    hist = Counter(count_nac(parse_graph6(k)) for k in minimally_rigid_graph6(n))
    report = histogram_report(n, workers=workers)
    assert report["histogram"] == {str(k): v for k, v in sorted(hist.items())}
    # the histograms agree even when two classes swap counts, so check that
    # each class gets its own
    for e in enumerate_minimally_rigid(n, workers=workers):
        assert e.nnac == count_nac(e.graph), e.graph6


def test_a_closed_ear_keeps_the_count(laman_keys):
    # nnac(G + w on ab) = nnac(G) for every edge ab of every class, n <= 7
    for n, keys in laman_keys.items():
        for key in keys:
            g = parse_graph6(key)
            nnac = count_nac(g)
            for a, b in g.edges:
                eared = Graph.from_edges(n + 1, g.edges + ((a, n), (b, n)))
                assert count_nac(eared) == nnac, (key, a, b)
                if n <= 6:
                    assert brute_nnac(eared) == nnac, (key, a, b)


def open_ear_count(g: Graph, w: int) -> int:
    """nnac(g) from the NAC-colourings of g - w, w an open ear."""
    parent, kept = remove_vertices(g, [w])
    a, b = (kept.index(v) for v in sorted(g.adjacency[w]))
    return _open_ear_counts((emit_graph6(parent), [(a, b)]))[0]


def test_every_open_ear_gives_the_count(laman_keys, laman8_keys):
    # any open ear of any class with n <= 8, not only the one the filter keeps
    ears = 0
    for key in [k for n in range(4, 8) for k in laman_keys[n]] + laman8_keys:
        g = parse_graph6(key)
        nnac = count_nac(g)
        for w in range(g.n):
            if g.degree(w) == 2 and not g.has_edge(*g.adjacency[w]):
                assert open_ear_count(g, w) == nnac, (key, w)
                ears += 1
    assert ears == 621


def test_open_ears_on_random_graphs_against_brute_force():
    rnd = random.Random(31)
    tested = 0
    while tested < 300:
        n = rnd.randrange(3, 8)
        pairs = list(combinations(range(n), 2))
        parent = Graph.from_edges(n, rnd.sample(pairs, rnd.randrange(n - 1, min(len(pairs), 9) + 1)))
        apart = [p for p in pairs if not parent.has_edge(*p)]
        if not apart or not is_connected(parent):
            continue
        a, b = rnd.choice(apart)
        g = Graph.from_edges(n + 1, parent.edges + ((a, n), (b, n)))
        assert open_ear_count(g, n) == brute_nnac(g), (parent.edges, a, b)
        tested += 1


def test_open_ear_on_a_2_tree_counts_one():
    # the parent has no NAC-colouring; only the monochromatic one extends
    parent = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    g = Graph.from_edges(5, parent.edges + ((0, 4), (3, 4)))
    assert count_nac(parent) == 0
    assert open_ear_count(g, 4) == count_nac(g) == brute_nnac(g) == 1


def test_open_ear_across_a_bridge():
    # two triangles joined by the bridge 23; the ear closes a cycle through it
    parent = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    g = Graph.from_edges(7, parent.edges + ((0, 6), (5, 6)))
    assert count_nac(parent) == 3
    assert open_ear_count(g, 6) == count_nac(g) == brute_nnac(g) == 10


@pytest.mark.parametrize("flags", [["--histogram"], ["--out", "OUT", "--check-conjecture"]])
def test_n8_outputs_do_not_depend_on_the_worker_count(flags, capsys, tmp_path):
    seen = []
    for threads in ("1", "2"):
        out = tmp_path / f"c{threads}.jsonl"
        argv = ["catalog", "--n", "8", "--threads", threads] + [str(out) if f == "OUT" else f for f in flags]
        assert main(argv) == 0
        seen.append((capsys.readouterr().out, out.read_bytes() if "OUT" in flags else None))
    assert seen[0] == seen[1]
