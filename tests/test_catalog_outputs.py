"""Each `catalog` output computes only what it prints: the key list
classifies nothing, the histogram counts NAC-colourings only, and `--out`
and `--check-conjecture` classify every class in full.  NAC-colourings are
counted once per closed-ear root: a class with a closed ear (a degree-2
vertex on an edge) takes its parent's count, since the canonical-deletion
filter keeps the closed ears whenever there are any.  The spies replace the
names that `rignac.catalog` calls."""

from __future__ import annotations

from collections import Counter

import pytest

from rignac import catalog
from rignac.catalog import enumerate_minimally_rigid, histogram_report, minimally_rigid_graph6, nnac_histogram
from rignac.cli import main
from rignac.colouring import count_nac
from rignac.graph import Graph, parse_graph6

from oracles import brute_nnac

SPIED = ("count_nac", "gsc_decomposition", "recognize_0extension_graph")


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


def has_closed_ear(g: Graph) -> bool:
    """Whether g has a vertex of degree 2 with adjacent neighbours: then
    generation reaches g by a closed ear on the class of g minus that
    vertex.  The triangle is where generation starts."""
    nbrs = [sorted(a) for a in g.adjacency]
    return g.n > 3 and any(len(a) == 2 and g.has_edge(*a) for a in nbrs)


def assert_counted_once_per_root(counted: Counter, roots: int) -> None:
    assert set(counted.values()) == {1} and len(counted) == roots
    assert not any(has_closed_ear(Graph(n, edges)) for n, edges in counted)


def test_histogram_counts_each_root_once_and_recognizes_nothing(calls, capsys):
    assert main(["catalog", "--n", "7", "--histogram"]) == 0
    assert '"classes": 70' in capsys.readouterr().out
    assert_counted_once_per_root(calls["count_nac"], 32)
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
    assert_counted_once_per_root(calls["count_nac"], 32)
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
