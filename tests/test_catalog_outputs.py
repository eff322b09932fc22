"""Each `catalog` output computes only what it prints: the key list
classifies nothing, the histogram counts NAC-colourings only, and `--out`
and `--check-conjecture` classify every class in full.  The spies replace
the names that `rignac.catalog` calls."""

from __future__ import annotations

from collections import Counter

import pytest

from rignac import catalog
from rignac.catalog import enumerate_minimally_rigid, histogram_report, minimally_rigid_graph6, nnac_histogram
from rignac.cli import main

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


def test_histogram_counts_each_class_once_and_recognizes_nothing(calls, capsys):
    assert main(["catalog", "--n", "7", "--histogram"]) == 0
    assert '"classes": 70' in capsys.readouterr().out
    assert calls["count_nac"] == once_per_class(7)
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
    want = once_per_class(7)
    assert all(calls[name] == want for name in SPIED)


@pytest.mark.parametrize("n", range(3, 9))
def test_counted_histogram_equals_the_classified_one(n):
    entries = enumerate_minimally_rigid(n)
    report = histogram_report(n)
    assert report == histogram_report(n, entries=entries)
    hist, mx = nnac_histogram(entries)
    assert (report["histogram"], report["max_nnac"]) == ({str(k): v for k, v in sorted(hist.items())}, mx)


def test_counted_histogram_on_two_workers(catalog7):
    assert histogram_report(7, workers=2) == histogram_report(7, entries=catalog7)
