from __future__ import annotations

import hashlib
import io
import json
import os
import random
from itertools import combinations, permutations

import pytest

from rignac.catalog import (
    CatalogEntry,
    _deletable,
    _extension_choices,
    _fan_out,
    _henneberg_children,
    _search_key,
    check_conjecture_61,
    enumerate_minimally_rigid,
    histogram_report,
    load_catalog,
    minimally_rigid_graph6,
    nnac_histogram,
    save_catalog,
)
from rignac.cli import main
from rignac.graph import Graph, PreconditionError, canonical_form, canonical_search, parse_graph6
from rignac.rigidity import rank
from rignac.constructions import make_complete_bipartite
from rignac.stable_cut import exhaustive_stable_cut

from oracles import remove_vertices, signature_canonical_search, slow_henneberg_children, slow_minimally_rigid_graph6

# sha256 of the sorted keys joined by newlines
KEYS_SHA256 = {
    8: "144adb8449964b68a246475671de16ca5d02887177daf8070361100866a54b6e",
    9: "27658300724bf9e566b976925060faca6753c0aef5c31bf5498a21a507995555",
}


def _digest(keys: list[str]) -> str:
    return hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()


PUBLISHED_HISTOGRAM_7 = {0: 12, 1: 25, 2: 4, 3: 18, 4: 1, 6: 2, 7: 5, 12: 1, 15: 1, 31: 1}

PUBLISHED_HISTOGRAM_8 = {
    0: 39, 1: 132, 2: 39, 3: 167, 4: 34, 5: 14, 6: 37, 7: 67, 8: 8, 9: 4,
    10: 3, 11: 1, 12: 13, 13: 6, 14: 1, 15: 22, 16: 2, 18: 3, 22: 1, 23: 1,
    24: 1, 25: 3, 31: 3, 46: 1, 54: 1, 63: 5,
}

PUBLISHED_HISTOGRAM_9 = {
    0: 136, 1: 742, 2: 332, 3: 1410, 4: 450, 5: 304, 6: 547, 7: 976, 8: 302,
    9: 169, 10: 143, 11: 106, 12: 245, 13: 209, 14: 61, 15: 379, 16: 37,
    17: 36, 18: 74, 19: 19, 20: 21, 21: 19, 22: 25, 23: 36, 24: 23, 25: 65,
    26: 6, 27: 42, 28: 3, 29: 4, 30: 19, 31: 105, 32: 10, 33: 5, 34: 10,
    35: 5, 36: 2, 37: 9, 38: 1, 39: 4, 40: 1, 41: 4, 42: 1, 43: 6, 44: 3,
    45: 9, 46: 4, 47: 9, 48: 1, 49: 7, 50: 1, 51: 14, 52: 1, 53: 1, 54: 6,
    55: 2, 58: 1, 62: 1, 63: 21, 66: 1, 72: 2, 78: 1, 82: 1, 85: 1, 86: 2,
    87: 1, 90: 1, 93: 2, 98: 1, 100: 1, 104: 1, 109: 2, 113: 1, 123: 1,
    127: 19,
}


class TestGeneration:
    def test_small_counts(self, laman_keys):
        assert [len(laman_keys[n]) for n in range(3, 8)] == [1, 1, 3, 13, 70]

    def test_matches_brute_force_filter_up_to_6(self, laman_keys):
        for n in (4, 5, 6):
            m = 2 * n - 3
            pairs = list(combinations(range(n), 2))
            classes = set()
            for es in combinations(pairs, m):
                g = Graph.from_edges(n, es)
                if rank(g) == m:
                    classes.add(canonical_form(g).decode("ascii"))
            assert classes == set(laman_keys[n])

    def test_range_validation(self):
        with pytest.raises(PreconditionError):
            minimally_rigid_graph6(2)
        with pytest.raises(PreconditionError):
            minimally_rigid_graph6(9)  # opt-in flag required
        with pytest.raises(PreconditionError):
            minimally_rigid_graph6(10, allow_large=True)

    def test_deterministic_order(self, laman_keys):
        assert laman_keys[6] == sorted(laman_keys[6])
        assert laman_keys[6] == minimally_rigid_graph6(6)

    def test_orbit_pruned_children_match_oracle(self, laman_keys):
        # one extension per orbit of the parent's automorphisms, and no edge
        # split whose child has a degree-2 vertex, loses no class of the level;
        # the returned keys are plain strings, so the parent's generators come
        # from a fresh search; a child linked to the parent is the parent plus
        # a vertex on the recorded pair, and loses an ear of that kind (closed
        # or open) that passes the deletion filter and gives the parent back
        for n in range(3, 8):
            union, slow_union = set(), set()
            for key in laman_keys[n]:
                g = parse_graph6(key)
                parent = _search_key([sorted(a) for a in g.adjacency])
                assert parent[0] == key
                children, linked = _henneberg_children(parent)
                children, slow = set(children), slow_henneberg_children(g)
                assert children <= slow, key
                for child, (p, u, v, closed) in linked.items():
                    assert p == key and child in children and closed == g.has_edge(u, v)
                    eared = Graph.from_edges(n + 1, g.edges + ((u, n), (v, n)))
                    assert canonical_form(eared).decode() == child
                    c = parse_graph6(child)
                    nbrs = [sorted(a) for a in c.adjacency]
                    ears = [w for w in _deletable(nbrs) if len(nbrs[w]) == 2 and c.has_edge(*nbrs[w]) == closed]
                    assert any(canonical_form(remove_vertices(c, [w])[0]).decode() == key for w in ears), child
                union |= children
                slow_union |= slow
            assert union == slow_union, n

    def test_search_key_generators_are_automorphisms_of_the_key(self, laman_keys):
        # the generators are rewritten from the searched graph's vertex ids
        # into the key's labelling, whichever copy of the class was searched
        rnd = random.Random(19)
        for key in [k for n in range(3, 8) for k in laman_keys[n]]:
            g = parse_graph6(key)
            edges = set(g.edges)
            for _ in range(3):
                perm = list(range(g.n))
                rnd.shuffle(perm)
                h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
                found, gens = _search_key([list(a) for a in h.adjacency])
                assert found == key
                for gen in gens:
                    assert sorted(gen) == list(range(g.n)), key
                    assert {(min(gen[u], gen[v]), max(gen[u], gen[v])) for u, v in edges} == edges, key

    @staticmethod
    def _counted_generation(monkeypatch, n: int) -> tuple[list[str], list[tuple]]:
        """The keys, and each canonical search that generation makes: its
        neighbour lists and its (certificate, generators, labelling)."""
        import rignac.catalog as catalog

        calls = []
        search = catalog.canonical_search

        def counted(nbrs):
            found = search(nbrs)
            calls.append(([list(a) for a in nbrs], found))
            return found

        monkeypatch.setattr(catalog, "canonical_search", counted)
        return minimally_rigid_graph6(n, allow_large=True), calls

    @staticmethod
    def _assert_signature_ranking_agrees(calls: list[tuple]) -> None:
        # the ordered-partition search makes the tree that re-ranking every
        # vertex on every refinement pass makes
        for nbrs, found in calls:
            assert found == signature_canonical_search(nbrs), nbrs

    def test_generation_canonical_search_count_n8(self, monkeypatch):
        # deterministic: one search per child that passes the canonical-deletion
        # filter, and none for a parent; searching every child, and each parent
        # again for its automorphisms, takes 1 446
        import rignac.graph as graph

        refined = []
        refine = graph._refine

        def counted_refine(nbrs, cells, colours, first):
            cells = refine(nbrs, cells, colours, first)
            refined.append(len(cells) == len(colours))
            return cells

        monkeypatch.setattr(graph, "_refine", counted_refine)
        keys, calls = self._counted_generation(monkeypatch, 8)
        assert len(keys) == 608
        assert len(calls) == 778
        # one refinement per search-tree node, 1 559 of them at leaves
        assert (len(refined), sum(refined)) == (2622, 1559)
        assert _digest(keys) == KEYS_SHA256[8]
        self._assert_signature_ranking_agrees(calls)

    @staticmethod
    def _counted_histogram(monkeypatch, n: int) -> tuple[dict, int, int]:
        """The report, `count_nac` calls and `nac_masks` calls."""
        import rignac.catalog as catalog

        calls = {"count_nac": 0, "nac_masks": 0}

        def spy(name):
            real = getattr(catalog, name)

            def counted(g):
                calls[name] += 1
                return real(g)

            return counted

        for name in calls:
            monkeypatch.setattr(catalog, name, spy(name))
        report = histogram_report(n, allow_large=True)
        return report, calls["count_nac"], calls["nac_masks"]

    def test_histogram_count_nac_calls_n8(self, monkeypatch):
        # deterministic: one listing per parent of an open-ear root, and one
        # count per root with no degree-2 vertex (and the triangle) that is
        # not such a parent; counting the listed roots too takes 39, one
        # count per closed-ear root 256, one per class 608
        report, counts, listings = self._counted_histogram(monkeypatch, 8)
        assert report["classes"] == 608
        assert (counts, listings) == (33, 67)

    def test_keys_leave_as_plain_strings(self, laman_keys, laman8_keys):
        # the generators a key carries inside generation stay there
        assert all(type(k) is str for n in range(3, 8) for k in laman_keys[n])
        assert all(type(k) is str for k in laman8_keys) and _digest(laman8_keys) == KEYS_SHA256[8]

    def test_generation_canonical_search_count_n9(self, monkeypatch):
        # searching every child, and each parent again, takes 18 273
        keys, calls = self._counted_generation(monkeypatch, 9)
        assert len(keys) == 7222
        assert len(calls) == 9078
        assert _digest(keys) == KEYS_SHA256[9]
        self._assert_signature_ranking_agrees(calls)

    @pytest.mark.skipif(
        not os.environ.get("RIGNAC_LARGE_TESTS"),
        reason="opt-in: ~5 s (set RIGNAC_LARGE_TESTS=1)",
    )
    def test_histogram_count_nac_calls_n9(self, monkeypatch):
        # as at n = 8; counting the listed roots too takes 303, one count per
        # closed-ear root 2 967, one per class 7 222
        report, counts, listings = self._counted_histogram(monkeypatch, 9)
        assert report["histogram"] == {str(k): v for k, v in sorted(PUBLISHED_HISTOGRAM_9.items())}
        assert (counts, listings) == (265, 527)

    def test_deletion_filter_commutes_with_relabelling(self, laman_keys, laman8_keys):
        # the filter reads the graph, not its vertex ids, so a child's new
        # vertex passes it whichever isomorphic copy of the child was built
        rnd = random.Random(2024)
        for key in [k for n in range(3, 8) for k in laman_keys[n]] + laman8_keys:
            g = parse_graph6(key)
            for _ in range(3):
                perm = list(range(g.n))
                rnd.shuffle(perm)
                h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
                passed = _deletable([list(a) for a in g.adjacency])
                assert sorted(perm[v] for v in passed) == sorted(_deletable([list(a) for a in h.adjacency])), key

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool:  # starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        keys = [str(i) for i in range(4000)]
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert list(_fan_out(int, keys, 1000)) == list(range(4000))
        assert sizes == [3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert list(_fan_out(int, keys, 1000)) == list(range(4000))
        assert sizes == [3]

    def test_extension_choices_are_one_per_orbit(self, laman_keys):
        # against orbits under every automorphism, found by brute force
        for n in range(3, 7):
            for key in laman_keys[n]:
                g = parse_graph6(key)
                edges = set(g.edges)
                auts = [
                    p
                    for p in permutations(range(n))
                    if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in g.edges)
                ]
                pairs, triples = _extension_choices(g, canonical_search(g.adjacency)[1], range(n))
                pair_orbits = [frozenset(frozenset((a[u], a[v])) for a in auts) for u, v in pairs]
                all_pairs = {frozenset(p) for p in combinations(range(n), 2)}
                assert len(set(pair_orbits)) == len(pairs) and set().union(*pair_orbits) == all_pairs
                triple_orbits = [frozenset((frozenset((a[x], a[y])), a[z]) for a in auts) for x, y, z in triples]
                all_triples = {(frozenset(e), z) for e in edges for z in range(n) if z not in e}
                assert len(set(triple_orbits)) == len(triples) and set().union(*triple_orbits) == all_triples
                # an apex set closed under the automorphisms keeps the same representatives
                low = [v for v in range(n) if g.degree(v) == 2]
                if len(low) == 1:
                    _, kept = _extension_choices(g, canonical_search(g.adjacency)[1], low)
                    assert kept == [t for t in triples if t[2] == low[0]]

    def test_generation_worker_invariance_n8(self, laman8_keys):
        assert minimally_rigid_graph6(8, workers=2) == laman8_keys

    def test_catalog_json_matches_oracle_generation(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["catalog", "--n", "7", "--threads", "1"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps({"classes": slow_minimally_rigid_graph6(7), "n": 7}) + "\n"


class TestHistograms:
    def test_n6_regenerated_and_reference_flagged(self, catalog6):
        hist, mx = nnac_histogram(catalog6)
        assert hist == {0: 5, 1: 5, 3: 2, 15: 1}
        assert mx == 15
        report = histogram_report(6)
        assert report["classes"] == 13
        # the published reference counts sum to 14 classes; regeneration is the arbiter
        # and the difference must be flagged, never silently accepted
        devs = {d["nnac"]: d for d in report["reference_deviations"]}
        assert set(devs) == {2, 3}
        assert devs[2]["published"] == 3 and devs[2]["regenerated"] == 0
        assert devs[3]["published"] == 0 and devs[3]["regenerated"] == 2

    def test_n7_exact_published_data(self, catalog7):
        hist, mx = nnac_histogram(catalog7)
        assert len(catalog7) == 70
        assert hist == PUBLISHED_HISTOGRAM_7
        assert mx == 31

    def test_n7_unique_maximizer_structure(self, catalog7):
        tops = [e for e in catalog7 if e.nnac == 31]
        assert len(tops) == 1
        k33_ext = make_complete_bipartite(3, 3)
        from rignac.rigidity import zero_extend

        best = None
        for u in range(6):
            for v in range(u + 1, 6):
                child, is_open = zero_extend(k33_ext, u, v)
                if is_open:
                    best = child
                    break
            if best is not None:
                break
        assert canonical_form(best).decode("ascii") == tops[0].graph6

    def test_n8_exact_published_data(self):
        entries = enumerate_minimally_rigid(8)
        hist, mx = nnac_histogram(entries)
        assert len(entries) == 608
        assert hist == PUBLISHED_HISTOGRAM_8
        assert mx == 63

    @pytest.mark.skipif(
        not os.environ.get("RIGNAC_LARGE_TESTS"),
        reason="opt-in: ~10 s with workers (set RIGNAC_LARGE_TESTS=1)",
    )
    def test_n9_exact_published_data(self):
        entries = enumerate_minimally_rigid(9, allow_large=True, workers=8)
        hist, mx = nnac_histogram(entries)
        assert len(entries) == 7222
        assert hist == PUBLISHED_HISTOGRAM_9
        assert mx == 127

    def test_generation_worker_invariance(self, laman_keys):
        assert minimally_rigid_graph6(7, workers=4) == laman_keys[7]

    def test_entry_flags_consistent(self, catalog6, catalog7):
        for e in catalog6 + catalog7:
            if e.is_2tree:
                assert e.nnac == 0 and e.is_gsc and e.prism_count == 0
            if e.is_gsc:
                assert e.nnac == 2 ** e.prism_count - 1
            assert e.is_0ext_graph == (e.min_open_steps is not None)


class TestStructuralProperties:
    def test_no_colouring_iff_2tree(self, catalog6, catalog7):
        for e in catalog6 + catalog7:
            assert (e.nnac == 0) == e.is_2tree

    def test_no_stable_cut_iff_member(self, catalog6, catalog7):
        for e in catalog6 + catalog7:
            has_cut = exhaustive_stable_cut(e.graph) is not None
            assert e.is_gsc == (not has_cut)


class TestConjectureHarness:
    def test_empty_for_6_and_7(self, catalog6, catalog7):
        assert check_conjecture_61(catalog6) == []
        assert check_conjecture_61(catalog7) == []

    def test_subgraph_reading_6_and_7(self, catalog6, catalog7):
        assert check_conjecture_61(catalog6, prism_subgraph_reading=True) == []
        assert check_conjecture_61(catalog7, prism_subgraph_reading=True) == []

    def test_violation_detection_works(self):
        fake = CatalogEntry(
            graph6="D?{",
            nnac=1,
            is_2tree=False,
            is_gsc=False,
            prism_count=None,
            is_0ext_graph=False,
            min_open_steps=None,
        )
        assert len(check_conjecture_61([fake])) == 1


class TestPersistence:
    def test_round_trip(self, catalog6, tmp_path):
        path = tmp_path / "catalog6.jsonl"
        save_catalog(catalog6, 6, str(path))
        n, loaded = load_catalog(str(path))
        assert n == 6 and loaded == catalog6

    def test_truncation_detected(self, catalog6, tmp_path):
        path = tmp_path / "catalog6.jsonl"
        save_catalog(catalog6, 6, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            load_catalog(str(path))
