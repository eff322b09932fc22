from __future__ import annotations

import io
import json
import random
import time
from collections import Counter

import pytest

from rignac import cli, colouring, rigidity, stable_cut
from rignac.cli import main
from rignac.graph import Graph, connected_components, emit_graph6, parse_graph, parse_graph6
from rignac.constructions import fixtures, make_2tree, make_complete_bipartite, make_gk
from rignac.rigidity import gsc_decomposition

from oracles import (
    brute_is_nap,
    deadline,
    dfs_nac_masks,
    glued_copies,
    non_member_graphs,
    random_eared_laman,
    random_graph,
    random_laman_edges,
    random_prism_chain,
    random_two_body,
    triangulated_grid,
    two_trees_with_bars,
)


def run_cli(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


PRISM_EDGES = "\n".join(f"{u} {v}" for u, v in fixtures()["prism"].graph.edges)


def edge_text(g: Graph) -> str:
    return "\n".join(f"{u} {v}" for u, v in g.edges)


def search_stdout(g: Graph, masks: list[int]) -> str:
    """What `nac list` prints for these red-edge masks."""
    lines = []
    for mask in masks:
        red = [i for i in range(g.m) if mask >> i & 1]
        blue = [i for i in range(g.m) if not mask >> i & 1]
        lines.append(json.dumps({"red": red, "blue": blue}))
    return "\n".join(lines) + "\n"


# minimally rigid, not in the gluing family, and no vertex has a stable
# neighbourhood, so the stable cut comes from exhaustive search
NON_MEMBER_EDGES = "0 1\n0 5\n1 2\n1 5\n2 3\n2 4\n3 4\n3 5\n4 5"

# the same graph with 30 ears on edge 0-1: 36 vertices, still no stable
# neighbourhood, and above the exhaustive search limit
EARED_NON_MEMBER_EDGES = NON_MEMBER_EDGES + "".join(f"\n0 {w}\n1 {w}" for w in range(6, 36))

# the same graph with 40 prisms glued along edge 0-1 (166 vertices): a peel
# that branched over prism moves took seconds here already with 12 prisms
PRISM_GLUED_NON_MEMBER_EDGES = NON_MEMBER_EDGES + "".join(
    f"\n0 {p}\n1 {p}\n{q} {r}\n{r} {t}\n{q} {t}\n0 {q}\n1 {r}\n{p} {t}"
    for p, q, r, t in ((w, w + 1, w + 2, w + 3) for w in range(6, 166, 4))
)

# a random minimally rigid non-member on 60 vertices with an ear at each
# vertex: no stable neighbourhood, and too wide for the search's budget
WIDE_NON_MEMBER_EDGES = edge_text(random_eared_laman(random.Random(60), 60))
WIDE_REFUSAL = (
    "no stable cut found: the frontier programme passed its budget of 65536 states per level "
    "at level 61 of 120, frontier width 20"
)

# K5 and a disjoint edge: m = 2n - 3, but not connected
K5_K2 = Graph.from_edges(7, [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(5, 6)])


class TestAnalyze:
    def test_prism_report(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze", "--count"], PRISM_EDGES)
        assert code == 0
        report = json.loads(out)
        assert report["rigid"] and report["minimally_rigid"] and not report["two_tree"]
        assert report["gsc"] == {"member": True, "prisms": 1}
        assert report["nnac"] == "1"
        assert report["stable_cut"] is None

    def test_k2_two_tree(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze", "--count"], "0 1")
        report = json.loads(out)
        assert code == 0 and report["two_tree"] and report["nnac"] == "0"

    def test_c4_stable_cut(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze"], "0 1\n1 2\n2 3\n0 3")
        report = json.loads(out)
        assert code == 0 and not report["rigid"]
        assert sorted(report["stable_cut"]) in ([0, 2], [1, 3])

    def test_parse_error_exit_2(self, monkeypatch, capsys):
        code, out, err = run_cli(monkeypatch, capsys, ["analyze"], "0 1\n0 1")
        assert code == 2 and "parse error" in err

    def test_deep_2tree_is_a_member(self, monkeypatch, capsys):
        g = make_2tree(51, 1500)
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze"], edge_text(g))
        report = json.loads(out)
        assert code == 0 and report["two_tree"]
        assert report["gsc"] == {"member": True, "prisms": 0}
        assert report["stable_cut"] is None and report["stable_cut_method"] == "gsc"

    def test_deep_2tree_count(self, monkeypatch, capsys):
        g = make_2tree(55, 1500)
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze", "--count"], edge_text(g))
        assert code == 0 and json.loads(out)["nnac"] == "0"

    def test_small_non_member_keeps_exhaustive_cut(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze"], NON_MEMBER_EDGES)
        report = json.loads(out)
        assert code == 0 and report["minimally_rigid"]
        assert report["gsc"] == {"member": False, "reason": "stable cut"}
        assert report["stable_cut"] == [2, 5] and report["stable_cut_method"] == "exhaustive"

    def test_disconnected_graph_with_2n_minus_3_edges_has_a_cut(self, monkeypatch, capsys):
        # the edge count matches, and the empty set (among others) is a
        # stable cut, so the gluing-family reason is the cut
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze"], edge_text(K5_K2))
        report = json.loads(out)
        assert code == 0 and not report["connected"] and (report["n"], report["m"]) == (7, 11)
        assert report["gsc"] == {"member": False, "reason": "stable cut"}
        assert report["stable_cut"] is not None

    def test_large_non_member_needs_no_witness_search(self, monkeypatch, capsys):
        g, _ = make_gk(12)  # 26 vertices, above the exhaustive search limit
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze"], edge_text(g))
        report = json.loads(out)
        assert code == 0 and report["minimally_rigid"]
        assert report["gsc"] == {"member": False, "reason": "stable cut"}
        assert report["stable_cut_method"] == "neighbourhood" and report["stable_cut"] is not None


class TestMembersPlayNoGame:
    """The peel answers for gluing-family members: `analyze`, `stable-cut`
    and `nac construct` play the pebble game only on non-members, and each
    peels and plays at most once per graph."""

    COMMANDS = (["analyze"], ["stable-cut"], ["nac", "construct"])

    def peels_and_games(self, monkeypatch, capsys, argv, g: Graph) -> tuple[int, int]:
        """Peels of g and pebble games on g; Algorithm 1's pin-graph games
        are on other graphs and are not counted."""
        calls = Counter()

        def spy(module, name):
            real = getattr(module, name)

            def counted(h):
                calls[name] += h == g
                return real(h)

            monkeypatch.setattr(module, name, counted)

        spy(rigidity, "_peel")
        spy(rigidity, "pebble_game")
        spy(stable_cut, "pebble_game")
        run_cli(monkeypatch, capsys, argv, edge_text(g))
        return calls["_peel"], calls["pebble_game"]

    def test_members(self, monkeypatch, capsys):
        for g in (make_2tree(61, 40), random_prism_chain(random.Random(62), 5)):
            for argv in self.COMMANDS:
                assert self.peels_and_games(monkeypatch, capsys, argv, g) == (1, 0), argv

    def test_minimally_rigid_non_member(self, monkeypatch, capsys):
        g = non_member_graphs()[6]
        for argv in self.COMMANDS:
            assert self.peels_and_games(monkeypatch, capsys, argv, g) == (1, 1), argv

    def test_flexible_graph_answered_by_algorithm1(self, monkeypatch, capsys):
        # m = 2n - 4, so nothing is peeled; the one game gives the components
        g = two_trees_with_bars()
        for argv in self.COMMANDS:
            assert self.peels_and_games(monkeypatch, capsys, argv, g) == (0, 1), argv
        _, out, _ = run_cli(monkeypatch, capsys, ["stable-cut"], edge_text(g))
        assert json.loads(out)["method"] == "algorithm1"

    def test_stable_neighbourhood_needs_no_game(self, monkeypatch, capsys):
        # a tight non-member whose cut is a vertex neighbourhood: `stable-cut`
        # never reads the rigidity report, so the record plays no game for it
        g, _ = make_gk(2)
        assert self.peels_and_games(monkeypatch, capsys, ["stable-cut"], g) == (1, 0)
        assert self.peels_and_games(monkeypatch, capsys, ["analyze"], g) == (1, 1)
        assert self.peels_and_games(monkeypatch, capsys, ["nac", "construct"], g) == (1, 1)

    def test_disconnected_graph_is_not_peeled(self, monkeypatch, capsys):
        want = {"analyze": (0, 1), "stable-cut": (0, 0), "nac": (0, 1)}
        for argv in self.COMMANDS:
            assert self.peels_and_games(monkeypatch, capsys, argv, K5_K2) == want[argv[0]], argv

    def test_16000_vertex_2tree(self, monkeypatch, capsys):
        g = make_2tree(7, 16000)
        text = edge_text(g)
        with deadline(2):
            assert gsc_decomposition(g).prism_count == 0
        for argv in (["nac", "construct"], ["analyze"]):
            with deadline(2):
                code, out, _ = run_cli(monkeypatch, capsys, argv, text)
            assert code == (1 if argv[0] == "nac" else 0) and out, argv


class TestOneComponentSearch:
    """A graph's connected components are searched once and cached on it:
    a tight non-member under `analyze` reads them at the CLI, in the
    rigidity report and in the stable-cut search, and `stable-cut
    --separate` at the CLI and in Algorithm 1."""

    def whole_graph_searches(self, monkeypatch, capsys, argv, g: Graph) -> int:
        from rignac import graph

        calls = []
        real = graph.connected_components_without

        def spy(h, removed=()):
            removed = list(removed)
            if not removed:
                calls.append(h)
            return real(h, removed)

        monkeypatch.setattr(graph, "connected_components_without", spy)
        code, _, _ = run_cli(monkeypatch, capsys, argv, edge_text(g))
        assert code == 0, argv
        return len(calls)

    def test_one_search_per_command(self, monkeypatch, capsys):
        for g in non_member_graphs().values():
            assert self.whole_graph_searches(monkeypatch, capsys, ["analyze"], g) == 1
        for n in (12, 40):
            g = random_two_body(random.Random(n), n)
            argv = ["stable-cut", "--separate", "0", str(n - 1)]
            assert self.whole_graph_searches(monkeypatch, capsys, argv, g) == 1

    def test_stable_cut_searches_g_minus_the_cut_once(self, monkeypatch, capsys):
        # the validated result carries its component count to the payload
        from rignac import graph

        removed_sets = []
        real = graph.connected_components_without

        def spy(h, removed=()):
            removed_sets.append(frozenset(removed))
            return real(h, removed)

        for module in (graph, stable_cut, cli):
            monkeypatch.setattr(module, "connected_components_without", spy)
        argv = ["stable-cut", "--separate", "0", "79"]
        code, out, _ = run_cli(monkeypatch, capsys, argv, edge_text(two_trees_with_bars()))
        payload = json.loads(out)
        assert code == 0 and payload["method"] == "algorithm1" and payload["components_after_removal"] == 2
        assert [s for s in removed_sets if s] == [frozenset(payload["cut"])]


class TestNac:
    def test_count_raw(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["nac", "count", "--raw"], PRISM_EDGES)
        assert code == 0 and out.strip() == "1"

    def test_count_json_fields(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["nac", "count"], PRISM_EDGES)
        payload = json.loads(out)
        assert payload["nnac"] == "1" and payload["nodes"] > 0 and "millis" in payload

    def test_exists_negative_on_2tree(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["nac", "exists"], "0 1\n0 2\n1 2")
        assert code == 1 and out.strip() == "false"

    def test_list_outputs_json_lines(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["nac", "list"], PRISM_EDGES)
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and len(lines) == 1
        assert set(lines[0]) == {"red", "blue"}

    def test_count_refuses_past_the_state_budget(self, monkeypatch, capsys):
        # a random 40-vertex Laman graph passes 65 536 states in a level
        text = edge_text(Graph.from_edges(40, random_laman_edges(random.Random(40), list(range(40)))))
        with deadline(15.0):
            code, out, err = run_cli(monkeypatch, capsys, ["nac", "count"], text)
        reason = "the frontier programme passed its budget of 65536 states per level at level 24 of 67, frontier width 12"
        assert code == 3 and out == "" and err == f"precondition failed: {reason}\n"

    def test_construct_on_2tree_reports_peel(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["nac", "construct"], "0 1\n0 2\n1 2")
        assert code == 1
        assert json.loads(out)["two_tree_peel"]

    def test_construct_refuses_large_non_member(self, monkeypatch, capsys):
        with deadline(3.0):
            code, out, err = run_cli(monkeypatch, capsys, ["nac", "construct"], WIDE_NON_MEMBER_EDGES)
        assert code == 3 and out == "" and err == f"precondition failed: {WIDE_REFUSAL}\n"

    def test_construct_colours_the_eared_non_member(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["nac", "construct"], EARED_NON_MEMBER_EDGES)
        g = non_member_graphs()[36]
        red = json.loads(out)["red"]
        assert code == 0 and brute_is_nap(g, sum(1 << i for i in red))

    def test_count_is_the_same_at_every_worker_count(self, monkeypatch, capsys):
        h18 = edge_text(fixtures()["h18"].graph)
        payloads = []
        for threads in ("1", "2"):
            code, out, _ = run_cli(monkeypatch, capsys, ["nac", "count", "--threads", threads], h18)
            assert code == 0
            payloads.append(json.loads(out))
        assert payloads[0]["nnac"] == payloads[1]["nnac"] == "180607"
        assert payloads[0]["nodes"] == payloads[1]["nodes"] > 0

    def test_exists_on_a_deep_2tree(self, monkeypatch, capsys):
        # a 2-tree has no NAC-colouring, which an edge-by-edge search needs
        # exponential time to find out
        text = edge_text(make_2tree(1, 1500))
        for argv in (["nac", "exists"], ["nap", "exists"]):
            with deadline(20.0):
                start = time.perf_counter()
                code, out, _ = run_cli(monkeypatch, capsys, argv, text)
                elapsed = time.perf_counter() - start
            assert code == 1 and out == "false\n", argv
            assert elapsed < 1.0, (argv, elapsed)

    def test_nac_and_nap_list_match_the_search(self, monkeypatch, capsys, laman_keys):
        # every class with n <= 7, K_{3,3}, K_{6,10} and seeded random graphs;
        # graph6 input keeps isolated vertices and the edge indices
        graphs = [Graph.from_edges(2, [(0, 1)])]
        graphs += [parse_graph6(key) for n in laman_keys for key in laman_keys[n]]
        graphs += [make_complete_bipartite(3, 3), make_complete_bipartite(6, 10)]
        rnd = random.Random(4300)
        for _ in range(150):
            n = rnd.randrange(2, 10)
            graphs.append(random_graph(rnd, n, rnd.randrange(1, 2 * n)))
        assert sum(not all(g.adjacency) for g in graphs) >= 10
        assert sum(len(connected_components(g)) > 1 for g in graphs) >= 10
        for g in graphs:
            masks, _ = dfs_nac_masks(g)
            text = emit_graph6(g)
            code, out, _ = run_cli(monkeypatch, capsys, ["nac", "list"], text)
            assert code == 0 and out == search_stdout(g, masks), g.edges
            naps = [mask for mask in masks if brute_is_nap(g, mask)]
            code, out, _ = run_cli(monkeypatch, capsys, ["nap", "list"], text)
            assert code == 0 and out == search_stdout(g, naps), g.edges

    def test_list_out_matches_stdout(self, monkeypatch, capsys, tmp_path):
        text = edge_text(make_complete_bipartite(6, 10))
        for action in ("nac", "nap"):
            code, out, _ = run_cli(monkeypatch, capsys, [action, "list"], text)
            assert code == 0 and out.count("\n") == (2 ** 14 - 1 if action == "nac" else 542)
            path = tmp_path / f"{action}.txt"
            code, printed, _ = run_cli(monkeypatch, capsys, [action, "list", "--out", str(path)], text)
            assert code == 0 and printed == "" and path.read_bytes() == out.encode()

    def test_nap_list_out_is_the_json_of_each_colouring(self, monkeypatch, capsys, tmp_path):
        # K_{6,10}'s 542 NAP-colourings, written to a file, are the bytes of
        # json.dumps on each, in the order of the search (`is_nap` filters it)
        g = make_complete_bipartite(6, 10)
        naps = [mask for mask in dfs_nac_masks(g)[0] if colouring.is_nap(g, colouring.EdgeColouring(g.m, mask))]
        path = tmp_path / "nap.txt"
        code, printed, _ = run_cli(monkeypatch, capsys, ["nap", "list", "--out", str(path)], edge_text(g))
        assert code == 0 and printed == "" and len(naps) == 542
        assert path.read_bytes() == search_stdout(g, naps).encode()

    def test_list_of_one_unit_is_one_blank_line(self, monkeypatch, capsys):
        # one edge, K_3 and a 2-tree each form one triangle class
        for g in (Graph.from_edges(2, [(0, 1)]), Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), make_2tree(5, 9)):
            code, out, _ = run_cli(monkeypatch, capsys, ["nac", "list"], edge_text(g))
            assert code == 0 and out == "\n", g.edges

    def test_threads_flag(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys, ["nac", "count", "--raw", "--threads", "2"], PRISM_EDGES
        )
        assert code == 0 and out.strip() == "1"


class TestNap:
    def test_exists_on_bowtie(self, monkeypatch, capsys):
        bowtie = "0 1\n0 2\n1 2\n2 3\n2 4\n3 4"
        code, out, _ = run_cli(monkeypatch, capsys, ["nap", "exists"], bowtie)
        assert code == 0 and out.strip() == "true"

    def test_exists_negative_on_prism(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["nap", "exists"], PRISM_EDGES)
        assert code == 1 and out.strip() == "false"

    def test_exists_on_a_random_40_vertex_laman_graph(self, monkeypatch, capsys):
        text = edge_text(Graph.from_edges(40, random_laman_edges(random.Random(40), list(range(40)))))
        with deadline(2.0):
            code, out, _ = run_cli(monkeypatch, capsys, ["nap", "exists"], text)
        assert code == 0 and out == "true\n"

    def test_exists_on_large_random_laman_graphs(self, monkeypatch, capsys):
        # n = 200 and 2 000, as built, minus one edge (flexible) and plus
        # n / 10 edges: a stable cut of the core is a NAP-colouring, and
        # `Answers` finds one where the labelling programme is too wide
        for n in (200, 2000):
            rnd = random.Random(n)
            edges = random_laman_edges(rnd, list(range(n)))
            more = set(edges)
            while len(more) < len(edges) + n // 10:
                more.add(tuple(sorted(rnd.sample(range(n), 2))))
            for variant in (edges, edges - {min(edges)}, more):
                text = edge_text(Graph.from_edges(n, variant))
                with deadline(1.0):
                    code, out, _ = run_cli(monkeypatch, capsys, ["nap", "exists"], text)
                assert code == 0 and out == "true\n", (n, len(variant))

    def test_exists_on_100_vertex_two_body_graphs(self, monkeypatch, capsys):
        # connected and flexible, so Algorithm 1 gives the stable cut
        for seed in range(4):
            text = edge_text(random_two_body(random.Random(seed), 100))
            with deadline(1.0):
                code, out, _ = run_cli(monkeypatch, capsys, ["nap", "exists"], text)
            assert code == 0 and out == "true\n", seed

    def test_exists_refuses_as_stable_cut_does(self, monkeypatch, capsys):
        with deadline(3.0):
            code, out, err = run_cli(monkeypatch, capsys, ["nap", "exists"], WIDE_NON_MEMBER_EDGES)
        assert code == 3 and out == "" and WIDE_REFUSAL in err

    def test_exists_runs_no_labelling_programme_where_a_theorem_answers(self, monkeypatch, capsys):
        # h18 has a stable vertex neighbourhood, and the peel takes a 2-tree
        calls = []
        real = stable_cut._labellings

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(stable_cut, "_labellings", counted)
        monkeypatch.setattr(colouring, "_labellings", counted)
        for g, want in ((fixtures()["h18"].graph, (0, "true\n")), (make_2tree(1, 1500), (1, "false\n"))):
            code, out, _ = run_cli(monkeypatch, capsys, ["nap", "exists"], edge_text(g))
            assert (code, out) == want
        assert calls == []


class TestStableCut:
    def test_separate(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys, ["stable-cut", "--separate", "0", "2"], "0 1\n1 2\n2 3\n0 3"
        )
        payload = json.loads(out)
        assert code == 0 and payload["cut"] == [1, 3] and payload["separates"] == [0, 2]
        assert payload["components_after_removal"] == 2

    def test_separate_on_a_400_vertex_two_body_graph(self, monkeypatch, capsys):
        # vertices 0 and 200 lie in different bodies, on neither joining edge
        text = edge_text(random_two_body(random.Random(400), 400))
        with deadline(0.5):
            code, out, _ = run_cli(monkeypatch, capsys, ["stable-cut", "--separate", "0", "200"], text)
        payload = json.loads(out)
        assert code == 0 and payload["method"] == "algorithm1" and payload["cut"] == [83, 241]

    def test_avoid(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["stable-cut", "--avoid", "0"], "0 1\n1 2\n2 3\n0 3")
        payload = json.loads(out)
        assert code == 0 and 0 not in payload["cut"]

    def test_precondition_exit_3(self, monkeypatch, capsys):
        code, _, err = run_cli(
            monkeypatch, capsys, ["stable-cut", "--separate", "0", "4"], PRISM_EDGES
        )
        assert code == 3 and "precondition failed" in err

    def test_members_have_no_cut_by_the_peel(self, monkeypatch, capsys):
        for g in (make_2tree(52, 18), random_prism_chain(random.Random(53), 7)):
            code, out, _ = run_cli(monkeypatch, capsys, ["stable-cut"], edge_text(g))
            assert code == 1 and json.loads(out) == {"cut": None, "method": "gsc"}

    def test_non_member_keeps_exhaustive_cut(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["stable-cut"], NON_MEMBER_EDGES)
        payload = json.loads(out)
        assert code == 0 and payload["method"] == "exhaustive"
        assert payload["cut"] == [2, 5] and payload["components_after_removal"] == 2

    def test_large_non_member_is_skipped(self, monkeypatch, capsys):
        # past the search's state budget nothing is proven, so this is a
        # refusal (exit 3), not a negative answer
        with deadline(3.0):
            code, out, _ = run_cli(monkeypatch, capsys, ["stable-cut"], WIDE_NON_MEMBER_EDGES)
        assert code == 3 and json.loads(out) == {"cut": None, "method": "skipped", "reason": WIDE_REFUSAL}

    def test_analyze_keeps_exit_0_when_skipped(self, monkeypatch, capsys):
        with deadline(3.0):
            code, out, _ = run_cli(monkeypatch, capsys, ["analyze"], WIDE_NON_MEMBER_EDGES)
        report = json.loads(out)
        assert code == 0 and report["stable_cut"] is None and report["stable_cut_method"] == "skipped"
        assert report["gsc"] == {"member": False, "reason": "stable cut"}

    def test_eared_non_member_gets_the_exhaustive_cut(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["stable-cut"], EARED_NON_MEMBER_EDGES)
        payload = json.loads(out)
        assert code == 0 and payload["cut"] == [2, 5] and payload["method"] == "exhaustive"
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze"], EARED_NON_MEMBER_EDGES)
        report = json.loads(out)
        assert code == 0 and report["stable_cut"] == [2, 5] and report["stable_cut_method"] == "exhaustive"

    def test_prism_glued_non_member_is_cut_quickly(self, monkeypatch, capsys):
        with deadline(0.5):
            code, out, _ = run_cli(monkeypatch, capsys, ["stable-cut"], PRISM_GLUED_NON_MEMBER_EDGES)
        payload = json.loads(out)
        assert code == 0 and payload["cut"] == [2, 5] and payload["method"] == "exhaustive"
        with deadline(0.5):
            code, out, _ = run_cli(monkeypatch, capsys, ["analyze"], PRISM_GLUED_NON_MEMBER_EDGES)
        report = json.loads(out)
        assert code == 0 and report["n"] == 166 and report["stable_cut"] == [2, 5]
        assert report["gsc"] == {"member": False, "reason": "stable cut"}

    def test_glued_chain_is_cut_quickly(self, monkeypatch, capsys):
        # 150 copies of a 9-vertex non-member, end to end: 1 052 vertices
        chain = glued_copies(parse_graph6("H`?NTh["), 150)
        with deadline(2.0):
            code, out, _ = run_cli(monkeypatch, capsys, ["stable-cut"], edge_text(chain))
        payload = json.loads(out)
        assert code == 0 and chain.n == 1052 and payload["cut"] == [6, 7, 8] and payload["method"] == "exhaustive"

    def test_triangulated_grid_has_no_stable_cut(self, monkeypatch, capsys):
        text = edge_text(triangulated_grid(8, 8))
        with deadline(1.0):
            code, out, _ = run_cli(monkeypatch, capsys, ["stable-cut"], text)
        assert code == 1 and json.loads(out) == {"cut": None, "method": "exhaustive"}
        code, out, _ = run_cli(monkeypatch, capsys, ["nap", "exists"], text)
        assert code == 1 and out == "false\n"

    def test_peel_is_checked_against_exhaustive_search(self, monkeypatch, capsys):
        # a peel that misses a member contradicts Le and Pfender: exhaustive
        # search finds no stable cut, and that must not pass silently
        monkeypatch.setattr("rignac.stable_cut.gsc_decomposition", lambda g: None)
        with pytest.raises(RuntimeError, match="recognizer is incomplete"):
            run_cli(monkeypatch, capsys, ["stable-cut"], edge_text(make_2tree(54, 10)))

    def test_vertex_out_of_range_exit_2(self, monkeypatch, capsys):
        c4 = "0 1\n1 2\n2 3\n0 3"
        for flags in (["--separate", "0", "4"], ["--separate", "-1", "2"], ["--avoid", "4"], ["--avoid", "-1"]):
            code, out, err = run_cli(monkeypatch, capsys, ["stable-cut", *flags], c4)
            assert code == 2 and out == "", flags
            assert err.startswith("input error: vertex") and err.count("\n") == 1, flags

    @pytest.mark.parametrize(
        "flags",
        [["--exhaustive", "--separate", "0", "3"], ["--exhaustive", "--avoid", "3"], ["--separate", "0", "3", "--avoid", "1"]],
    )
    def test_modes_are_exclusive(self, monkeypatch, capsys, flags):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n2 3\n3 4\n4 5\n0 5"))
        with pytest.raises(SystemExit) as exc:
            main(["stable-cut", *flags])
        assert exc.value.code == 2 and "not allowed with argument" in capsys.readouterr().err

    def test_disconnected_graph_above_the_limit_gets_the_empty_cut(self, monkeypatch, capsys):
        k13 = [(i, j) for i in range(13) for j in range(i + 1, 13)]
        text = edge_text(Graph.from_edges(26, k13 + [(i + 13, j + 13) for i, j in k13]))
        want = {"avoids": None, "components_after_removal": 2, "cut": [], "method": "exhaustive", "separates": None}
        for flags in ([], ["--exhaustive"]):
            code, out, _ = run_cli(monkeypatch, capsys, ["stable-cut", *flags], text)
            assert code == 0 and json.loads(out) == want, flags
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze"], text)
        report = json.loads(out)
        assert code == 0 and report["stable_cut"] == [] and report["stable_cut_method"] == "exhaustive"

    def test_named_vertices_in_a_disconnected_graph(self, monkeypatch, capsys):
        # the empty cut separates vertices of two parts and avoids every vertex;
        # a pair inside one part still needs a connected graph
        k13 = [(i, j) for i in range(13) for j in range(i + 1, 13)]
        two_k13 = edge_text(Graph.from_edges(26, k13 + [(i + 13, j + 13) for i, j in k13]))
        triangle_and_path = "0 1\n1 2\n0 2\n3 4\n4 5"
        for text, flags, separates, avoids in [
            (two_k13, ["--separate", "0", "25"], [0, 25], None),
            (two_k13, ["--avoid", "0"], None, 0),
            (triangle_and_path, ["--separate", "5", "1"], [5, 1], None),
            (triangle_and_path, ["--avoid", "4"], None, 4),
        ]:
            code, out, _ = run_cli(monkeypatch, capsys, ["stable-cut", *flags], text)
            payload = json.loads(out)
            assert code == 0 and payload.pop("separates") == separates and payload.pop("avoids") == avoids
            assert payload == {"components_after_removal": 2, "cut": [], "method": "exhaustive"}, flags
        for text, pair in [(two_k13, ["0", "12"]), (triangle_and_path, ["3", "5"])]:
            code, out, err = run_cli(monkeypatch, capsys, ["stable-cut", "--separate", *pair], text)
            assert code == 3 and out == "" and "graph is not connected" in err, pair

    def test_exhaustive_none_exit_1(self, monkeypatch, capsys):
        k4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3"
        code, out, _ = run_cli(monkeypatch, capsys, ["stable-cut", "--exhaustive"], k4)
        assert code == 1 and json.loads(out)["cut"] is None


class TestConstruct:
    def test_families_round_trip(self, monkeypatch, capsys):
        for spec, n, m in (
            (["construct", "path", "5"], 5, 4),
            (["construct", "cycle", "6"], 6, 6),
            (["construct", "complete-bipartite", "3", "3"], 6, 9),
            (["construct", "gk", "2"], 6, 9),
            (["construct", "two-tree", "3", "7"], 7, 11),
            (["construct", "fixture", "h18"], 18, 33),
        ):
            code, out, _ = run_cli(monkeypatch, capsys, spec)
            assert code == 0
            g = parse_graph(out)
            assert (g.n, g.m) == (n, m)

    def test_graph6_emission(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["construct", "fixture", "prism", "--emit", "graph6"])
        assert code == 0
        assert parse_graph(out).m == 9

    def test_gsc_script(self, monkeypatch, capsys):
        script = json.dumps([["prism", "edge", [0, 1]]])
        code, out, _ = run_cli(monkeypatch, capsys, ["construct", "gsc", script])
        assert code == 0 and parse_graph(out).m == 9

    def test_unknown_family_exit_2(self, monkeypatch, capsys):
        code, _, err = run_cli(monkeypatch, capsys, ["construct", "moebius", "5"])
        assert code == 2

    @staticmethod
    def assert_bad_parameters(monkeypatch, capsys, argv, detail):
        code, out, err = run_cli(monkeypatch, capsys, argv)
        assert code == 2 and out == "" and err.startswith("bad construct parameters:") and detail in err, err

    def test_path_too_long_for_graph6_exit_2(self, monkeypatch, capsys):
        argv = ["construct", "path", "100", "--emit", "graph6"]
        self.assert_bad_parameters(monkeypatch, capsys, argv, "62 vertices")

    def test_complete_too_large_for_graph6_exit_2(self, monkeypatch, capsys):
        argv = ["construct", "complete", "70", "--emit", "graph6"]
        self.assert_bad_parameters(monkeypatch, capsys, argv, "62 vertices")

    def test_gsc_glue_site_not_a_list_exit_2(self, monkeypatch, capsys):
        argv = ["construct", "gsc", '[["triangle","edge",5]]']
        self.assert_bad_parameters(monkeypatch, capsys, argv, "not iterable")

    def test_gsc_script_not_a_list_exit_2(self, monkeypatch, capsys):
        self.assert_bad_parameters(monkeypatch, capsys, ["construct", "gsc", "{}"], "JSON list of steps")


class TestCatalogCommand:
    def test_histogram(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["catalog", "--n", "6", "--histogram"])
        payload = json.loads(out)
        assert code == 0 and payload["classes"] == 13
        assert payload["histogram"] == {"0": 5, "1": 5, "3": 2, "15": 1}
        assert payload["reference_deviations"]

    def test_check_conjecture(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["catalog", "--n", "6", "--check-conjecture"])
        payload = json.loads(out)
        assert code == 0
        assert payload["violations_construction_reading"] == []
        assert payload["violations_subgraph_reading"] == []

    def test_save_and_out(self, monkeypatch, capsys, tmp_path):
        out_path = tmp_path / "c6.jsonl"
        code, _, err = run_cli(monkeypatch, capsys, ["catalog", "--n", "6", "--out", str(out_path)])
        assert code == 0 and out_path.exists()
        from rignac.catalog import load_catalog

        n, entries = load_catalog(str(out_path))
        assert n == 6 and len(entries) == 13

    def test_out_keeps_the_catalog_and_reports_go_to_stdout(self, monkeypatch, capsys, tmp_path):
        out_path = tmp_path / "c6.jsonl"
        argv = ["catalog", "--n", "6", "--out", str(out_path), "--histogram", "--check-conjecture"]
        code, out, _ = run_cli(monkeypatch, capsys, argv)
        from rignac.catalog import load_catalog

        n, entries = load_catalog(str(out_path))
        assert code == 0 and n == 6 and len(entries) == 13
        histogram, conjecture = map(json.loads, out.splitlines())
        assert histogram["classes"] == 13 and histogram["histogram"] == {"0": 5, "1": 5, "3": 2, "15": 1}
        assert conjecture["n"] == 6 and conjecture["violations_construction_reading"] == []


class TestMisc:
    def test_rank_command(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["rank"], PRISM_EDGES)
        assert code == 0 and json.loads(out) == {"rank": 9, "max_rank": 9}

    def test_components_command(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["components"], "0 1\n2 3")
        assert json.loads(out)["components"] == [[0, 1], [2, 3]]

    def test_label_map_reported(self, monkeypatch, capsys):
        code, out, err = run_cli(
            monkeypatch, capsys, ["rank", "--format", "edgelist"], "a b\nb c\nc a"
        )
        assert code == 0 and "label map" in err

    def test_label_map_does_not_depend_on_the_format_flag(self, monkeypatch, capsys):
        for text, labels in (("a b\nb c\nc a", "'a', 1: 'b', 2: 'c'"), ("5 7\n7 9\n9 5", "'5', 1: '7', 2: '9'")):
            for command in ("rank", "components"):
                runs = [run_cli(monkeypatch, capsys, [command, *flags], text) for flags in ([], ["--format", "edgelist"])]
                assert runs[0] == runs[1], (text, command)
                assert runs[0][2] == f"label map: {{0: {labels}}}\n", (text, command)
        _, out, _ = run_cli(monkeypatch, capsys, ["components"], "5 7\n7 9\n9 5")
        assert json.loads(out) == {"components": [[0, 1, 2]]}
        for flags in ([], ["--format", "edgelist"]):
            code, out, err = run_cli(monkeypatch, capsys, ["components", *flags], "0 1\n1 2\n2 0\n3 4")
            assert code == 0 and err == "" and json.loads(out) == {"components": [[0, 1, 2], [3, 4]]}

    def test_graph6_flag_reads_what_auto_reads(self, monkeypatch, capsys):
        # comments and blank lines around the one graph6 string, in either form
        for text in ("# a triangle\nBw\n", "\nBw  # a triangle\n\n"):
            runs = [run_cli(monkeypatch, capsys, ["rank", *flags], text) for flags in ([], ["--format", "graph6"])]
            assert runs[0] == runs[1] == (0, '{"max_rank": 3, "rank": 3}\n', ""), text

    def test_selftest_passes(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["selftest"])
        assert code == 0
        assert "FAIL" not in out and "PASS" in out

    def test_missing_file_exit_2(self, monkeypatch, capsys, tmp_path):
        for command in (["rank"], ["stable-cut"], ["nac", "count"]):
            code, out, err = run_cli(monkeypatch, capsys, [*command, "--file", str(tmp_path / "missing")])
            assert code == 2 and out == "", command
            assert err.startswith("input error: cannot read") and err.count("\n") == 1, command

    def test_out_in_a_missing_directory_exit_2(self, monkeypatch, capsys, tmp_path):
        target = str(tmp_path / "missing" / "out.json")
        for command, stdin in ((["rank"], PRISM_EDGES), (["nac", "list"], PRISM_EDGES), (["catalog", "--n", "4"], "")):
            code, out, err = run_cli(monkeypatch, capsys, [*command, "--out", target], stdin)
            assert code == 2 and out == "", command
            assert err.startswith("input error: cannot write") and err.count("\n") == 1, command

    def test_non_utf8_input_exit_2(self, monkeypatch, capsys, tmp_path):
        data = b"0 1\n\xff\xfe 2\n"
        path = tmp_path / "binary"
        path.write_bytes(data)
        code, out, err = run_cli(monkeypatch, capsys, ["rank", "--file", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("input error:") and "not UTF-8" in err and err.count("\n") == 1
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code = main(["rank"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("input error: stdin is not UTF-8") and err.count("\n") == 1

    def test_binary_stdin_under_a_c_locale_exit_2(self, monkeypatch, capsys):
        # a C locale decodes stdin with surrogateescape, which would hand the
        # parser escaped bytes; the byte buffer is decoded strictly instead
        data = b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0xb8))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii", errors="surrogateescape"))
        code = main(["rank"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "input error: stdin is not UTF-8 text: invalid start byte at byte 8\n"

    def test_usage_error_exit_2(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nac", "frobnicate"])
        assert exc.value.code == 2

    def test_single_vertex_graph6(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze"], "@")
        report = json.loads(out)
        assert code == 0 and report["n"] == 1 and report["rigid"]

    def test_catalog_threads_flag(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys, ["catalog", "--n", "6", "--histogram", "--threads", "2"]
        )
        assert code == 0 and json.loads(out)["classes"] == 13

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_catalog_threads_below_one_is_a_usage_error(self, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "--n", "6", "--threads", threads])
        assert exc.value.code == 2
        assert "argument --threads: expected an integer of at least 1" in capsys.readouterr().err


class TestParserReuse:
    """main reuses one parser; no option of one call leaks into the next."""

    C6 = "0 1\n1 2\n2 3\n3 4\n4 5\n0 5"
    CALLS = [
        (["stable-cut", "--separate", "0", "3"], C6),
        (["stable-cut"], C6),
        (["stable-cut", "--avoid", "0"], C6),
        (["stable-cut"], C6),
        (["nac", "count", "--raw"], C6),
        (["nac", "count"], C6),
        (["catalog", "--n", "6", "--histogram"], ""),
        (["analyze"], C6),
        (["analyze", "--count"], PRISM_EDGES),
        (["analyze"], PRISM_EDGES),
        (["rank", "--format", "edgelist"], "a b\nb c\nc a"),
        (["rank"], "B?"),
    ]

    def run_all(self, monkeypatch, capsys) -> list[tuple[int, str]]:
        runs = []
        for argv, stdin in self.CALLS:
            code, out, _ = run_cli(monkeypatch, capsys, argv, stdin)
            if '"millis"' in out:  # a timing, the one field that may differ between runs
                report = json.loads(out)
                del report["millis"]
                out = json.dumps(report)
            runs.append((code, out))
        return runs

    def test_calls_match_calls_with_a_fresh_parser(self, monkeypatch, capsys):
        reused = self.run_all(monkeypatch, capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert reused == self.run_all(monkeypatch, capsys)
        outs = [out for _, out in reused]
        assert outs[0] != outs[1] == outs[3] != outs[2]
        assert outs[4].strip().isdigit() and not outs[5].strip().isdigit()
        assert "histogram" in outs[6] and json.loads(outs[7])["n"] == 6

    def test_the_parser_is_built_once(self):
        assert cli._parser() is cli._parser()
