from __future__ import annotations

import os
import random
import time
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from rignac import stable_cut
from rignac.catalog import minimally_rigid_graph6
from rignac.graph import Graph, PreconditionError, connected_components_without, is_connected, is_stable_set, parse_graph6
from rignac.rigidity import pebble_game, rank, rigid_components, rigidity_report, rigidly_related_pairs
from rignac.stable_cut import (
    StableCutResult,
    _alg1,
    algorithm1_stable_cut,
    exhaustive_stable_cut,
    find_stable_cut,
    is_biconnected,
    stable_cut_avoiding,
)
from rignac.constructions import make_cycle, make_gk, make_path

from oracles import (
    brute_stable_cuts,
    deadline,
    is_cut,
    random_connected_graph,
    random_eared_laman,
    random_flexible_connected,
    random_graph,
    random_laman_edges,
    random_two_body,
    remove_edge_index,
    scan_stable_cut,
    slow_alg1,
    two_trees_with_bars,
)


# Cuts recorded with the earlier probe-per-pair rigid components, on
# seeded flexible graphs (random, crossed ladders minus an edge, fans with a
# pendant); the contraction choices, and so these cuts, must not change.
# graph6, u, v, cut, contraction levels
PINNED_SEPARATE = [
    ("K?GWGDCCA?Wa", 0, 1, [11], 1),
    ("K?GWGDCCA?Wa", 10, 11, [1], 1),
    ("L?Ct??AO_a?g_?", 0, 1, [6, 12], 1),
    ("L?Ct??AO_a?g_?", 11, 12, [5, 7], 1),
    ("ITwdPOPh?", 0, 1, [4], 8),
    ("ITwdPOPh?", 1, 9, [4], 1),
    ("K?F?@@?Cb?CS", 0, 1, [5], 1),
    ("K?F?@@?Cb?CS", 10, 11, [1, 2], 1),
    ("O?C?@S?OA?GCA@_?c?AGO", 0, 1, [13], 1),
    ("O?C?@S?OA?GCA@_?c?AGO", 14, 15, [2], 1),
    ("MC?RO?@??CA?@GOD?", 0, 1, [3], 1),
    ("MC?RO?@??CA?@GOD?", 12, 13, [5, 8], 1),
    ("J[_QK@AouQ?", 0, 5, [3, 6], 8),
    ("J[_QK@AouQ?", 5, 10, [3, 6], 1),
    ("GQq_wG", 0, 1, [4, 5], 2),
    ("GQq_wG", 6, 7, [3, 4, 5], 1),
    ("JP?__GKOOb?", 0, 1, [2], 1),
    ("JP?__GKOOb?", 9, 10, [1, 7], 1),
    ("KH~C??_AP?wB", 0, 7, [6, 8, 9], 8),
    ("KH~C??_AP?wB", 8, 11, [2], 1),
    ("NAc_gP??c??_?@_?G_?", 0, 1, [4, 10, 13], 1),
    ("NAc_gP??c??_?@_?G_?", 13, 14, [0], 1),
    ("GWCAy?", 0, 1, [2], 1),
    ("GWCAy?", 6, 7, [1, 4, 5], 2),
    ("J??vO`oA_T?", 0, 1, [6], 1),
    ("J??vO`oA_T?", 8, 9, [1, 2, 3, 10], 1),
    ("LA`?CPAuEAGGNO", 0, 2, [8, 12], 9),
    ("LA`?CPAuEAGGNO", 8, 12, [1, 6], 1),
    ("G]KoWW", 0, 1, [2, 3], 1),
    ("G]KoWW", 6, 7, [4, 5], 1),
    ("I]KoWWB?o", 0, 1, [2, 3], 1),
    ("I]KoWWB?o", 8, 9, [6, 7], 1),
    ("K]KoWWB?o@_E", 0, 1, [2, 3], 1),
    ("K]KoWWB?o@_E", 10, 11, [8, 9], 1),
    ("G|eKGC", 0, 7, [6], 6),
    ("G|eKGC", 5, 7, [6], 6),
    ("L|eKKE@_K?o@?@", 0, 12, [11], 11),
    ("L|eKKE@_K?o@?@", 10, 12, [11], 11),
]
# graph6, avoided vertex, cut
PINNED_AVOID = [
    ("F]D_w", 0, [2, 3]),
    ("Fah@g", 3, [1, 4]),
    ("IHcI_aaBW", 7, [4, 8]),
    ("LwA?@Sa_OoQg?]", 4, [2, 9, 11]),
    ("FHNCg", 0, [2, 5]),
    ("FhtOo", 3, [2, 4, 5]),
    ("DtW", 3, [0, 4]),
    ("L@cb?KOscI?oBH", 5, [4, 9, 10]),
    ("DU[", 2, [0, 4]),
    ("G@ZOtW", 5, [1, 3, 7]),
    ("IKNU?g`CO", 8, [2, 6, 7]),
    ("EyUO", 4, [1, 5]),
    ("D[s", 3, [2, 4]),
    ("GKLeSo", 2, [1, 4]),
    ("Is?JTDIDO", 5, [4, 9]),
    ("LCG_?dGC`LQHOB", 6, [1, 7, 9, 10]),
    ("FhO[G", 2, [1, 6]),
    ("GHdH]G", 5, [4, 7]),
    ("Hbe`ZB?", 0, [1, 4, 5]),
    ("GQN_a[", 0, [4, 5]),
]


def c4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def bowtie():
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def _components_without(g: Graph, s: frozenset[int]) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for v in range(g.n):
        if v in s or v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for y in g.adjacency[x]:
                if y not in s and y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def _check_separates(g: Graph, s: frozenset[int], u: int, v: int) -> bool:
    comps = _components_without(g, s)
    cu = next(c for c in comps if u in c)
    return v not in cu


def biconnected_flexible_graphs(seed: int, count: int) -> list[Graph]:
    rnd = random.Random(seed)
    graphs: list[Graph] = []
    while len(graphs) < count:
        n = rnd.randrange(4, 10)
        g = random_connected_graph(rnd, n, rnd.randrange(n, 2 * n - 3))
        if is_biconnected(g) and rigidity_report(g).is_flexible:
            graphs.append(g)
    return graphs


def fan_with_pendants(k: int, ends) -> Graph:
    """Hub 0 over a path 1..k, with a pendant bar hanging off each path
    vertex in `ends` (the pendants are k+1, k+2, ... in that order)."""
    edges = [(0, i) for i in range(1, k + 1)]
    edges += [(i, i + 1) for i in range(1, k)]
    edges += [(end, k + 1 + j) for j, end in enumerate(ends)]
    return Graph.from_edges(k + 1 + len(ends), edges)


def first_partner(g: Graph, v: int) -> int:
    """The smallest vertex sharing no rigid component with v."""
    related = set().union(*(c for c in rigid_components(g, pebble_game(g)) if v in c))
    return next(u for u in range(g.n) if u not in related)


class TestAlgorithm1:
    def test_c4_opposite_pair(self):
        result = algorithm1_stable_cut(c4(), 0, 2)
        assert result.cut == frozenset({1, 3})

    def test_bowtie_recursion_path(self):
        result = algorithm1_stable_cut(bowtie(), 0, 3)
        assert is_stable_set(bowtie(), result.cut) and is_cut(bowtie(), result.cut)
        assert _check_separates(bowtie(), result.cut, 0, 3)
        assert any(
            s == result.cut and _check_separates(bowtie(), s, 0, 3)
            for s in brute_stable_cuts(bowtie())
        )

    def test_g2_fixture(self):
        # the k=2 family member is rigid, so the contraction algorithm's own
        # preconditions exclude it; the separating cut is still found
        # exhaustively, and the recursion runs on the flexible one-edge deletion
        g2, roles = make_gk(2)
        u, v = roles["x"], roles["a2"]
        found = exhaustive_stable_cut(g2, separate=(u, v))
        assert found is not None
        assert is_stable_set(g2, found.cut) and is_cut(g2, found.cut)
        assert _check_separates(g2, found.cut, u, v)
        assert found.cut in set(brute_stable_cuts(g2))

        flex = remove_edge_index(g2, g2.edge_index[(2, 4)])  # drop one ladder edge
        result = algorithm1_stable_cut(flex, u, v)
        assert is_stable_set(flex, result.cut) and is_cut(flex, result.cut)
        assert _check_separates(flex, result.cut, u, v)

    def test_preconditions(self, fix):
        prism = fix["prism"].graph
        with pytest.raises(PreconditionError, match="not flexible"):
            algorithm1_stable_cut(prism, 0, 4)
        disconnected = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        with pytest.raises(PreconditionError, match="not connected"):
            algorithm1_stable_cut(disconnected, 0, 2)
        with pytest.raises(PreconditionError, match="common rigid component"):
            algorithm1_stable_cut(bowtie(), 0, 1)
        with pytest.raises(PreconditionError, match="distinct"):
            algorithm1_stable_cut(bowtie(), 0, 0)

    def test_random_flexible_validity_and_discipline(self):
        graphs = random_flexible_connected(2024, 200, 4, 12)
        for g in graphs:
            related = rigidly_related_pairs(g)
            pair = None
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if (u, v) not in related:
                        pair = (u, v)
                        break
                if pair:
                    break
            assert pair is not None  # flexible graphs always have one
            result = algorithm1_stable_cut(g, *pair)
            s = result.cut
            assert is_stable_set(g, s)
            assert is_cut(g, s)
            assert _check_separates(g, s, *pair)
            for comp in rigidity_report(g).rigid_components:
                assert len(s & comp) <= 1

    def test_work_scales_cubically(self):
        # fits the contraction levels, which only the loop counts: the
        # pebble searches of a run can all come from the first game.  On
        # a fan the hub's completed component shrinks by one vertex per
        # level; on a two-body graph about n/2 levels contract one body
        def run(g: Graph, u: int, v: int) -> int:
            stats: dict = {}
            algorithm1_stable_cut(g, u, v, stats=stats)
            return stats["calls"]

        fan_data = []
        for k in range(4, 14):
            g = fan_with_pendants(k, [k])
            fan_data.append((g.n, run(g, 0, g.n - 1)))

        body_data = []
        for n in range(10, 70, 6):
            g = random_two_body(random.Random(n), n)
            body_data.append((g.n, run(g, *two_body_pair(g))))

        for data in (fan_data, body_data):
            n0, w0 = data[0]
            coeff = w0 / n0 ** 3
            assert data[-1][1] > w0 > 1, data
            for n, work in data[1:]:
                assert work <= 2 * coeff * n ** 3, data


def separable_pairs(g: Graph) -> list[tuple[int, int]]:
    """Ordered pairs (u, v), u != v, sharing no rigid component of g."""
    related = rigidly_related_pairs(g)
    return [(u, v) for u in range(g.n) for v in range(g.n) if u != v and (min(u, v), max(u, v)) not in related]


def two_body_pair(g: Graph) -> tuple[int, int]:
    """The smallest vertex of each body of a two-body graph that is on
    neither joining edge."""
    half = g.n // 2
    bars = {w for a, b in g.edges if (a < half) != (b < half) for w in (a, b)}
    return min(set(range(half)) - bars), min(set(range(half, g.n)) - bars)


class TestPinCondensation:
    """The contraction loop on pin graphs gives the cut and the number of
    contraction levels of the loop that plays a full game per contraction."""

    def assert_same_as_full_games(self, g: Graph, pairs) -> int:
        state = pebble_game(g)
        comps = rigid_components(g, state)
        for u, v in pairs:
            fast = {"calls": 0, "pair_probes": 0}
            slow = {"calls": 0, "pair_probes": 0}
            cut = _alg1(comps, u, v, fast)
            assert cut == slow_alg1(g.n, comps, u, v, slow), (g.n, g.edges, u, v)
            assert fast["calls"] == slow["calls"], (g.n, g.edges, u, v)
        return len(pairs)

    def test_every_separable_pair_of_random_flexible_graphs(self):
        graphs = random_flexible_connected(1400, 10, 4, 30)
        assert max(g.n for g in graphs) > 20
        assert sum(self.assert_same_as_full_games(g, separable_pairs(g)) for g in graphs) > 1000

    def test_seeded_two_body_graphs(self):
        rnd = random.Random(1410)
        for _ in range(10):
            g = random_two_body(rnd, rnd.randrange(8, 51))
            pairs = separable_pairs(g)
            self.assert_same_as_full_games(g, [two_body_pair(g)] + rnd.sample(pairs, min(len(pairs), 8)))

    def test_seeded_laman_graphs_minus_edges(self):
        rnd = random.Random(1420)
        done = 0
        while done < 8:
            n = rnd.randrange(5, 19)
            edges = sorted(random_laman_edges(rnd, list(range(n))))
            for i in sorted(rnd.sample(range(len(edges)), rnd.randrange(1, 4)), reverse=True):
                del edges[i]
            g = Graph.from_edges(n, edges)
            if is_connected(g):
                self.assert_same_as_full_games(g, separable_pairs(g))
                done += 1

    def test_every_branch_of_the_contraction_step(self, monkeypatch):
        # a relabel (an endpoint private to the one component C holding
        # both) or a pin-graph game (two pins merge), each taken 100 times or
        # more on a seeded corpus; C holds the triangle at u, so it never is
        # a two-vertex body that drops out, and a triangle becomes a bar
        seen: Counter = Counter()

        def relabel(bodies, member, heaps, keep, removed):
            (c,) = member[keep] & member[removed]
            assert len(bodies[c]) >= 3 and min(map(len, (member[keep], member[removed]))) == 1
            seen["removed private"] += len(member[removed]) == 1
            seen["keep private"] += len(member[keep]) == 1
            seen["triangle to bar"] += len(bodies[c]) == 3
            real_relabel(bodies, member, heaps, keep, removed)

        def game(bodies, keep, removed, stats):
            assert min(sum(w in body for body in bodies) for w in (keep, removed)) > 1
            seen["pin-pin game"] += 1
            return real_game(bodies, keep, removed, stats)

        real_relabel, real_game = stable_cut._relabel, stable_cut._contracted_components
        monkeypatch.setattr(stable_cut, "_relabel", relabel)
        monkeypatch.setattr(stable_cut, "_contracted_components", game)
        rnd = random.Random(2020)
        corpus = [(g, separable_pairs(g)) for g in random_flexible_connected(2021, 20, 6, 16)]
        for _ in range(30):
            g = random_two_body(rnd, rnd.randrange(8, 31))
            corpus.append((g, [two_body_pair(g)] + rnd.sample(separable_pairs(g), 10)))
        for k in range(4, 16):
            ends = sorted(rnd.sample(range(1, k + 1), rnd.randrange(1, 4)))
            for g in (make_cycle(k), fan_with_pendants(k, ends), fan_with_pendants(k, [1, k])):
                corpus.append((g, separable_pairs(g)))
        assert sum(self.assert_same_as_full_games(g, pairs) for g, pairs in corpus) > 3000
        branches = ("removed private", "keep private", "triangle to bar", "pin-pin game")
        assert min(seen[key] for key in branches) >= 100, seen

    def test_a_refused_pin_pair_is_tried_again_after_a_game(self, monkeypatch):
        # a game that joins bodies can turn a refused contraction into one
        # that separates, so the loop forgets its refusals after each game
        refused, taken = set(), []

        def game(bodies, keep, removed, stats):
            comps = real_game(bodies, keep, removed, stats)
            if any(keep in comp and v in comp for comp in comps):
                refused.add((keep, removed))
            else:
                taken.append((keep, removed))
            return comps

        def relabel(bodies, member, heaps, keep, removed):
            taken.append((keep, removed))
            real_relabel(bodies, member, heaps, keep, removed)

        real_game, real_relabel = stable_cut._contracted_components, stable_cut._relabel
        monkeypatch.setattr(stable_cut, "_contracted_components", game)
        monkeypatch.setattr(stable_cut, "_relabel", relabel)
        for key, pairs in [
            ("KK?K?qA|SHGH", [(0, 4), (3, 4), (6, 4)]),
            ("KE_QPoIGxSgC", [(8, 0)]),
            ("L?abgqACGGcO`P", [(12, 10)]),
        ]:
            for u, v in pairs:
                refused.clear()
                taken.clear()
                self.assert_same_as_full_games(parse_graph6(key), [(u, v)])
                assert refused & set(taken), (key, u, v)

    def test_two_body_graph_on_400_vertices(self):
        # with a full game per contraction this took about 1.1 s on one Xeon
        # core, and 271 080 pebble searches
        g = random_two_body(random.Random(400), 400)
        u, v = two_body_pair(g)
        stats: dict = {}
        start = time.perf_counter()
        result = algorithm1_stable_cut(g, u, v, stats=stats)
        assert time.perf_counter() - start < 0.5
        assert _check_separates(g, result.cut, u, v) and stats["calls"] == 199
        start = time.perf_counter()
        result = stable_cut_avoiding(g, v)
        assert time.perf_counter() - start < 0.5
        assert v not in result.cut

    def test_two_body_graph_on_2000_vertices(self, monkeypatch):
        # with a pin-graph game per contraction this took about 0.9 s for
        # each call on one Xeon core; the same refused pin pair comes first
        # at 149 levels, and its game is played once
        games = []

        def game(*args):
            games.append(args[1:3])
            return real_game(*args)

        real_game = stable_cut._contracted_components
        monkeypatch.setattr(stable_cut, "_contracted_components", game)
        g = random_two_body(random.Random(2000), 2000)
        u, v = two_body_pair(g)
        stats: dict = {}
        start = time.perf_counter()
        result = algorithm1_stable_cut(g, u, v, stats=stats)
        assert time.perf_counter() - start < 0.3
        assert _check_separates(g, result.cut, u, v) and stats["calls"] == 999
        assert games == [(0, 850)]
        start = time.perf_counter()
        result = stable_cut_avoiding(g, v)
        assert time.perf_counter() - start < 0.3
        assert v not in result.cut

    def test_two_body_graph_on_8000_vertices_within_3x_of_rank(self):
        # each level reads the two smallest vertices of a body off a heap;
        # scanning the bodies with `min` took 0.86 s here against rank's
        # 0.08 s on one Xeon core.  Best of five for each, interleaved, so
        # that a stall of the machine does not decide the ratio
        g = random_two_body(random.Random(8000), 8000)
        u, v = two_body_pair(g)
        assert (u, v) == (0, 4000)

        def seconds(fn) -> float:
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start

        stats = {"calls": 0, "pair_probes": 0}
        alg1_s, rank_s = [], []
        for _ in range(5):
            alg1_s.append(seconds(lambda: algorithm1_stable_cut(g, u, v, stats=stats)))
            rank_s.append(seconds(lambda: rank(g)))
        assert min(alg1_s) < 3 * min(rank_s) and min(alg1_s) < 1.0, (alg1_s, rank_s)
        assert stats == {"calls": 5 * 3999, "pair_probes": 5 * 16927}

    def test_pebble_search_count_repeats(self):
        # the searches follow each vertex's out-list in insertion order, so
        # the count is a function of the input alone
        g = random_two_body(random.Random(400), 400)
        u, v = two_body_pair(g)
        runs = []
        for _ in range(2):
            stats: dict = {}
            runs.append((algorithm1_stable_cut(g, u, v, stats=stats).cut, stats))
        assert runs[0] == runs[1]
        assert runs[0][1]["calls"] == 199 and runs[0][1]["pair_probes"] > 0


class TestPinnedCuts:
    def test_algorithm1_cuts_and_levels(self):
        for key, u, v, cut, levels in PINNED_SEPARATE:
            stats: dict = {}
            result = algorithm1_stable_cut(parse_graph6(key), u, v, stats=stats)
            assert (sorted(result.cut), stats["calls"]) == (cut, levels), (key, u, v)

    def test_avoiding_cuts(self):
        for key, v, cut in PINNED_AVOID:
            assert sorted(stable_cut_avoiding(parse_graph6(key), v).cut) == cut, (key, v)


class TestAvoiding:
    def test_c5_all_vertices(self):
        g = make_cycle(5)
        for v in range(5):
            result = stable_cut_avoiding(g, v)
            assert v not in result.cut
            assert is_stable_set(g, result.cut) and is_cut(g, result.cut)
            assert len(result.cut) == 2

    def test_c4_opposite(self):
        g = c4()
        for v in range(4):
            result = stable_cut_avoiding(g, v)
            assert v not in result.cut
            assert result.cut in ({frozenset({0, 2}), frozenset({1, 3})})

    def test_rigid_rejected(self, fix):
        with pytest.raises(PreconditionError, match="not flexible"):
            stable_cut_avoiding(fix["prism"].graph, 0)

    def test_not_biconnected_rejected(self):
        with pytest.raises(PreconditionError, match="2-connected"):
            stable_cut_avoiding(bowtie(), 0)

    def test_random_biconnected_flexible(self):
        for g in biconnected_flexible_graphs(55, 20):
            for v in range(g.n):
                result = stable_cut_avoiding(g, v)
                assert v not in result.cut

    def test_is_algorithm1_from_the_first_partner(self):
        # the first vertex sharing no rigid component with v already gives a
        # cut without v, so no other partner is tried
        corpus = [(parse_graph6(key), [v]) for key, v, _ in PINNED_AVOID]
        corpus += [(g, range(g.n)) for g in [make_cycle(5), c4()] + biconnected_flexible_graphs(55, 20)]
        for g, avoided in corpus:
            for v in avoided:
                u = first_partner(g, v)
                want = replace(algorithm1_stable_cut(g, u, v), avoided_vertex=v)
                assert stable_cut_avoiding(g, v) == want, (g.n, g.edges, v)


class TestFindStableCut:
    def test_flexible_branch_plays_no_second_game(self, monkeypatch):
        # no vertex neighbourhood is stable, so Algorithm 1 answers, on the
        # rigid components of the record's report
        g = two_trees_with_bars()
        answers = stable_cut.Answers(g)
        report = answers.report
        games = []

        def counted(h):
            if h is g:
                games.append(h)
            return pebble_game(h)

        monkeypatch.setattr("rignac.stable_cut.pebble_game", counted)
        monkeypatch.setattr("rignac.rigidity.pebble_game", counted)
        result, method = answers.stable_cut
        assert method == "algorithm1" and games == [] and answers.report is report
        u, v = result.separated_pair
        assert result == algorithm1_stable_cut(g, u, v) and len(games) == 1
        assert find_stable_cut(g) == (result, method)


class TestExhaustive:
    def test_complete_graph_none(self):
        k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert exhaustive_stable_cut(k4) is None

    def test_path_middle(self):
        result = exhaustive_stable_cut(make_path(3))
        assert result.cut == frozenset({1})

    def test_minimum_and_lexicographic(self):
        g = make_cycle(6)
        result = exhaustive_stable_cut(g)
        assert result.cut == frozenset({0, 2})

    def test_empty_cut_for_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert exhaustive_stable_cut(g).cut == frozenset()

    def test_empty_cut_above_the_size_limit(self):
        # two disjoint K13: the empty cut comes from the components, and no
        # stable cut parts two vertices of one clique
        k13 = [(i, j) for i in range(13) for j in range(i + 1, 13)]
        g = Graph.from_edges(26, k13 + [(i + 13, j + 13) for i, j in k13])
        assert exhaustive_stable_cut(g) == StableCutResult(frozenset())
        assert exhaustive_stable_cut(g, separate=(0, 13)).cut == frozenset()
        assert exhaustive_stable_cut(g, separate=(0, 1)) is None
        assert find_stable_cut(g) == (StableCutResult(frozenset()), "exhaustive")

    def test_constraints(self):
        g = make_cycle(6)
        result = exhaustive_stable_cut(g, separate=(0, 3))
        assert _check_separates(g, result.cut, 0, 3)
        result = exhaustive_stable_cut(g, avoid=0)
        assert 0 not in result.cut

    def test_state_budget(self):
        # the number of vertices sets no limit, the states per level do
        path = Graph.from_edges(200, [(i, i + 1) for i in range(199)])
        assert exhaustive_stable_cut(path) == StableCutResult(frozenset({1}), components=2)
        wide = random_eared_laman(random.Random(60), 60)
        pattern = r"budget of 65536 states per level at level 61 of 120, frontier width 20"
        with deadline(3.0), pytest.raises(PreconditionError, match=pattern):
            exhaustive_stable_cut(wide)

    def test_equals_the_subset_scan(self, laman_keys, laman8_keys):
        # every edge set on at most 5 labelled vertices, every Laman class
        # with n <= 8, and seeded random graphs with isolated vertices and
        # several components; separate and avoid as in `_constraints`
        graphs = [
            Graph.from_edges(n, [e for i, e in enumerate(combinations(range(n), 2)) if mask >> i & 1])
            for n in range(6)
            for mask in range(1 << (n * (n - 1) // 2))
        ]
        graphs += [parse_graph6(key) for n in laman_keys for key in laman_keys[n]]
        graphs += [parse_graph6(key) for key in laman8_keys]
        rnd = random.Random(2800)
        for _ in range(300):
            n = rnd.randrange(1, 11)
            graphs.append(random_graph(rnd, n, rnd.randrange(0, 2 * n + 1)))
        assert sum(not all(g.adjacency) for g in graphs[-300:]) >= 100
        assert sum(len(g.components) > 1 for g in graphs[-300:]) >= 100
        for g in graphs:
            for separate, avoid in _constraints(g):
                got = exhaustive_stable_cut(g, separate, avoid)
                assert (None if got is None else got.cut) == scan_stable_cut(g, separate, avoid), (g, separate, avoid)
                if got is not None:
                    assert got.components == len(connected_components_without(g, got.cut))

    @pytest.mark.skipif(
        not os.environ.get("RIGNAC_LARGE_TESTS"),
        reason="opt-in: ~75 s (set RIGNAC_LARGE_TESTS=1)",
    )
    def test_equals_the_subset_scan_on_the_n9_catalog(self):
        for key in minimally_rigid_graph6(9, allow_large=True):
            g = parse_graph6(key)
            for separate, avoid in _constraints(g):
                got = exhaustive_stable_cut(g, separate, avoid)
                assert (None if got is None else got.cut) == scan_stable_cut(g, separate, avoid), (key, separate, avoid)

    def test_tie_break_comes_from_one_run(self, monkeypatch):
        # the least cuts of C_6 are its nine stable pairs; under each
        # constraint one labelling pass picks the first, with no pass per vertex
        runs = []
        real = stable_cut._labellings

        def counted(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(stable_cut, "_labellings", counted)
        g = make_cycle(6)
        assert exhaustive_stable_cut(g).cut == frozenset({0, 2}) and len(runs) == 1
        assert exhaustive_stable_cut(g, separate=(3, 0)).cut == frozenset({1, 4}) and len(runs) == 2
        assert exhaustive_stable_cut(g, avoid=0).cut == frozenset({1, 3}) and len(runs) == 3

    def test_every_flexible_catalog_graph_has_cut(self):
        # flexibility came from edge deletion in tight graphs
        for key_n in (5, 6):
            from rignac.catalog import minimally_rigid_graph6

            for key in minimally_rigid_graph6(key_n):
                g = parse_graph6(key)
                for i in range(g.m):
                    sub = remove_edge_index(g, i)
                    from rignac.graph import is_connected

                    if not is_connected(sub):
                        continue
                    assert exhaustive_stable_cut(sub) is not None

    def test_agrees_with_brute_enumeration(self):
        rnd = random.Random(66)
        for _ in range(25):
            n = rnd.randrange(3, 8)
            g = random_connected_graph(rnd, n, rnd.randrange(n - 1, n * (n - 1) // 2 + 1))
            cuts = brute_stable_cuts(g)
            got = exhaustive_stable_cut(g)
            if not cuts:
                assert got is None
            else:
                best = min(len(c) for c in cuts)
                expect = min((c for c in cuts if len(c) == best), key=sorted)
                assert got.cut == expect


def _constraints(g: Graph):
    """(separate, avoid) pairs to check on g: none; each vertex avoided,
    and each pair separated both ways, the second time avoiding the first
    other vertex, on five vertices or fewer, else two of each; and vertex 0
    separated from itself."""
    yield None, None
    small = g.n <= 5
    for v in range(g.n) if small else (0, g.n - 1):
        yield None, v
    pairs = list(combinations(range(g.n), 2)) if small else [(0, g.n - 1), (1, g.n - 2)]
    for u, v in pairs:
        yield (u, v), None
        yield (v, u), next((w for w in range(g.n) if w not in (u, v)), None)
    yield (0, 0), None


class TestChenYuRegime:
    def test_two_connected_sparse_graphs_avoid_every_vertex(self):
        rnd = random.Random(77)
        done = 0
        while done < 25:
            n = rnd.randrange(4, 9)
            m_hi = 2 * n - 4
            if m_hi < n:
                continue
            g = random_connected_graph(rnd, n, rnd.randrange(n, m_hi + 1))
            if not is_biconnected(g) or g.m > 2 * g.n - 4:
                continue
            for v in range(g.n):
                assert exhaustive_stable_cut(g, avoid=v) is not None
            done += 1
