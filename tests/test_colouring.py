from __future__ import annotations

import json
import math
import random
from itertools import combinations

import pytest

from rignac import colouring, graph
from rignac.colouring import (
    BLUE,
    _frontier_count,
    _frontier_levels,
    _frontier_masks,
    RED,
    _colouring_from_decomposition,
    EdgeColouring,
    TwoTreeCertificate,
    construct_nac_minimally_rigid,
    count_nac,
    count_nac_complete_bipartite,
    enumerate_nac,
    enumerate_nac_detailed,
    has_nap_colouring,
    is_nac,
    is_nap,
    json_lines,
    ladder_edges,
    locally_nac_check,
    nac_masks,
    nap_from_separation,
    nap_masks,
    nnac_upper_bound,
    separation_from_nap,
    separation_from_stable_cut,
    triangle_classes,
)
from rignac.graph import (
    Graph,
    PreconditionError,
    Separation,
    _vertex_order,
    blocks,
    connected_components,
    is_stable_set,
    parse_graph6,
)
from rignac.rigidity import GscNonMembership, gsc_decomposition, recognize_gsc, rigidity_report
from rignac.constructions import (
    fixtures,
    glue_along_edge,
    make_2tree,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_gk,
    make_gk_prime,
    make_path,
    make_wheel,
)
from rignac.stable_cut import MIXED, _labellings, exhaustive_stable_cut, is_biconnected

from oracles import (
    PartialNacState,
    brute_is_nac,
    brute_is_nap,
    brute_nnac,
    brute_nnac_by_cycles,
    brute_stable_cuts,
    dfs_nac_masks,
    is_cut,
    random_connected_graph,
    random_flexible_connected,
    random_graph,
    random_prism_chain,
    random_gsc_member,
    relabelled,
    slow_colouring_from_decomposition,
    slow_two_tree_peel,
)


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def bowtie():
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def spy_on_states(monkeypatch) -> dict:
    """Record every stride the frontier programme passes and the bit length
    of the widest pair mask it makes."""
    seen: dict = {"strides": set(), "bits": 0}
    real = colouring._colour_level

    def spy(key, level, stride, colours):
        children = real(key, level, stride, colours)
        seen["strides"].add(stride)
        for child in children:
            if child is not None:
                seen["bits"] = max(seen["bits"], child[-2].bit_length(), child[-1].bit_length())
        return children

    monkeypatch.setattr(colouring, "_colour_level", spy)
    return seen


def small_corpus(laman_keys) -> list[Graph]:
    """Graphs with m <= 16: trees, cycles, wheels, 6-vertex tight classes, bipartite."""
    rnd = random.Random(31)
    corpus = [make_path(n) for n in (3, 6, 10)]
    corpus += [make_cycle(n) for n in (3, 5, 8, 10)]
    corpus += [make_wheel(n) for n in (4, 6, 7)]
    corpus += [parse_graph6(k) for k in laman_keys[6]]
    corpus += [make_complete_bipartite(2, 3), make_complete_bipartite(3, 3)]
    tree = Graph.from_edges(8, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (4, 6), (4, 7)])
    corpus.append(tree)
    for _ in range(6):
        n = rnd.randrange(4, 8)
        corpus.append(random_connected_graph(rnd, n, rnd.randrange(n - 1, min(16, n * (n - 1) // 2) + 1)))
    return corpus


class TestEdgeColouring:
    def test_mask_round_trip(self):
        c = EdgeColouring.from_red_edges(5, [0, 3])
        assert c.red_edges() == [0, 3] and c.blue_edges() == [1, 2, 4]
        assert c.to_json() == {"red": [0, 3], "blue": [1, 2, 4]}

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeColouring(3, 8)
        with pytest.raises(ValueError):
            EdgeColouring.from_red_edges(3, [3])


class TestIsNac:
    def test_prism_reference_class(self, fix):
        prism = fix["prism"].graph
        assert is_nac(prism, fix["prism"].nac_classes[0])

    def test_triangle_never(self):
        t = triangle()
        for mask in range(1, 7):
            assert not is_nac(t, EdgeColouring(3, mask))

    def test_monochromatic_never(self, fix):
        g = fix["prism"].graph
        assert not is_nac(g, EdgeColouring(g.m, 0))
        assert not is_nac(g, EdgeColouring(g.m, (1 << g.m) - 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_nac(triangle(), EdgeColouring(2, 1))

    def test_agrees_with_definition_oracle(self, laman_keys):
        for g in small_corpus(laman_keys)[:12]:
            if g.m > 10:
                continue
            for mask in range(1 << g.m):
                assert is_nac(g, EdgeColouring(g.m, mask)) == brute_is_nac(g, mask)


class TestIsNap:
    def test_star_with_minority_colour(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        c = EdgeColouring.from_red_edges(3, [0])
        assert is_nap(star, c)

    def test_alternating_path_rejected(self):
        p4 = make_path(4)
        c = EdgeColouring.from_red_edges(3, [0, 2])
        assert not is_nap(p4, c)

    def test_matches_definition_scan(self, laman_keys):
        for g in small_corpus(laman_keys):
            if g.m > 9:
                continue
            for mask in range(1 << g.m):
                assert is_nap(g, EdgeColouring(g.m, mask)) == brute_is_nap(g, mask)

    def test_nap_implies_nac_on_catalog(self, laman_keys):
        for key in laman_keys[6]:
            g = parse_graph6(key)
            for mask in range(1 << g.m):
                c = EdgeColouring(g.m, mask)
                if is_nap(g, c):
                    assert is_nac(g, c)

    def test_matches_definition_scan_on_seeded_random_graphs(self):
        rnd = random.Random(8200)
        graphs = []
        for _ in range(200):
            n = rnd.randrange(1, 10)
            graphs.append(random_graph(rnd, n, rnd.randrange(1, 2 * n + 1)))
        assert sum(not all(g.adjacency) for g in graphs) >= 20
        for g in graphs:
            if g.m < 1:
                continue
            full = (1 << g.m) - 1
            masks = range(1 << g.m) if g.m <= 8 else [0, full] + [rnd.getrandbits(g.m) for _ in range(200)]
            for mask in masks:
                assert is_nap(g, EdgeColouring(g.m, mask)) == brute_is_nap(g, mask), (g.edges, mask)
            nac_masks, _ = dfs_nac_masks(g)
            assert list(nap_masks(g)) == [mask for mask in nac_masks if brute_is_nap(g, mask)], g.edges

    def test_nap_masks_needs_an_edge(self):
        for answer in (nap_masks, has_nap_colouring):
            with pytest.raises(PreconditionError, match="at least one edge"):
                answer(Graph.from_edges(3, []))

    def test_nap_masks_are_the_nac_masks_that_are_nap(self, laman_keys, laman8_keys):
        # every edge set on at most 5 labelled vertices, every Laman class
        # with n <= 8, and seeded random graphs with isolated vertices and
        # several components: the same list, in the same order
        graphs = [
            Graph.from_edges(n, [e for i, e in enumerate(combinations(range(n), 2)) if mask >> i & 1])
            for n in range(2, 6)
            for mask in range(1, 1 << (n * (n - 1) // 2))
        ]
        graphs += [parse_graph6(key) for n in laman_keys for key in laman_keys[n]]
        graphs += [parse_graph6(key) for key in laman8_keys]
        rnd = random.Random(2900)
        for _ in range(300):
            n = rnd.randrange(2, 11)
            graphs.append(random_graph(rnd, n, rnd.randrange(1, 2 * n + 1)))
        assert sum(not all(g.adjacency) for g in graphs[-300:]) >= 100
        assert sum(len(g.components) > 1 for g in graphs[-300:]) >= 100
        for g in graphs:
            want = [mask for mask in nac_masks(g) if is_nap(g, EdgeColouring(g.m, mask))]
            assert nap_masks(g) == want, g.edges
            assert has_nap_colouring(g) == bool(want), g.edges


class TestJsonLineWriter:
    def test_matches_json_dumps(self):
        # one call per m on masks sorted both ways, shuffled, repeated, and
        # with 0 and the full mask next to each other: a line is right
        # whichever chunk its mask first differs from the previous one in
        rnd = random.Random(8300)
        for m in (1, 7, 8, 9, 15, 16, 17, 60, 64, 65, 130):
            full = (1 << m) - 1
            masks = [0, full] + [full ^ (1 << i) for i in range(m)] + [1 << i for i in range(m)]
            masks += [rnd.getrandbits(m) for _ in range(300)]
            shuffled = masks[:]
            rnd.shuffle(shuffled)
            repeated = [mask for mask in shuffled[:40] for _ in range(3)]
            fed = sorted(masks) + sorted(masks, reverse=True) + shuffled + repeated + [0, full, 0, 0, full, full, 0]
            lines = list(json_lines(m, fed))
            assert len(lines) == len(fed)
            for mask, line in zip(fed, lines):
                assert line == json.dumps(EdgeColouring(m, mask).to_json()) + "\n", (m, mask)
            assert list(json_lines(m, [])) == []


class TestSeparations:
    def test_round_trip_at_cut_vertex(self):
        g = bowtie()
        sep = separation_from_stable_cut(g, {2})
        c = nap_from_separation(g, sep)
        assert is_nap(g, c)
        back = separation_from_nap(g, c)
        assert {back.edge_set1, back.edge_set2} == {sep.edge_set1, sep.edge_set2}

    def test_c4_opposite_paths(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sep = Separation(frozenset({0, 1}), frozenset({2, 3}))
        c = nap_from_separation(g, sep)
        assert is_nap(g, c)

    def test_non_stable_separation_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        sep = Separation(frozenset({0, 1, 2}), frozenset({3, 4}))
        sep.validate(g)  # a genuine separation, but shared vertices 1,2 are adjacent
        with pytest.raises(PreconditionError, match="not stable"):
            nap_from_separation(g, sep)

    def test_prism_nac_is_not_nap(self, fix):
        prism = fix["prism"].graph
        c = fix["prism"].nac_classes[0]
        with pytest.raises(PreconditionError):
            separation_from_nap(prism, c)

    def test_star_separation_shares_centre(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        c = EdgeColouring.from_red_edges(3, [0])
        sep = separation_from_nap(star, c)
        assert sep.shared_vertices(star) == frozenset({0})


class TestEnumerationEngine:
    def test_paper_instances(self, fix):
        assert enumerate_nac(fix["prism"].graph) == 1
        assert enumerate_nac(fix["k33"].graph) == 15

    def test_matches_brute_force(self, laman_keys):
        for g in small_corpus(laman_keys):
            assert enumerate_nac(g) == brute_nnac(g), g

    def test_matches_cycle_definition_oracle(self, laman_keys):
        for g in small_corpus(laman_keys):
            if g.m <= 10:
                assert enumerate_nac(g) == brute_nnac_by_cycles(g)

    def test_emitted_colourings_valid_pinned_and_ordered(self, laman_keys):
        for g in small_corpus(laman_keys)[:10]:
            got: list[EdgeColouring] = []
            enumerate_nac(g, on_found=got.append)
            masks = [c.mask for c in got]
            assert len(set(masks)) == len(masks)
            for c in got:
                assert is_nac(g, c)
                assert not c.is_red(0)  # pinned blue
            # one representative per swap class
            assert all((c.mask ^ ((1 << g.m) - 1)) not in set(masks) for c in got)
            # emission follows red-first DFS: bitmask tuples descend lexicographically
            keys = [tuple((c.mask >> i) & 1 for i in range(g.m)) for c in got]
            assert keys == sorted(keys, reverse=True)

    def test_first_only_stops_at_witness(self, fix):
        got = []
        out = enumerate_nac(fix["k33"].graph, on_found=got.append, first_only=True)
        assert out == 1 and len(got) == 1
        assert is_nac(fix["k33"].graph, got[0])

    def test_order_invariance(self, laman_keys):
        rnd = random.Random(17)
        for g in small_corpus(laman_keys):
            assert enumerate_nac(g) == enumerate_nac(relabelled(g, rnd))

    def test_worker_invariance(self, fix):
        for g in (fix["k33"].graph, make_cycle(9), make_gk(3)[0]):
            base = enumerate_nac(g)
            for w in (2, 3):
                assert enumerate_nac(g, workers=w) == base

    def test_parallel_emission_matches_sequential(self, fix):
        g = fix["k33"].graph
        seq: list[int] = []
        par: list[int] = []
        enumerate_nac(g, on_found=lambda c: seq.append(c.mask))
        enumerate_nac(g, on_found=lambda c: par.append(c.mask), workers=2)
        assert sorted(seq) == sorted(par)

    def test_requires_an_edge(self):
        with pytest.raises(PreconditionError):
            enumerate_nac(Graph.from_edges(3, []))

    def test_detailed_reports_nodes(self, fix):
        count, nodes, ms = enumerate_nac_detailed(fix["k33"].graph)
        assert count == 15 and nodes > 0 and ms >= 0

    def test_one_listing_path(self, laman_keys):
        # enumerate_nac wraps the masks that enumerate_nac_detailed and
        # nac_masks hand out
        for g in small_corpus(laman_keys):
            wrapped: list[EdgeColouring] = []
            masks: list[int] = []
            assert enumerate_nac(g, on_found=wrapped.append) == len(wrapped)
            count, _, _ = enumerate_nac_detailed(g, on_found=masks.append)
            assert [c.mask for c in wrapped] == masks == nac_masks(g) == dfs_nac_masks(g)[0], g.edges
            assert count == len(masks) and all(c.m == g.m for c in wrapped)
        with pytest.raises(PreconditionError, match="at least one edge"):
            nac_masks(Graph.from_edges(3, []))

    def test_disconnected_input(self):
        two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert enumerate_nac(two_edges) == brute_nnac(two_edges) == 1
        two_triangles = Graph.from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        )
        assert enumerate_nac(two_triangles) == count_nac(two_triangles) == 1

    def test_parallel_zero_count(self):
        assert enumerate_nac(make_2tree(0, 12), workers=2) == 0


class TestSpell:
    """`_spell` spells the back-links from both ends and joins them at the
    level `_join_level` picks; every join level, -1 (suffixes only) to the
    last (prefixes only), spells the same masks."""

    @staticmethod
    def spelled_at_every_join(monkeypatch, listing, g) -> list[list[int]]:
        """listing(g) once, its programme caught on the way into `_spell`,
        then `_spell` on that programme forced to join at each level."""
        caught = []
        real_spell, real_join = colouring._spell, colouring._join_level
        monkeypatch.setattr(colouring, "_spell", lambda *args: caught.append(args) or real_spell(*args))
        chosen = listing(g)
        monkeypatch.setattr(colouring, "_spell", real_spell)
        (links, reds, states, accept, first_only, m), = caught
        spelled = [chosen]
        for k in range(-1, len(reds)):
            monkeypatch.setattr(colouring, "_join_level", lambda links, counts: k)
            spelled.append(real_spell(links, reds, states, accept, first_only, m))
        monkeypatch.setattr(colouring, "_join_level", real_join)
        return spelled

    def assert_every_join(self, monkeypatch, g, nap: bool = True) -> None:
        want, _ = dfs_nac_masks(g)
        for spelled in self.spelled_at_every_join(monkeypatch, nac_masks, g):
            assert spelled == want, g.edges
        if nap:
            naps = [mask for mask in want if is_nap(g, EdgeColouring(g.m, mask))]
            for spelled in self.spelled_at_every_join(monkeypatch, nap_masks, g):
                assert spelled == naps, g.edges

    def test_every_join_on_complete_bipartite_and_h18(self, monkeypatch, fix):
        self.assert_every_join(monkeypatch, make_complete_bipartite(4, 8))
        self.assert_every_join(monkeypatch, fix["h18"].graph)

    def test_every_join_on_the_catalog_up_to_7(self, monkeypatch, laman_keys):
        for n in laman_keys:
            for key in laman_keys[n]:
                self.assert_every_join(monkeypatch, parse_graph6(key))

    def test_every_join_on_seeded_random_graphs(self, monkeypatch):
        rnd = random.Random(3200)
        for _ in range(200):
            n = rnd.randrange(2, 10)
            self.assert_every_join(monkeypatch, random_graph(rnd, n, rnd.randrange(1, 2 * n)))

    def test_join_sits_inside_the_programme(self):
        # a wide programme joins between its ends: K_{6,10} has 60 levels
        links: list = []
        units, states, _ = colouring._frontier_pass(make_complete_bipartite(6, 10), links)
        counts = colouring._suffix_counts(links, [int(key == (1, 0, 0)) for key in states])
        assert len(units) == 60 and counts[0] == [2 ** 14 - 1]
        assert 0 < colouring._join_level(links, counts) < 59

    def test_one_unit_spells_nothing_without_counting(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("counted a programme with no level")

        monkeypatch.setattr(colouring, "_suffix_counts", refuse)
        monkeypatch.setattr(colouring, "_join_level", refuse)
        for g in (Graph.from_edges(2, [(0, 1)]), make_complete(3), make_2tree(5, 9)):
            assert len(triangle_classes(g)) == 1
            assert nac_masks(g) == [] and _frontier_masks(g, True) == ([], 1), g.edges
        assert _frontier_masks(make_complete_bipartite(3, 3), True)[0] == [292]

    def test_first_only_keeps_one_path(self, monkeypatch, fix):
        # the one-path walk counts nothing; its witnesses are pinned
        def refuse(*args):
            raise AssertionError("counted a first-only walk")

        monkeypatch.setattr(colouring, "_suffix_counts", refuse)
        pins = {"k33": 292, "prism": 52, "h18": 4563402752}
        for name, mask in pins.items():
            g = fix[name].graph
            assert _frontier_masks(g, True)[0] == [mask] and is_nac(g, EdgeColouring(g.m, mask)), name
        got: list[int] = []
        assert enumerate_nac_detailed(make_complete_bipartite(6, 10), got.append, first_only=True)[0] == 1
        assert got == [577024252550054400]


class TestPartialState:
    def test_rollback_restores_exactly(self, fix):
        g = fix["prism"].graph
        rnd = random.Random(77)
        state = PartialNacState(g)
        trail_states = []

        def snapshot():
            parts = []
            for colour in (RED, BLUE):
                roots = tuple(state.find(colour, v) for v in range(g.n))
                parts.append((roots, state.counts[colour], tuple(map(len, state.cross[colour]))))
            return (tuple(state.colours), tuple(parts))

        marks = []
        for _ in range(200):
            if state.trail and rnd.random() < 0.4:
                mark, snap = marks.pop(rnd.randrange(len(marks)))
                state.rollback(mark)
                del marks[len([m for m, _ in marks if m <= mark]) :]
                assert snapshot() == snap
                continue
            i = rnd.randrange(g.m)
            if state.colours[i] != -1:
                continue
            marks.append((state.checkpoint(), snapshot()))
            if not state.try_colour(i, rnd.random() < 0.5):
                marks.pop()

    def test_component_counts_track_unions(self):
        g = make_path(4)
        state = PartialNacState(g)
        assert state.red_component_count() == state.blue_component_count() == 4
        assert state.try_colour(0, True)
        assert state.red_component_count() == 3
        state.undo_last()
        assert state.red_component_count() == 4

    def test_spanning_forest_prune(self):
        g = make_path(3)
        state = PartialNacState(g)
        assert state.try_colour(0, True)
        # second red edge would give red count 1 == component count of g
        assert not state.try_colour(1, True)
        assert state.try_colour(1, False)


class TestCounting:
    def test_block_product_examples(self):
        assert count_nac(bowtie()) == 1
        tree = make_path(6)
        assert count_nac(tree) == 2 ** 4 - 1
        tri_pendant = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert count_nac(tri_pendant) == 1 == brute_nnac(tri_pendant)

    def test_matches_whole_graph_enumeration_random(self):
        rnd = random.Random(400)
        done = 0
        while done < 50:
            n = rnd.randrange(5, 10)
            m = rnd.randrange(n - 1, min(2 * n - 2, n * (n - 1) // 2))
            g = random_connected_graph(rnd, n, m)
            if len(blocks(g)) < 2:
                continue  # want graphs with cut vertices
            assert count_nac(g) == enumerate_nac(g)
            done += 1

    def test_isolated_vertices_ignored(self):
        g = Graph.from_edges(5, [(1, 2), (2, 3), (1, 3)])
        h = triangle()
        assert count_nac(g) == count_nac(h)

    def test_upper_bound_values(self):
        assert nnac_upper_bound(6) == 35
        assert nnac_upper_bound(2) == 0
        assert nnac_upper_bound(10) == 6435
        with pytest.raises(PreconditionError):
            nnac_upper_bound(1)

    def test_upper_bound_holds_on_corpus(self, laman_keys):
        for g in small_corpus(laman_keys):
            assert count_nac(g) <= nnac_upper_bound(g.n)

    def test_complete_bipartite_closed_form(self):
        for n1 in range(1, 5):
            for n2 in range(n1, 9 - n1):
                got = count_nac_complete_bipartite(n1, n2)
                assert got == 2 ** (n1 + n2 - 2) - 1
                assert got == enumerate_nac(make_complete_bipartite(n1, n2))

    def test_edge_gluing_products(self, fix):
        prism = fix["prism"].graph
        k33 = fix["k33"].graph
        for h, base in ((prism, 1), (k33, 15)):
            for k in (1, 2, 3):
                glued = glue_along_edge(h, 0, k)
                assert glued.n == k * (h.n - 2) + 2
                assert enumerate_nac(glued) == (base + 1) ** k - 1

    def test_gk_family_counts(self):
        for k in range(2, 6):
            g, _ = make_gk(k)
            assert enumerate_nac(g) == 2 ** (2 * k - 2) - 1


class TestFlexibleLowerBounds:
    def test_flexible_has_a_colouring(self):
        for g in random_flexible_connected(808, 40, 4, 9):
            assert enumerate_nac(g, first_only=True) == 1

    def test_biconnected_flexible_at_least_three(self):
        rnd = random.Random(909)
        checked = 0
        while checked < 25:
            n = rnd.randrange(4, 9)
            g = random_connected_graph(rnd, n, rnd.randrange(n, 2 * n - 3))
            if not is_biconnected(g) or not rigidity_report(g).is_flexible:
                continue
            ell = len(rigidity_report(g).rigid_components)
            nn = enumerate_nac(g)
            assert nn >= 3
            assert nn >= math.ceil(math.log2(ell))
            checked += 1

    def test_unique_colouring_characterisation(self):
        # forward and backward over all flexible graphs in a mixed corpus
        corpus: list[Graph] = []
        for seed in range(6):
            corpus.append(make_2tree(seed, 4 + seed % 3))
        glued: list[Graph] = []
        for a in range(3):
            left = make_2tree(a, 4)
            right = make_2tree(a + 10, 4 + a % 2)
            offset = left.n
            edges = list(left.edges) + [
                (u + offset - 1 if u else 0, v + offset - 1 if v else 0) for u, v in right.edges
            ]
            glued.append(Graph.from_edges(left.n + right.n - 1, edges))
        k4_pair = Graph.from_edges(7, [(i, j) for i in range(4) for j in range(i + 1, 4)]
                                   + [(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
        glued.append(k4_pair)
        corpus += glued
        corpus += random_flexible_connected(111, 30, 4, 7)
        corpus += [make_cycle(n) for n in (4, 5, 6)]
        for g in corpus:
            rep = rigidity_report(g)
            if not rep.is_flexible:
                continue
            nn = count_nac(g)
            bl = blocks(g)
            expected = (
                len(bl) == 2
                and sum(1 for b in bl for _ in [b]) == 2
                and all(_block_nnac(g, b) == 0 for b in bl)
            )
            assert (nn == 1) == expected, (g, nn)

    def test_glued_complete_graphs_have_unique_colouring(self):
        assert count_nac(bowtie()) == 1


def _block_nnac(g: Graph, block: frozenset[int]) -> int:
    from rignac.graph import induced_subgraph

    verts = {v for i in block for v in g.edges[i]}
    sub, _ = induced_subgraph(g, verts)
    return enumerate_nac(sub)


def stepwise_construct(g: Graph):
    """The construction as separate steps: the greedy 2-tree peel, then a
    stable vertex neighbourhood, then recognition with its exhaustive
    witness search."""
    if not rigidity_report(g).is_minimally_rigid:
        raise PreconditionError("input graph is not minimally rigid")
    peel = slow_two_tree_peel(g)
    if peel is not None:
        return TwoTreeCertificate(tuple(peel))
    for u in range(g.n):
        nbrs = g.adjacency[u]
        if is_stable_set(g, nbrs) and is_cut(g, nbrs):
            return nap_from_separation(g, separation_from_stable_cut(g, nbrs))
    dec = recognize_gsc(g)
    if isinstance(dec, GscNonMembership):
        return nap_from_separation(g, separation_from_stable_cut(g, dec.stable_cut))
    return EdgeColouring(g.m, slow_colouring_from_decomposition(g, dec))


class TestConstructiveColouring:
    def test_matches_the_stepwise_construction_on_every_class_up_to_8(self, laman_keys, laman8_keys):
        graphs = [Graph.from_edges(2, [(0, 1)])]
        graphs += [parse_graph6(key) for n in laman_keys for key in laman_keys[n]]
        graphs += [parse_graph6(key) for key in laman8_keys]
        kinds = set()
        for g in graphs:
            res = construct_nac_minimally_rigid(g)
            assert res == stepwise_construct(g), g.edges
            kinds.add(type(res))
        assert kinds == {TwoTreeCertificate, EdgeColouring}

    def test_matches_the_stepwise_construction_on_an_eared_non_member(self):
        # no stable vertex neighbourhood, so the cut comes from exhaustive search
        base = [(0, 1), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]
        for ears in (0, 1, 2, 3):
            g = Graph.from_edges(6 + ears, base + [(x, 6 + i) for i in range(ears) for x in (0, 1)])
            res = construct_nac_minimally_rigid(g)
            assert res == stepwise_construct(g) and is_nap(g, res)

    def test_two_tree_certificate(self):
        g = make_2tree(3, 7)
        res = construct_nac_minimally_rigid(g)
        assert isinstance(res, TwoTreeCertificate)
        assert len(res.peel_order) == g.n - 2

    def test_prism_matches_reference_class(self, fix):
        prism = fix["prism"].graph
        res = construct_nac_minimally_rigid(prism)
        want = fix["prism"].nac_classes[0].mask
        full = (1 << prism.m) - 1
        assert res.mask in (want, want ^ full)

    def test_prism_glued_triangle(self, fix):
        from rignac.constructions import make_gsc

        g = make_gsc([["prism", "edge", [0, 1]], ["triangle", "edge", [0, 1]]])
        res = construct_nac_minimally_rigid(g)
        assert is_nac(g, res)

    def test_requires_minimally_rigid(self):
        k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        refused = [
            make_cycle(4),
            # connected with m = 2n-3, but flexible: K4 and a triangle at vertex 3
            Graph.from_edges(6, k4 + [(3, 4), (3, 5), (4, 5)]),
            # m = 2n-3, but disconnected: K5 and an edge
            Graph.from_edges(7, k5 + [(5, 6)]),
            Graph.from_edges(1, []),
        ]
        for g in refused:
            with pytest.raises(PreconditionError, match="not minimally rigid"):
                construct_nac_minimally_rigid(g)

    def test_whole_catalog(self, catalog6, catalog7):
        for entry in catalog6 + catalog7:
            g = entry.graph
            res = construct_nac_minimally_rigid(g)
            if entry.nnac == 0:
                assert isinstance(res, TwoTreeCertificate)
            else:
                assert is_nac(g, res)

    def test_h18(self, fix):
        g = fix["h18"].graph
        res = construct_nac_minimally_rigid(g)
        assert is_nac(g, res)

    def test_prism_chains_past_the_exhaustive_limit(self):
        # members get their colouring from the decomposition, whatever their size
        rnd = random.Random(41)
        for prisms in (7, 50):
            g = random_prism_chain(rnd, prisms)
            assert g.n == 4 * prisms + 2
            res = construct_nac_minimally_rigid(g)
            assert isinstance(res, EdgeColouring) and is_nac(g, res)

    def test_one_pass_colouring_matches_stepwise_repaint(self):
        rnd = random.Random(1107)
        graphs = [random_prism_chain(rnd, k) for k in range(1, 41)]
        graphs += [random_gsc_member(rnd, pieces) for pieces in range(1, 31) for _ in range(3)]
        prisms = 0
        for g in graphs:
            dec = gsc_decomposition(g)
            if dec.prism_count:
                prisms += 1
                assert _colouring_from_decomposition(g, dec).mask == slow_colouring_from_decomposition(g, dec)
        assert prisms >= 100


class TestLocallyNac:
    def test_all_red_is_locally_nac(self):
        for k in (3, 4):
            gp = make_gk_prime(k)
            assert locally_nac_check(gp, EdgeColouring(gp.m, (1 << gp.m) - 1), k)

    def test_consistent_pattern_accepted(self):
        k = 3
        gp = make_gk_prime(k)
        # alternate rung groups: first four edges blue, next four red
        c = EdgeColouring.from_red_edges(gp.m, [i for i, (u, v) in enumerate(gp.edges) if u >= 2])
        assert locally_nac_check(gp, c, k)

    def test_broken_window_rejected(self):
        k = 3
        gp = make_gk_prime(k)
        # make an almost-red 4-cycle inside the first window
        first_cycle = [gp.edge_index[e] for e in ((0, 2), (0, 3), (1, 2), (1, 3))]
        red = set(range(gp.m)) - {first_cycle[0]}
        c = EdgeColouring.from_red_edges(gp.m, red)
        assert not locally_nac_check(gp, c, k)

    def test_wrong_fixture_shape(self):
        with pytest.raises(PreconditionError):
            locally_nac_check(make_path(6), EdgeColouring(5, 0), 3)

    def test_gk_colourings_restrict_to_locally_nac(self):
        for k in (3, 4):
            g, roles = make_gk(k)
            gp = make_gk_prime(k)
            # ladder edge i in gp corresponds to g's edge between shifted ids
            mapping = {}
            for idx, (u, v) in enumerate(gp.edges):
                mapping[idx] = g.edge_index[(u + 2, v + 2)]
            found: list[EdgeColouring] = []
            enumerate_nac(g, on_found=found.append)
            for c in found:
                sub_red = [i for i in range(gp.m) if c.is_red(mapping[i])]
                assert locally_nac_check(gp, EdgeColouring.from_red_edges(gp.m, sub_red), k)


class TestUnitOrder:
    def test_is_a_permutation_of_the_units(self):
        rnd = random.Random(4100)
        graphs = [make_2tree(41, 1500), make_cycle(3000), make_complete_bipartite(6, 10)]
        graphs += [random_graph(rnd, n, rnd.randrange(1, 3 * n)) for n in range(2, 30)]
        for g in graphs:
            order = _vertex_order(g)
            assert order[0] == g.edges[0][0] and sorted(order) == list(range(g.n))
            units, levels = _frontier_levels(g, triangle_classes(g))
            assert sorted(units) == triangle_classes(g) and len(levels) == len(units)
        assert _vertex_order(Graph.from_edges(3, [])) == [0, 1, 2]

    def test_states_are_deterministic_and_no_more_than_before(self, fix):
        # the cycle-closing edge order this one replaced took 8 130 states on
        # h18 and 74 714 on K_{6,10}
        h18 = fix["h18"].graph
        rnd = random.Random(18)
        cases = [(h18, 8130)] + [(relabelled(h18, rnd), 8130) for _ in range(3)]
        cases.append((make_complete_bipartite(6, 10), 74714))
        for g, before in cases:
            first: dict = {}
            second: dict = {}
            assert count_nac(g, first) == count_nac(g, second)
            assert first["states"] == second["states"] <= before


class TestTriangleClasses:
    def test_examples(self):
        assert triangle_classes(bowtie()) == [[0, 1, 2], [3, 4, 5]]
        assert triangle_classes(make_2tree(3, 12)) == [list(range(21))]
        assert triangle_classes(make_cycle(5)) == [[i] for i in range(5)]

    def test_nac_colourings_are_constant_on_classes(self, laman_keys):
        for key in laman_keys[6] + laman_keys[7]:
            g = parse_graph6(key)
            found: list[EdgeColouring] = []
            enumerate_nac(g, on_found=found.append)
            for c in found:
                for unit in triangle_classes(g):
                    assert len({c.is_red(i) for i in unit}) == 1


class TestFrontierCounter:
    """count_nac (the block product over the frontier programme) and
    enumerate_nac (the programme on the whole graph) against the edge-by-edge
    search of the oracles."""

    def test_catalog_classes_up_to_8(self, laman_keys, laman8_keys):
        keys = [k for n in laman_keys for k in laman_keys[n]] + laman8_keys
        assert len(keys) == 696
        for key in keys:
            g = parse_graph6(key)
            want = len(dfs_nac_masks(g)[0])
            assert count_nac(g) == enumerate_nac(g) == want, key
            if g.n <= 7:
                assert want == brute_nnac(g), key

    def test_seeded_random_graphs(self):
        # disconnected graphs, isolated vertices and cut vertices all occur;
        # the counter is also run on the whole graph, without the block product
        rnd = random.Random(4200)
        kinds = {"disconnected": 0, "isolated": 0, "cut vertex": 0}
        for _ in range(200):
            n = rnd.randrange(2, 10)
            g = random_graph(rnd, n, rnd.randrange(1, 2 * n))
            want = len(dfs_nac_masks(g)[0])
            assert count_nac(g) == enumerate_nac(g) == want, g.edges
            assert _frontier_count(g)[0] == want, g.edges
            if g.m <= 12:
                assert brute_nnac(g) == want, g.edges
            core = [v for v in range(g.n) if g.adjacency[v]]
            kinds["isolated"] += len(core) < g.n
            kinds["disconnected"] += len(connected_components(g)) > 1
            kinds["cut vertex"] += len(core) == g.n and len(blocks(g)) > len(connected_components(g))
        assert min(kinds.values()) >= 10, kinds

    def test_acceptance_corpora_against_the_search(self, fix):
        # criteria 07 and 08 of the acceptance suite compare count_nac with
        # enumerate_nac, which share one engine; these are their inputs
        # against the search and, where 2^m is small, brute force
        rnd = random.Random(1807)
        done = 0
        while done < 50:
            n = rnd.randrange(5, 10)
            m = rnd.randrange(n - 1, min(2 * n - 2, n * (n - 1) // 2))
            g = random_connected_graph(rnd, n, m)
            if len(blocks(g)) < 2:
                continue
            want = len(dfs_nac_masks(g)[0])
            assert count_nac(g) == enumerate_nac(g) == want, g.edges
            if g.m <= 12:
                assert brute_nnac(g) == want, g.edges
            done += 1
        h18 = fix["h18"].graph
        assert count_nac(h18) == enumerate_nac(h18) == len(dfs_nac_masks(h18)[0]) == 180607

    def test_complete_bipartite_formula(self):
        for a in range(1, 6):
            for b in range(a, 6):
                if a + b > 2:
                    assert count_nac(make_complete_bipartite(a, b)) == 2 ** (a + b - 2) - 1, (a, b)
        assert count_nac(make_complete_bipartite(6, 10)) == 2 ** 14 - 1

    def test_flagship_and_deterministic_states(self, fix):
        first: dict = {}
        second: dict = {}
        assert count_nac(fix["h18"].graph, first) == 180607
        assert count_nac(fix["h18"].graph, second) == 180607
        assert first["states"] == second["states"] > 0

    def test_long_cycle_needs_no_recursion(self):
        # one level per edge: 3000 levels, far past Python's recursion limit
        n = 3000
        assert count_nac(make_cycle(n)) == 2 ** (n - 1) - (n + 1)

    def test_states_expanded_are_pinned(self, fix, laman8_keys):
        # a re-encoding of the counter state keeps the state space: merging
        # or splitting states would move these
        for g, states in ((fix["h18"].graph, 1006), (make_complete_bipartite(6, 10), 5448)):
            stats: dict = {}
            count_nac(g, stats)
            assert stats["states"] == _frontier_masks(g, False)[1] == states
        assert sum(_frontier_count(parse_graph6(key))[1] for key in laman8_keys) == 14160

    def test_steady_levels_equal_the_full_step(self, fix, monkeypatch):
        # a steady level brings no vertex and keeps its frontier; its short
        # step gives, state for state, the children of the full step, and
        # every other level takes the full step
        calls = {"steady": 0, "full": 0}
        full, steady = colouring._colour_level, colouring._steady_level

        def spy_full(key, level, stride, colours):
            size, new, _, keep, _ = level
            assert new or keep != list(range(size)), level
            calls["full"] += 1
            return full(key, level, stride, colours)

        def spy_steady(key, level, stride, colours):
            children = steady(key, level, stride, colours)
            assert children == full(key, level, stride, colours), (key, level, stride, colours)
            calls["steady"] += 1
            return children

        monkeypatch.setattr(colouring, "_colour_level", spy_full)
        monkeypatch.setattr(colouring, "_steady_level", spy_steady)
        h18 = fix["h18"].graph
        rnd = random.Random(3000)
        named = [h18] + [relabelled(h18, rnd) for _ in range(3)]
        named += [make_complete_bipartite(6, 10), make_complete_bipartite(4, 8)]
        for g in named:
            before = calls["steady"]
            assert count_nac(g) == len(nac_masks(g)), g.edges
            assert calls["steady"] > before, g.edges
        wide = 0
        for _ in range(30):
            n = rnd.randrange(8, 21)
            g = random_connected_graph(rnd, n, rnd.randrange(n, 3 * n))
            _, levels = _frontier_levels(g, triangle_classes(g))
            wide += max(len(level[3]) for level in levels) >= 9
            assert count_nac(g) == len(nac_masks(g)), g.edges
        assert wide >= 5 and min(calls.values()) >= 10000, (wide, calls)

    def test_state_budget(self, monkeypatch):
        # one budget refuses both programmes with one text, when counting and
        # when listing alike, each naming its own level and frontier width
        monkeypatch.setattr(graph, "FRONTIER_BUDGET", 2)
        text = "the frontier programme passed its budget of 2 states per level at level {} of {}, frontier width {}"
        k33, c6 = make_complete_bipartite(3, 3), make_cycle(6)
        runs = [
            (count_nac, k33, (3, 9, 3)),
            (nac_masks, k33, (3, 9, 3)),
            (exhaustive_stable_cut, c6, (2, 6, 2)),
            (nap_masks, c6, (2, 6, 2)),
        ]
        for run, g, where in runs:
            with pytest.raises(PreconditionError) as refusal:
                run(g)
            assert str(refusal.value) == text.format(*where), run
        # a path's levels hold 2 states each: has_red is 0 or 1
        assert count_nac(make_path(6)) == len(nac_masks(make_path(6))) == 15

    def test_value_and_link_modes_reach_the_same_states(self, laman_keys):
        # the driver merges values in one mode and back-links in the other;
        # both must keep the same final states in the same order, for both
        # programmes
        graphs = [parse_graph6(key) for n in laman_keys for key in laman_keys[n]]
        rnd = random.Random(3400)
        for _ in range(100):
            n = rnd.randrange(1, 12)
            graphs.append(random_graph(rnd, n, rnd.randrange(0, 2 * n + 1)))
        assert sum(len(connected_components(g)) > 1 for g in graphs[-100:]) >= 30
        assert sum(not all(g.adjacency) for g in graphs[-100:]) >= 20
        for g in graphs:
            if g.m:
                units, values, expanded = colouring._frontier_pass(g)
                linked = colouring._frontier_pass(g, [])
                assert (linked[0], list(linked[1]), linked[2]) == (units, list(values), expanded), g.edges
            for allowed in ({}, dict.fromkeys(g.edges[0] if g.m else (), (BLUE, MIXED))):
                order, values = _labellings(g, allowed)
                linked = _labellings(g, allowed, [])
                assert linked[0] == order and list(linked[1]) == list(values), g.edges

    def test_wide_frontiers_against_the_search(self, monkeypatch):
        # a frontier at least 9 wide has room for pairs past bit 64 of a mask
        seen = spy_on_states(monkeypatch)
        rnd = random.Random(1302)
        done = 0
        while done < 4:
            n = rnd.randrange(16, 21)
            g = random_connected_graph(rnd, n, rnd.randrange(2 * n, 3 * n))
            _, levels = _frontier_levels(g, triangle_classes(g))
            if max(len(level[3]) for level in levels) < 9:
                continue
            masks = nac_masks(g)
            assert masks == dfs_nac_masks(g)[0], g.edges
            assert _frontier_count(g)[0] == count_nac(g) == len(masks), g.edges
            done += 1
        assert seen["bits"] > 64

    def test_stride_is_the_widest_frontier(self, monkeypatch):
        # a long 2-tree is one triangle class, so one level holds all its
        # vertices; glued at an edge to K_{3,3}, whose NAC-colourings it
        # keeps, the frontier stays 4 wide and so do the masks
        seen = spy_on_states(monkeypatch)
        piece = make_complete_bipartite(3, 3)
        for size in (12, 1500):
            tree = make_2tree(13, size)
            a, b = tree.edges[0]
            name = {0: a, 3: b}
            glued = [(name.get(u, size + u), name.get(v, size + v)) for u, v in piece.edges if (u, v) != (0, 3)]
            g = Graph.from_edges(size + 6, list(tree.edges) + glued)
            _, levels = _frontier_levels(g, triangle_classes(g))
            assert max(level[0] + len(level[1]) for level in levels) >= size
            assert max(len(level[3]) for level in levels) == 4
            assert _frontier_count(g)[0] == count_nac(g) == count_nac(piece) == 15
            if size == 12:
                assert nac_masks(g) == dfs_nac_masks(g)[0]
        assert seen["strides"] == {4} and 0 < seen["bits"] <= 16

    def test_2tree_is_one_unit(self):
        stats: dict = {}
        assert count_nac(make_2tree(42, 1500), stats) == 0
        assert stats["states"] == 1

    def test_one_unit_counts_zero_without_levels(self, monkeypatch):
        # a graph whose edges form one triangle class is coloured blue
        # throughout, so the programme is never laid out
        def refuse(*args):
            raise AssertionError("_frontier_levels reached")

        monkeypatch.setattr(colouring, "_frontier_levels", refuse)
        graphs = [make_2tree(seed, n) for seed in range(3) for n in (3, 5, 9)]
        graphs += [make_complete(5), make_wheel(7), make_2tree(43, 1500)]
        for g in graphs:
            assert len(triangle_classes(g)) == 1
            stats: dict = {}
            assert count_nac(g, stats) == 0 and stats["states"] == 1, g.edges
            assert _frontier_count(g) == (0, 1) and nac_masks(g) == []

    def test_last_unit_with_several_edges_against_brute_force(self, monkeypatch):
        # the last level only decides acceptance: its unit's edges are
        # checked against the other colour and its join against the pairs;
        # both refusals and acceptances there must occur
        last = {"refused": 0, "accepted": 0}
        real = colouring._colour_level

        def spy(key, level, stride, colours):
            children = real(key, level, stride, colours)
            if not level[3]:
                last["refused"] += children.count(None)
                last["accepted"] += len(children) - children.count(None)
            return children

        monkeypatch.setattr(colouring, "_colour_level", spy)
        rnd = random.Random(2502)
        done = 0
        while done < 60:
            n = rnd.randrange(5, 9)
            g = random_connected_graph(rnd, n, rnd.randrange(n, min(14, n * (n - 1) // 2) + 1))
            units, _ = _frontier_levels(g, triangle_classes(g))
            if len(units) < 2 or len(units[-1]) < 3:
                continue
            want = [mask for mask in range(0, 1 << g.m, 2) if brute_is_nac(g, mask)]
            assert count_nac(g) == _frontier_count(g)[0] == brute_nnac(g) == len(want), g.edges
            assert sorted(nac_masks(g)) == want, g.edges
            done += 1
        assert min(last.values()) >= 100, last

    def test_requires_an_edge(self):
        with pytest.raises(PreconditionError):
            count_nac(Graph.from_edges(3, []))
