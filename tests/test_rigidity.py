from __future__ import annotations

import random
import time

import pytest

from rignac.colouring import count_nac
from rignac.graph import (
    Graph,
    PreconditionError,
    canonical_form,
    connected_components,
    is_connected,
    parse_graph6,
)
from rignac.rigidity import (
    GscDecomposition,
    GscNonMembership,
    GscStep,
    count_prism_subgraphs,
    _peel,
    gsc_decomposition,
    is_2tree,
    pebble_game,
    rank,
    recognize_0extension_graph,
    recognize_gsc,
    rigid_components,
    rigidity_report,
    rigidly_related_pairs,
    two_tree_peel,
    vertex_split,
    zero_extend,
)
from rignac.stable_cut import exhaustive_stable_cut
from rignac.constructions import make_2tree, make_complete, make_complete_bipartite, make_gk, make_gsc

from oracles import (
    add_edge,
    are_isomorphic,
    contract_edge,
    is_cut,
    remove_edge_index,
    brute_max_sparse_subset,
    brute_rigid_components,
    brute_stable_cuts,
    deadline,
    generic_matrix_rank,
    generic_related_pairs,
    index_order_game,
    glue_random_pieces,
    grow_by_0extensions,
    iter_brute_stable_cuts,
    non_member_graphs,
    random_0extension_graph,
    random_connected_graph,
    random_flexible_connected,
    random_gsc_member,
    random_prism_chain,
    random_graph,
    random_laman_edges,
    random_two_body,
    relabelled,
    remove_vertices,
    slow_0extension,
    slow_count_prism_subgraphs,
    slow_gsc_decomposition,
    slow_peel,
    slow_rigid_components,
    slow_two_tree_peel,
)


def c4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def k4():
    return Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def k4_minus_e():
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def bowtie():
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


class TestRank:
    def test_examples(self):
        assert rank(Graph.from_edges(2, [(0, 1)])) == 1
        assert rank(c4()) == 4
        assert rank(k4()) == 5

    def test_requires_two_vertices(self):
        with pytest.raises(PreconditionError):
            rank(Graph.from_edges(1, []))

    def test_matches_exhaustive_sparse_maximum(self, laman_keys):
        rnd = random.Random(2)
        corpus = [parse_graph6(k) for k in laman_keys[6]]
        for _ in range(40):
            n = rnd.randrange(3, 8)
            m = rnd.randrange(1, min(12, n * (n - 1) // 2) + 1)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            corpus.append(Graph.from_edges(n, rnd.sample(pairs, m)))
        for g in corpus:
            assert rank(g) == brute_max_sparse_subset(g)

    def test_matches_generic_matrix_rank(self, laman_keys):
        rnd = random.Random(3)
        for _ in range(30):
            n = rnd.randrange(2, 10)
            m = rnd.randrange(0, n * (n - 1) // 2 + 1)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph.from_edges(n, rnd.sample(pairs, m))
            assert rank(g) == generic_matrix_rank(g)


class TestRigidityReport:
    def test_prism_rigid(self, fix):
        rep = rigidity_report(fix["prism"].graph)
        assert rep.is_rigid and rep.is_minimally_rigid and rep.rank == 9
        assert len(rep.rigid_components) == 1

    def test_bowtie_flexible_two_components(self):
        rep = rigidity_report(bowtie())
        assert rep.is_flexible and len(rep.rigid_components) == 2
        assert rep.rigid_components == (frozenset({0, 1, 2}), frozenset({2, 3, 4}))

    def test_c4_each_edge_own_component(self):
        rep = rigidity_report(c4())
        assert len(rep.rigid_components) == 4
        assert all(len(c) == 2 for c in rep.rigid_components)

    def test_single_vertex_convention(self):
        rep = rigidity_report(Graph.from_edges(1, []))
        assert rep.is_rigid and not rep.is_minimally_rigid and not rep.is_flexible

    def test_components_match_brute_maximal_rigid_sets(self, laman_keys):
        rnd = random.Random(7)
        corpus = [parse_graph6(k) for k in laman_keys[6]] + [parse_graph6(k) for k in laman_keys[7][:15]]
        for _ in range(25):
            n = rnd.randrange(3, 8)
            g = random_connected_graph(rnd, n, rnd.randrange(n - 1, min(2 * n - 2, n * (n - 1) // 2) + 1))
            corpus.append(g)
        for g in corpus:
            got = set(rigidity_report(g).rigid_components)
            assert got == brute_rigid_components(g)

    def test_component_structure_invariants(self):
        rnd = random.Random(9)
        for _ in range(40):
            n = rnd.randrange(2, 10)
            m = rnd.randrange(1, n * (n - 1) // 2 + 1)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph.from_edges(n, rnd.sample(pairs, m))
            comps = rigidity_report(g).rigid_components
            for i, a in enumerate(comps):
                for b in comps[i + 1 :]:
                    assert len(a & b) <= 1
            owners = [sum(1 for c in comps if u in c and v in c) for u, v in g.edges]
            assert owners == [1] * g.m


class TestComponentsAgainstGenericOracle:
    """Components from the pebble game against the generic rigidity matrix."""

    @staticmethod
    def _check(g: Graph) -> tuple[frozenset[int], ...]:
        comps = rigidity_report(g).rigid_components
        related = generic_related_pairs(g)

        def rel(a: int, b: int) -> bool:
            return a == b or (min(a, b), max(a, b)) in related

        expect = {frozenset(w for w in range(g.n) if rel(w, u) and rel(w, v)) for u, v in g.edges}
        assert set(comps) == expect and len(comps) == len(expect)
        first_edge = [min(i for i, (u, v) in enumerate(g.edges) if u in c and v in c) for c in comps]
        assert first_edge == sorted(first_edge)
        pairs = {(a, b) for c in comps for a in c for b in c if a < b}
        assert pairs == related
        assert rigidly_related_pairs(g) == pairs
        return comps

    def test_oracle_matches_rank_definition(self):
        rnd = random.Random(13)
        for _ in range(30):
            n = rnd.randrange(2, 8)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph.from_edges(n, rnd.sample(pairs, rnd.randrange(0, len(pairs) + 1)))
            base = generic_matrix_rank(g)
            expect = {
                (u, v)
                for u, v in pairs
                if g.has_edge(u, v) or generic_matrix_rank(add_edge(g, u, v)) == base
            }
            assert generic_related_pairs(g) == expect

    def test_random_graphs_up_to_30(self):
        rnd = random.Random(17)
        for _ in range(60):
            n = rnd.randrange(2, 31)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            m = rnd.randrange(0, min(len(pairs), 5 * n // 2) + 1)
            self._check(Graph.from_edges(n, rnd.sample(pairs, m)))

    def test_two_body_graphs(self):
        rnd = random.Random(19)
        for n in (40, 47, 53, 60):
            g = random_two_body(rnd, n)
            assert g.m == 2 * n - 4
            assert len(self._check(g)) == 4


def laman_minus_edges(rnd: random.Random, n: int, drop: int) -> Graph:
    """A seeded minimally rigid graph on n vertices without `drop` of its edges."""
    edges = sorted(random_laman_edges(rnd, list(range(n))))
    for i in sorted(rnd.sample(range(len(edges)), drop), reverse=True):
        del edges[i]
    return Graph.from_edges(n, edges)


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def bouquet(piece: Graph, k: int) -> Graph:
    """k copies of `piece` sharing its vertex 0: of triangles, a friendship
    graph; of edges, a star."""
    size = piece.n - 1
    edges = [(a and a + i * size, b + i * size) for i in range(k) for a, b in piece.edges]
    return Graph.from_edges(1 + k * size, edges)


class TestComponentsAgainstSlowReference:
    """Components grown from their pair against one search of the whole
    game per component (`slow_rigid_components`): the same sets in the same
    order, and the rank is the sum of 2|C| - 3 over them."""

    @staticmethod
    def assert_same(g: Graph) -> None:
        comps = rigid_components(g, pebble_game(g))
        expect = slow_rigid_components(g)
        assert comps == expect, (g.n, g.edges)
        if g.n >= 2:
            assert rank(g) == sum(2 * len(c) - 3 for c in expect), (g.n, g.edges)

    def test_catalog_classes_up_to_8_minus_one_edge(self, laman_keys, laman8_keys):
        keys = [k for n in range(3, 8) for k in laman_keys[n]] + list(laman8_keys)
        for key in keys:
            g = parse_graph6(key)
            for i in range(g.m):
                self.assert_same(remove_edge_index(g, i))

    def test_seeded_graphs(self):
        rnd = random.Random(1601)
        corpus = random_flexible_connected(1602, 100, 4, 24)
        corpus += [laman_minus_edges(rnd, rnd.randrange(4, 31), rnd.randrange(1, 4)) for _ in range(100)]
        corpus += [random_two_body(rnd, rnd.randrange(8, 61)) for _ in range(60)]
        corpus += [cycle(n) for n in range(3, 43)]
        corpus += [random_graph(rnd, n, rnd.randrange(0, 3 * n)) for n in (rnd.randrange(2, 31) for _ in range(120))]
        # dense and hub graphs, where many edges are rejected by the game
        sizes = [(f, rnd.randrange(2 * f + 1, 31)) for f in (4, 6, 10) for _ in range(10)]
        dense = [random_graph(rnd, n, f * n) for f, n in sizes]
        dense += [make_complete(n) for n in range(4, 11)]
        dense += [bouquet(make_complete(3), 5), bouquet(make_complete(2), 8), bouquet(make_complete(5), 4)]
        corpus += dense + [with_isolated(g, 2) for g in dense]
        assert len(corpus) >= 480
        assert any(len(connected_components(g)) > 1 for g in corpus)
        assert any(not g.adjacency[w] for g in corpus for w in range(g.n))
        for g in corpus:
            self.assert_same(g)

    def test_cycle_of_10000_vertices(self):
        # a search of the whole game per component took 1.4 s at n = 2 000
        # and 49 s at n = 10 000 on one Xeon core
        g = cycle(10000)
        with deadline(1.0):
            report = rigidity_report(g)
        assert len(report.rigid_components) == 10000 and report.rank == 10000

    def test_sparse_graph_with_2989_components(self):
        # 4.0 s on one Xeon core with a search of the whole game per component
        g = Graph.from_edges(2000, sorted(random_laman_edges(random.Random(2000), range(2000)))[:-1000])
        with deadline(1.0):
            report = rigidity_report(g)
        assert len(report.rigid_components) == 2989 and report.rank == 2 * 2000 - 3 - 1000


def with_isolated(g: Graph, k: int) -> Graph:
    """g followed by k vertices with no edges."""
    return Graph(g.n + k, g.edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges))


class TestPeelOrderGame:
    """`pebble_game` offers the edges in minimum-degree peel order.  The
    rank and the rigid components, as sets and in order, equal those of
    the game that offers them in index order (`index_order_game`)."""

    @staticmethod
    def assert_same(g: Graph) -> None:
        state, ref = pebble_game(g), index_order_game(g)
        assert len(state.accepted) == len(ref.accepted), (g.n, g.edges)
        assert rigid_components(g, state) == rigid_components(g, ref), (g.n, g.edges)

    def test_every_class_up_to_8_with_and_without_each_edge(self, laman_keys, laman8_keys):
        for key in [key for n in laman_keys for key in laman_keys[n]] + laman8_keys:
            g = parse_graph6(key)
            self.assert_same(g)
            for i in range(g.m):
                self.assert_same(remove_edge_index(g, i))
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if not g.has_edge(u, v):
                        self.assert_same(add_edge(g, u, v))

    def test_seeded_laman_graphs_minus_and_plus_edges(self):
        rnd = random.Random(2201)
        for n in (6, 10, 25, 60, 150, 300):
            for _ in range(3):
                edges = sorted(random_laman_edges(rnd, list(range(n))))
                self.assert_same(Graph.from_edges(n, edges))
                for drop in range(1, min(11, len(edges))):
                    self.assert_same(Graph.from_edges(n, rnd.sample(edges, len(edges) - drop)))
                present = set(edges)
                absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
                self.assert_same(Graph.from_edges(n, edges + rnd.sample(absent, n // 10)))

    def test_two_body_graphs_plain_and_relabelled(self):
        rnd = random.Random(2202)
        for n in (8, 13, 40, 101, 300, 1000):
            g = random_two_body(rnd, n)
            self.assert_same(g)
            self.assert_same(relabelled(g, rnd))

    def test_random_graphs_by_density(self):
        rnd = random.Random(2203)
        for ratio in (1.5, 2, 2.5, 3, 4, 6):
            for n in (5, 12, 30, 80, 200):
                for _ in range(3):
                    self.assert_same(random_graph(rnd, n, int(ratio * n)))

    def test_disconnected_graphs_and_isolated_vertices(self):
        rnd = random.Random(2204)
        corpus = [Graph(n, ()) for n in range(1, 5)]
        for _ in range(20):
            a = Graph.from_edges(12, random_laman_edges(rnd, list(range(12))))
            b = random_two_body(rnd, rnd.randrange(8, 30))
            c = random_graph(rnd, 15, rnd.randrange(10, 60))
            corpus += [disjoint_union(a, b), disjoint_union(c, a), with_isolated(b, 3)]
            corpus += [relabelled(with_isolated(disjoint_union(b, c), 2), rnd)]
        assert any(not g.adjacency[w] for g in corpus for w in range(g.n))
        assert all(len(connected_components(g)) > 1 for g in corpus if g.n > 1)
        for g in corpus:
            self.assert_same(g)

    def test_searches_per_edge_on_construction_ordered_graphs(self):
        # peel order makes at most 1.08 searches per edge on these graphs;
        # index order made 1.67-1.77, so the bound is 1.1
        rnd = random.Random(2200)
        for n in (500, 1000, 2000, 4000):
            graphs = [
                random_two_body(rnd, n),
                Graph.from_edges(n, random_laman_edges(rnd, list(range(n)))),
                make_2tree(n, n),
            ]
            for g in graphs + [relabelled(g, rnd) for g in graphs]:
                assert pebble_game(g).searches <= 1.1 * g.m, (n, pebble_game(g).searches, g.m)


class TestPeelOracle:
    """`_peel` takes the same steps as `slow_peel`, which rescans the whole
    live graph for the smallest ear and for the first live prism's first
    move at every step."""

    def assert_same_steps(self, g: Graph) -> None:
        assert list(_peel(g)) == slow_peel(g), (g.n, g.edges)

    def test_every_class_up_to_8(self, laman_keys, laman8_keys):
        for key in [key for n in laman_keys for key in laman_keys[n]] + laman8_keys:
            self.assert_same_steps(parse_graph6(key))

    def test_2trees_up_to_4000_vertices(self):
        rnd = random.Random(7500)
        for seed, n in enumerate((2, 3, 10, 60, 400, 4000)):
            g = make_2tree(seed, n)
            for h in (g, relabelled(g, rnd)):
                self.assert_same_steps(h)

    def test_prism_chains_and_glued_members(self):
        rnd = random.Random(7600)
        for prisms in range(1, 16):
            g = random_prism_chain(rnd, prisms)
            for h in (g, relabelled(g, rnd), glue_random_pieces(rnd, g, 4)):
                self.assert_same_steps(h)
            self.assert_same_steps(random_gsc_member(rnd, prisms))

    def test_non_members(self):
        for g in non_member_graphs().values():
            steps = list(_peel(g))
            assert g.n - sum(len(s.new_vertices) for s in steps) == 5
            assert steps == slow_peel(g)

    def test_seeded_laman_graphs(self):
        rnd = random.Random(7700)
        for _ in range(60):
            n = rnd.randrange(3, 60)
            self.assert_same_steps(Graph.from_edges(n, random_laman_edges(rnd, list(range(n)))))


class TestTwoTrees:
    def test_examples(self):
        assert is_2tree(Graph.from_edges(2, [(0, 1)]))
        assert not is_2tree(Graph.from_edges(1, []))
        assert is_2tree(k4_minus_e())
        assert not is_2tree(c4())

    def test_prism_not_2tree(self, fix):
        assert not is_2tree(fix["prism"].graph)

    def test_random_2trees_recognized_with_certificate(self):
        for seed in range(12):
            g = make_2tree(seed, 4 + seed % 6)
            peel = two_tree_peel(g)
            assert peel is not None and len(peel) == g.n - 2

    def assert_same_peel(self, g: Graph) -> None:
        want = slow_two_tree_peel(g)
        assert two_tree_peel(g) == want, (g.n, g.edges)
        assert is_2tree(g) == (want is not None)

    def test_peel_matches_the_greedy_loop_on_every_class_up_to_8(self, laman_keys, laman8_keys):
        graphs = [Graph.from_edges(2, [(0, 1)])]
        graphs += [parse_graph6(key) for n in laman_keys for key in laman_keys[n]]
        graphs += [parse_graph6(key) for key in laman8_keys]
        assert len(graphs) == 697  # K2 and the 696 classes with n = 3..8
        for g in graphs:
            self.assert_same_peel(g)
        assert sum(is_2tree(g) for g in graphs) == 61  # 1, 1, 1, 2, 5, 12, 39 for n = 2..8

    def test_peel_matches_the_greedy_loop_on_seeded_2trees(self):
        rnd = random.Random(7100)
        for seed in range(300):
            g = make_2tree(seed, rnd.randrange(2, 61))
            for h in (g, relabelled(g, rnd)):
                assert slow_two_tree_peel(h) is not None
                self.assert_same_peel(h)

    def test_peel_matches_the_greedy_loop_on_seeded_random_graphs(self):
        rnd = random.Random(7200)
        graphs = []
        for _ in range(500):
            n = rnd.randrange(0, 13)
            m = 2 * n - 3 if rnd.random() < 0.6 else rnd.randrange(0, n * (n - 1) // 2 + 1)
            graphs.append(random_graph(rnd, n, max(m, 0)))
        assert sum(g.n < 2 for g in graphs) >= 10
        assert sum(g.n >= 2 and not is_connected(g) for g in graphs) >= 10
        assert sum(g.m != 2 * g.n - 3 for g in graphs) >= 100
        assert sum(is_2tree(g) for g in graphs) >= 10
        for g in graphs:
            self.assert_same_peel(g)

    def test_peel_matches_the_greedy_loop_on_seeded_prism_chains(self):
        rnd = random.Random(7400)
        for prisms in range(1, 13):
            g = random_prism_chain(rnd, prisms)
            for h in (g, relabelled(g, rnd), glue_random_pieces(rnd, g, 3)):
                self.assert_same_peel(h)
            self.assert_same_peel(glue_random_pieces(rnd, make_2tree(prisms, 3 + prisms), 2))

    def test_deep_prism_chain_stops_at_its_first_prism(self):
        g = random_prism_chain(random.Random(41), 100)
        start = time.perf_counter()
        assert two_tree_peel(g) is None and not is_2tree(g)
        assert time.perf_counter() - start < 0.1

    def test_catalog_link_no_nac_iff_2tree(self, catalog6):
        for entry in catalog6:
            assert entry.is_2tree == (entry.nnac == 0)


class TestExtensions:
    def test_zero_extend_examples(self):
        k2 = Graph.from_edges(2, [(0, 1)])
        tri, is_open = zero_extend(k2, 0, 1)
        assert tri.m == 3 and not is_open
        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        sq, is_open = zero_extend(p3, 0, 2)
        assert is_open and are_isomorphic(sq, c4())
        with pytest.raises(PreconditionError):
            zero_extend(k2, 1, 1)

    def test_zero_extension_preserves_minimal_rigidity(self, laman_keys):
        for key in laman_keys[5]:
            g = parse_graph6(key)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    child, _ = zero_extend(g, u, v)
                    assert rigidity_report(child).is_minimally_rigid

    def test_vertex_split_validation(self):
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(PreconditionError, match="share exactly one"):
            vertex_split(tri, 0, {1, 2}, {1, 2})
        with pytest.raises(PreconditionError, match="neighbourhood"):
            vertex_split(tri, 0, {1}, {1})

    def test_vertex_split_preserves_minimal_rigidity(self):
        g = k4_minus_e()
        # split at the degree-3 vertex 1 (neighbours 0, 2, 3)
        out = vertex_split(g, 1, {0, 2}, {2, 3})
        assert rigidity_report(out).is_minimally_rigid

    def test_split_then_contract_is_identity(self):
        g = k4_minus_e()
        out = vertex_split(g, 1, {0, 2}, {2, 3})
        back, _ = contract_edge(out, out.edge_index[(1, 4)])
        assert canonical_form(back) == canonical_form(g)

    def test_vertex_split_on_minimally_rigid_corpus(self, laman_keys):
        from itertools import combinations

        for key in laman_keys[5]:
            g = parse_graph6(key)
            for v in range(g.n):
                nbrs = sorted(g.adjacency[v])
                for shared in nbrs:
                    rest = [w for w in nbrs if w != shared]
                    for take in range(len(rest) + 1):
                        for left in combinations(rest, take):
                            n1 = frozenset(left) | {shared}
                            n2 = frozenset(rest) - frozenset(left) | {shared}
                            out = vertex_split(g, v, n1, n2)
                            assert rigidity_report(out).is_minimally_rigid


class TestGscRecognition:
    def test_prism_is_member_with_one_prism(self, fix):
        prism = fix["prism"].graph
        dec = recognize_gsc(prism)
        assert isinstance(dec, GscDecomposition)
        assert dec.prism_count == 1
        assert are_isomorphic(dec.replay(), prism)

    def test_k4_minus_e_two_triangle_steps(self):
        dec = recognize_gsc(k4_minus_e())
        assert isinstance(dec, GscDecomposition)
        assert dec.prism_count == 0 and len(dec.steps) == 2

    def test_edge_count_mismatch(self):
        out = recognize_gsc(c4())
        assert isinstance(out, GscNonMembership) and out.reason == "edge count"

    def test_g2_not_member_with_witness(self):
        g2, _ = make_gk(2)
        out = recognize_gsc(g2)
        assert isinstance(out, GscNonMembership)
        assert out.reason == "stable cut"
        from rignac.graph import is_stable_set

        assert is_stable_set(g2, out.stable_cut) and is_cut(g2, out.stable_cut)

    def test_large_non_members_get_the_minimum_witness(self):
        # the 36-vertex eared and the 166-vertex prism-glued non-members
        for n, g in non_member_graphs().items():
            with deadline(0.5):
                assert recognize_gsc(g) == GscNonMembership("stable cut", frozenset({2, 5})), n

    def test_disconnected_rejected(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        with pytest.raises(PreconditionError):
            recognize_gsc(g)

    def test_dichotomy_on_catalogs(self, catalog6, catalog7):
        # member <=> no stable cut, for every tight graph
        for entry in catalog6 + catalog7:
            g = entry.graph
            has_cut = exhaustive_stable_cut(g) is not None
            assert entry.is_gsc == (not has_cut)

    def test_replay_reconstructs_catalog_members(self, catalog7):
        for entry in catalog7:
            if entry.is_gsc:
                dec = recognize_gsc(entry.graph)
                assert are_isomorphic(dec.replay(), entry.graph)

    def test_replay_refuses_a_glue_site_the_graph_lacks(self):
        # after two ears on (0, 1), 2 and 3 are not adjacent: an ear on (2, 3)
        # would build a 5-vertex, 7-edge non-member with the stable cut {2, 3}
        ears = (GscStep("triangle", "edge", (0, 1), (2,)), GscStep("triangle", "edge", (0, 1), (3,)))
        assert GscDecomposition((0, 1), ears).replay().m == 5
        for step in (GscStep("triangle", "edge", (2, 3), (4,)), GscStep("prism", "triangle", (0, 2, 3), (4, 5, 6))):
            with pytest.raises(ValueError, match=f"{step.glue_type} glue site .* not one of the graph built so far"):
                GscDecomposition((0, 1), ears + (step,)).replay()

    def test_power_law_on_members(self, catalog6, catalog7):
        for entry in catalog6 + catalog7:
            if entry.is_gsc:
                assert entry.nnac == 2 ** entry.prism_count - 1

    def test_power_law_on_scripted_members(self):
        rnd = random.Random(123)

        def triangles_of(g: Graph) -> list[tuple[int, int, int]]:
            out = []
            for a in range(g.n):
                for b in sorted(g.adjacency[a]):
                    if b <= a:
                        continue
                    out.extend((a, b, c) for c in sorted(g.adjacency[a] & g.adjacency[b]) if c > b)
            return out

        for trial in range(20):
            steps: list[list] = [["prism", "edge", [0, 1]]] if trial % 2 else [["triangle", "edge", [0, 1]]]
            g = make_gsc(steps)
            for _ in range(rnd.randrange(1, 4)):
                piece = rnd.choice(["triangle", "prism"])
                tris = triangles_of(g)
                if piece == "prism" and tris and rnd.random() < 0.4:
                    steps.append(["prism", "triangle", list(rnd.choice(tris))])
                else:
                    edge = list(g.edges[rnd.randrange(g.m)])
                    if piece == "prism":
                        steps.append(["prism", "edge", edge, rnd.choice(["triangle", "matching"])])
                    else:
                        steps.append(["triangle", "edge", edge])
                g = make_gsc(steps)
            dec = recognize_gsc(g)
            assert isinstance(dec, GscDecomposition), steps
            assert count_nac(g) == 2 ** dec.prism_count - 1
            assert g.m == 2 * g.n - 3

    def test_json_schema(self, fix):
        dec = recognize_gsc(fix["prism"].graph)
        payload = dec.to_json()
        assert payload["base"] == "K2"
        assert payload["prisms"] == 1
        assert all({"piece", "glue", "new"} <= set(s) for s in payload["steps"])


class TestGscPeelAgainstSlowPath:
    """The iterative peel returns the slow recursive peel's first script."""

    @staticmethod
    def same_answer(g: Graph) -> None:
        got = recognize_gsc(g)
        want = slow_gsc_decomposition(g)
        if want is not None:
            assert isinstance(got, GscDecomposition)
            assert got.to_json() == want
            assert gsc_decomposition(g).to_json() == want
            return
        assert isinstance(got, GscNonMembership) and gsc_decomposition(g) is None
        assert got.reason == "stable cut"
        assert got.stable_cut == brute_stable_cuts(g)[0]  # smallest, then lexicographically first

    def test_catalog_classes_up_to_8(self, laman_keys):
        from rignac.catalog import minimally_rigid_graph6

        keys = [k for n in range(3, 8) for k in laman_keys[n]] + minimally_rigid_graph6(8)
        assert len(keys) == 1 + 1 + 3 + 13 + 70 + 608
        for key in keys:
            self.same_answer(parse_graph6(key))

    def test_seeded_2trees(self):
        for seed in range(24):
            self.same_answer(make_2tree(seed, 3 + (seed * 37) % 58))
        self.same_answer(make_2tree(99, 60))

    def test_seeded_prism_chains(self):
        rnd = random.Random(31)
        for prisms in range(1, 11):
            for _ in range(2):
                self.same_answer(random_prism_chain(rnd, prisms))

    def test_seeded_mixed_members(self):
        rnd = random.Random(32)
        for pieces in range(1, 41):
            self.same_answer(random_gsc_member(rnd, 1 + pieces % 10))

    def test_deep_prism_chain_replays(self):
        g = random_prism_chain(random.Random(33), 100)
        dec = recognize_gsc(g)
        assert isinstance(dec, GscDecomposition) and dec.prism_count == 100
        assert dec.replay().edges == g.edges

    def test_deep_2tree(self):
        g = make_2tree(34, 3000)
        dec = gsc_decomposition(g)
        assert dec is not None and dec.prism_count == 0 and len(dec.steps) == g.n - 2
        assert dec.replay().edges == g.edges

    def test_ears_on_a_non_member_are_peeled_once(self):
        # ears do not change membership, so a failed ear is never retried with
        # another: 30 ears cost 30 peel steps, not 2^30 live sets
        base = [(0, 1), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]
        for ears in (1, 2, 3):
            edges = base + [(x, 6 + i) for i in range(ears) for x in (0, 1)]
            self.same_answer(Graph.from_edges(6 + ears, edges))
        edges = base + [(x, 6 + i) for i in range(30) for x in (0, 1)]
        assert gsc_decomposition(Graph.from_edges(36, edges)) is None

    def test_glued_pieces_keep_non_members_out(self, laman_keys):
        # a glued piece neither makes nor breaks a stable cut, so the greedy
        # peel must get stuck on every non-member with pieces glued on
        rnd = random.Random(7300)
        bases = [parse_graph6(key) for n in laman_keys for key in laman_keys[n]]
        bases = [g for g in bases if slow_gsc_decomposition(g) is None]
        assert len(bases) == 64  # 1, 7, 56 for n = 5, 6, 7
        for i, base in enumerate(bases * 2):
            g = glue_random_pieces(rnd, base, 1 + i % 3)
            assert g.m == 2 * g.n - 3
            assert gsc_decomposition(g) is None and slow_gsc_decomposition(g) is None
            assert next(iter_brute_stable_cuts(g), None) is not None

    def test_prism_glued_non_member_is_rejected_quickly(self):
        # 40 prisms glued along edge 0-1 of a non-member (166 vertices): a
        # peel that branched over prism moves took seconds with 12 of them
        edges = [(0, 1), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]
        for p in range(6, 166, 4):
            q, r, t = p + 1, p + 2, p + 3
            edges += [(0, p), (1, p), (q, r), (r, t), (q, t), (0, q), (1, r), (p, t)]
        g = Graph.from_edges(166, edges)
        start = time.perf_counter()
        assert gsc_decomposition(g) is None
        assert time.perf_counter() - start < 0.5

    def test_long_prism_chain_is_peeled_in_linear_time(self):
        # a prism scan of every degree-3 vertex at each prism step took
        # 0.33 / 1.19 / 5.6 s for 200 / 400 / 800 prisms
        g = random_prism_chain(random.Random(5), 800)
        start = time.perf_counter()
        dec = gsc_decomposition(g)
        assert time.perf_counter() - start < 0.5
        assert dec is not None and dec.replay().edges == g.edges

    def test_too_few_edges_is_not_a_member(self):
        assert gsc_decomposition(c4()) is None
        with pytest.raises(PreconditionError):
            gsc_decomposition(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestZeroExtensionRecognition:
    def test_2trees_are_closed_0ext_graphs(self):
        for seed in range(8):
            g = make_2tree(seed, 5 + seed % 4)
            assert recognize_0extension_graph(g) == (True, 0)

    def test_k33_and_its_extension(self):
        k33 = make_complete_bipartite(3, 3)
        assert recognize_0extension_graph(k33) == (False, None)
        seven, _ = zero_extend(k33, 0, 1)
        assert recognize_0extension_graph(seven) == (False, None)

    def test_c4_not_0ext(self):
        # wrong edge count for any 0-extension graph (m = 2n-3 always)
        assert recognize_0extension_graph(c4()) == (False, None)

    def test_gk_min_open_steps(self):
        # each level past the first is two open steps: a_i and b_i see
        # a_(i-1) and b_(i-1), which are not adjacent
        for k in range(1, 61):
            g, _ = make_gk(k)
            assert recognize_0extension_graph(g) == (True, 2 * (k - 1)), k
            if k <= 6:
                assert slow_0extension(g) == (True, 2 * (k - 1)), k

    def test_deep_2tree_needs_no_recursion(self):
        assert recognize_0extension_graph(make_2tree(1, 1200)) == (True, 0)

    def test_matches_recursive_search_on_catalogs_up_to_8(self, laman_keys, laman8_keys):
        for key in [k for n in laman_keys for k in laman_keys[n]] + laman8_keys:
            g = parse_graph6(key)
            assert recognize_0extension_graph(g) == slow_0extension(g), key

    def test_matches_recursive_search_on_seeded_0extension_graphs(self):
        rnd = random.Random(7500)
        for _ in range(300):
            g = random_0extension_graph(rnd, rnd.randrange(3, 17))
            assert recognize_0extension_graph(g) == slow_0extension(g), g.edges

    def test_construction_open_steps_are_the_minimum(self):
        # the lemma against the memoised search, on the generator's own count
        rnd = random.Random(7501)
        for _ in range(200):
            g, opens = grow_by_0extensions(rnd, Graph.from_edges(2, [(0, 1)]), rnd.randrange(3, 15))
            assert slow_0extension(g) == (True, opens), g.edges

    def test_seeded_0extension_graphs_up_to_1000_vertices(self):
        rnd = random.Random(7502)
        sizes = [rnd.randrange(3, 1001) for _ in range(30)] + [1000]
        grown = [grow_by_0extensions(rnd, Graph.from_edges(2, [(0, 1)]), n) for n in sizes]
        start = time.perf_counter()
        for g, opens in grown:
            assert recognize_0extension_graph(g) == (True, opens), g.n
        assert time.perf_counter() - start < 1.0

    def test_k33_grown_to_1006_vertices_is_refused_quickly(self):
        g, _ = grow_by_0extensions(random.Random(7503), make_complete_bipartite(3, 3), 1006)
        start = time.perf_counter()
        assert recognize_0extension_graph(g) == (False, None)
        assert time.perf_counter() - start < 1.0

    def test_open_step_count_oracle(self, laman_keys):
        # independent unmemoised search on the 5- and 6-vertex classes
        def search(g: Graph) -> int | None:
            if g.n == 2:
                return 0
            best = None
            for w in range(g.n):
                if g.degree(w) != 2:
                    continue
                a, b = sorted(g.adjacency[w])
                cost = 0 if g.has_edge(a, b) else 1
                sub, _ = remove_vertices(g, [w])
                rec = search(sub)
                if rec is not None and (best is None or cost + rec < best):
                    best = cost + rec
            return best

        for n in (5, 6):
            for key in laman_keys[n]:
                g = parse_graph6(key)
                expect = search(g)
                assert recognize_0extension_graph(g) == (expect is not None, expect)


class TestPrismSubgraphCount:
    def test_prism_has_one(self, fix):
        assert count_prism_subgraphs(fix["prism"].graph) == 1

    def test_k33_has_none(self):
        assert count_prism_subgraphs(make_complete_bipartite(3, 3)) == 0

    def test_triangle_free_has_none(self):
        assert count_prism_subgraphs(c4()) == 0

    def test_matches_triangle_pair_oracle(self, laman_keys, laman8_keys):
        # every triangle pair with a matching, deduplicated by 9-edge set
        graphs = [parse_graph6(key) for n in laman_keys for key in laman_keys[n]]
        graphs += [parse_graph6(key) for key in laman8_keys]
        rnd = random.Random(1106)
        graphs += [random_graph(rnd, n, rnd.randint(n, n * (n - 1) // 2)) for n in (6, 8, 9, 10) for _ in range(15)]
        for g in graphs:
            assert count_prism_subgraphs(g) == slow_count_prism_subgraphs(g), g.edges
        assert count_prism_subgraphs(make_complete(6)) == slow_count_prism_subgraphs(make_complete(6)) == 60
        assert count_prism_subgraphs(make_complete(8)) == slow_count_prism_subgraphs(make_complete(8)) == 1680
