from __future__ import annotations

import itertools
import random
from itertools import combinations

import networkx as nx
import pytest

from rignac.graph import (
    Graph,
    GraphParseError,
    PreconditionError,
    blocks,
    canonical_form,
    canonical_search,
    certificate_graph6,
    connected_components,
    connected_components_without,
    emit_edge_list,
    emit_graph6,
    induced_subgraph,
    is_connected,
    is_stable_set,
    parse_edge_list,
    parse_graph,
    parse_graph6,
)

from oracles import (
    are_isomorphic,
    brute_is_biconnected,
    contract_edge,
    is_cut,
    brute_isomorphic,
    henneberg_extensions,
    random_connected_graph,
    random_graph,
    relabelled,
    signature_canonical_search,
    slow_canonical_form,
)


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def c4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def k4():
    return Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


class TestParsing:
    def test_edge_list_path(self):
        g = parse_graph("0 1\n1 2")
        assert g.n == 3 and g.edges == ((0, 1), (1, 2))

    def test_labels_compacted_by_first_appearance(self):
        g, labels = parse_edge_list("7 3\n3 9")
        assert labels == ["7", "3", "9"]
        assert g.edges == ((0, 1), (1, 2))

    def test_comments_and_blank_lines(self):
        g = parse_graph("# a path\n0 1\n\n1 2  # tail\n")
        assert g.m == 2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            parse_graph("0 1\n0 1")
        with pytest.raises(GraphParseError, match="duplicate"):
            parse_graph("0 1\n1 0")

    def test_loop_rejected(self):
        with pytest.raises(GraphParseError, match="loop"):
            parse_graph("2 2")

    def test_malformed_line_names_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("0 1\n0 1 2")

    def test_errors_keep_their_messages(self):
        cases = {
            "0 1\n0 1 2": "line 2: expected two tokens, got '0 1 2'",
            "0 1\n  3   # tail": "line 2: expected two tokens, got '3'",
            "0 1\n2 2": "line 2: loop at '2'",
            "a b\nb c\n# c\nc b\na b": "line 4: duplicate edge 'c' 'b'",
            "0 1\n1 2 # x\n\n2 1\n1 0\n0 1": "line 4: duplicate edge '2' '1'",
            "# only\n\n": "empty edge list",
        }
        for text, message in cases.items():
            with pytest.raises(GraphParseError) as err:
                parse_edge_list(text)
            assert str(err.value) == message

    def test_shuffled_edge_lists_against_from_edges(self):
        rnd = random.Random(2205)
        for _ in range(40):
            n = rnd.randrange(2, 30)
            g = random_graph(rnd, n, rnd.randrange(1, 3 * n))
            pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges]
            rnd.shuffle(pairs)
            h, labels = parse_edge_list("\n".join(f"x{u} x{v}  # e" for u, v in pairs))
            assert h == Graph.from_edges(h.n, [(labels.index(f"x{u}"), labels.index(f"x{v}")) for u, v in pairs])
            if all(g.adjacency):
                h, labels = parse_edge_list("\n".join(f"{u} {v}" for u, v in pairs))
                assert h == g and labels == [str(v) for v in range(n)]

    def test_autodetect_graph6(self):
        g = parse_graph("D?{")
        assert g == parse_graph6("D?{")

    def test_empty_input(self):
        with pytest.raises(GraphParseError):
            parse_graph("   \n# only a comment\n")


class TestGraph6:
    def test_round_trip_examples(self):
        for g in (triangle(), c4(), k4()):
            assert parse_graph6(emit_graph6(g)) == g

    def test_header_stripped(self):
        g = c4()
        assert parse_graph6(">>graph6<<" + emit_graph6(g)) == g

    def test_networkx_oracle_bit_exact(self, laman_keys):
        rnd = random.Random(5)
        corpus = [triangle(), c4(), k4()]
        for n in range(3, 8):
            corpus.extend(parse_graph6(k) for k in laman_keys[n][:10])
        for _ in range(20):
            n = rnd.randrange(2, 12)
            m = rnd.randrange(0, n * (n - 1) // 2 + 1)
            corpus.append(Graph.from_edges(n, rnd.sample(list(combinations(range(n), 2)), m)))
        for g in corpus:
            mine = emit_graph6(g)
            theirs = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
            assert mine == theirs
            back = nx.from_graph6_bytes(mine.encode())
            assert sorted(map(tuple, map(sorted, back.edges))) == list(g.edges)

    def test_parse_rejects_garbage(self):
        with pytest.raises(GraphParseError):
            parse_graph6("D?")  # truncated body
        with pytest.raises(GraphParseError):
            parse_graph6("D?{{")  # oversized body
        cases = {
            "  ": "empty graph6 string",
            "~??": "unsupported graph6 vertex count byte '~'",
            "D?": "graph6 body length 1, expected 2 for n=5",
            "D?>": "invalid graph6 character '>'",
            "D\x7f?": "invalid graph6 character '\\x7f'",
        }
        for text, message in cases.items():
            with pytest.raises(GraphParseError) as err:
                parse_graph6(text)
            assert str(err.value) == message

    def test_parse_matches_networkx_up_to_62_vertices(self):
        rnd = random.Random(2206)
        for n in list(range(0, 14)) + [30, 47, 62]:
            pairs = list(combinations(range(n), 2))
            g = Graph.from_edges(n, rnd.sample(pairs, rnd.randrange(0, len(pairs) + 1)))
            assert parse_graph6(nx.to_graph6_bytes(_to_nx(g), header=False).decode()) == g

    def test_edge_list_round_trip(self):
        g = k4()
        assert parse_graph(emit_edge_list(g)) == g


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


class TestComponentsAndBlocks:
    def test_components_examples(self):
        assert connected_components(triangle()) == [frozenset({0, 1, 2})]
        two = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert connected_components(two) == [frozenset({0, 1}), frozenset({2, 3})]
        empty3 = Graph.from_edges(3, [])
        assert connected_components(empty3) == [frozenset({0}), frozenset({1}), frozenset({2})]

    def test_blocks_examples(self):
        bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert sorted(len(b) for b in blocks(bowtie)) == [3, 3]
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert len(blocks(p4)) == 3
        assert len(blocks(k4())) == 1

    def test_blocks_reject_isolated_vertex(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(PreconditionError, match="isolated"):
            blocks(g)

    def test_blocks_partition_and_biconnectivity(self):
        rnd = random.Random(11)
        for _ in range(25):
            n = rnd.randrange(4, 9)
            g = random_connected_graph(rnd, n, rnd.randrange(n - 1, 2 * n))
            bl = blocks(g)
            covered = sorted(i for b in bl for i in b)
            assert covered == list(range(g.m))
            for b in bl:
                verts = {v for i in b for v in g.edges[i]}
                sub, _ = induced_subgraph(g, verts)
                edge_pick = [e for e in g.edges if e[0] in verts and e[1] in verts]
                assert len(b) == 1 or brute_is_biconnected(
                    Graph.from_edges(len(verts), _relabel(edge_pick, sorted(verts)))
                )

    def test_blocks_match_networkx_on_seeded_graphs(self):
        # disconnected graphs, bridges and cut vertices; isolated vertices
        # belong to no block and are dropped first
        rnd = random.Random(1313)
        for _ in range(300):
            n = rnd.randrange(2, 30)
            g = random_graph(rnd, n, rnd.randrange(1, 2 * n))
            g, _ = induced_subgraph(g, [v for v in range(g.n) if g.adjacency[v]])
            want = [
                frozenset(g.edge_index[min(u, v), max(u, v)] for u, v in comp)
                for comp in nx.biconnected_component_edges(nx.Graph(g.edges))
            ]
            assert blocks(g) == sorted(want, key=min), g.edges

    def test_components_without_match_networkx(self):
        # content and order (by smallest vertex) of the components left after
        # deleting a set, and is_cut on the same set; ids -1 and n are
        # ignored by the search and refused by is_cut
        rnd = random.Random(1515)
        for _ in range(300):
            n = rnd.randrange(1, 25)
            g = random_graph(rnd, n, rnd.randrange(0, 2 * n))
            order = rnd.sample(range(n), n)
            stable: set[int] = set()
            for w in order:
                if not any((min(w, x), max(w, x)) in g.edge_index for x in stable):
                    stable.add(w)
            sets = [set(), {order[0]}, stable, set(order[1:]), set(order)]
            for removed in sets + [s | {-1} for s in sets[:3]] + [s | {n} for s in sets[:3]]:
                real = {w for w in removed if 0 <= w < n}
                h = _to_nx(g)
                h.remove_nodes_from(real)
                want = sorted((frozenset(c) for c in nx.connected_components(h)), key=min)
                assert connected_components_without(g, removed) == want, (g.edges, removed)
                if real == removed:
                    assert is_cut(g, removed) == (len(want) >= 2), (g.edges, removed)
                else:
                    with pytest.raises(ValueError, match="out of range"):
                        is_cut(g, removed)

    def test_block_order_deterministic(self):
        bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert [min(b) for b in blocks(bowtie)] == sorted(min(b) for b in blocks(bowtie))


def _relabel(edges, order):
    pos = {v: i for i, v in enumerate(order)}
    return [(pos[u], pos[v]) for u, v in edges]


class TestPredicates:
    def test_stable_set(self):
        assert is_stable_set(c4(), {0, 2})
        assert not is_stable_set(c4(), {0, 1})
        assert is_stable_set(c4(), set())

    def test_is_cut(self):
        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert is_cut(p3, {1})
        assert not any(is_cut(k4(), set(s)) for s in combinations(range(4), 2))
        disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert is_cut(disconnected, set())

    def test_cut_needs_two_survivors(self):
        assert not is_cut(triangle(), {0, 1})

    def test_neighbourhood_cut_is_a_size_test(self):
        # deleting N(u) isolates u, so N(u) is a cut iff another vertex is left
        rnd = random.Random(1516)
        graphs = []
        for _ in range(250):
            n = rnd.randrange(1, 16)
            graphs.append(random_graph(rnd, n, rnd.randrange(0, 2 * n)))
        assert sum(not all(g.adjacency) for g in graphs) >= 20
        assert sum(not is_connected(g) for g in graphs) >= 50
        for g in graphs:
            for u in range(g.n):
                assert is_cut(g, g.adjacency[u]) == (g.n >= len(g.adjacency[u]) + 2), (g.edges, u)

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            is_stable_set(triangle(), {5})

    def test_stable_set_matches_an_edge_scan(self):
        rnd = random.Random(8400)
        for _ in range(300):
            n = rnd.randrange(1, 12)
            pairs = list(combinations(range(n), 2))
            g = Graph.from_edges(n, rnd.sample(pairs, rnd.randrange(len(pairs) + 1)))
            for _ in range(10):
                s = set(rnd.sample(range(n), rnd.randrange(n + 1)))
                assert is_stable_set(g, s) == all(not (u in s and v in s) for u, v in g.edges)
            for bad in (-1, n):
                with pytest.raises(ValueError, match="out of range"):
                    is_stable_set(g, {0, bad})


class TestContraction:
    def test_triangle_to_edge(self):
        g, merged = contract_edge(triangle(), 0)
        assert g.n == 2 and g.m == 1 and merged == 0

    def test_c4_to_triangle(self):
        g, _ = contract_edge(c4(), 0)
        assert are_isomorphic(g, triangle())

    def test_k4_quotient_oracle(self):
        g, merged = contract_edge(k4(), 0)

        def quotient(w: int) -> int:  # contract (0,1): 1 -> 0, then compact
            w = 0 if w == 1 else w
            return w - 1 if w > 1 else w

        expect = {
            (min(a, b), max(a, b))
            for a, b in ((quotient(x), quotient(y)) for x, y in k4().edges)
            if a != b
        }
        assert set(g.edges) == expect
        assert are_isomorphic(g, triangle())
        assert merged == 0

    def test_merged_keeps_smaller_id(self):
        g = Graph.from_edges(5, [(1, 3), (3, 4), (0, 1), (0, 4)])
        contracted, merged = contract_edge(g, g.edge_index[(1, 3)])
        assert merged == 1
        assert contracted.n == 4


class TestCanonicalForm:
    def test_prism_relabellings_equal(self, fix):
        prism = fix["prism"].graph
        perm = [3, 5, 1, 0, 4, 2]
        relab = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in prism.edges])
        assert canonical_form(prism) == canonical_form(relab)

    def test_prism_vs_c6(self, fix):
        # same degree sequence, different graphs
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert canonical_form(fix["prism"].graph) != canonical_form(c6)

    def test_c6_vs_two_triangles(self):
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        tt = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert canonical_form(c6) != canonical_form(tt)

    def test_size_limit(self):
        big = Graph.from_edges(13, [(0, i) for i in range(1, 13)])
        with pytest.raises(PreconditionError):
            canonical_form(big)

    def test_agrees_with_brute_force_on_laman6(self, laman_keys):
        graphs = [parse_graph6(k) for k in laman_keys[6]]
        for i, g in enumerate(graphs):
            for h in graphs[i:]:
                assert (canonical_form(g) == canonical_form(h)) == brute_isomorphic(g, h)

    def test_random_relabelling_invariance(self):
        rnd = random.Random(23)
        for _ in range(30):
            n = rnd.randrange(2, 9)
            g = random_connected_graph(rnd, n, rnd.randrange(n - 1, min(2 * n, n * (n - 1) // 2) + 1))
            perm = list(range(n))
            rnd.shuffle(perm)
            h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_form(g) == canonical_form(h)

    def test_parse_emit_identity_on_catalog(self, laman_keys):
        for n in range(3, 8):
            for key in laman_keys[n]:
                g = parse_graph6(key)
                assert emit_graph6(g) == key
                assert parse_graph(emit_edge_list(g)) == g


def _few_automorphisms(g: Graph, limit: int = 120) -> bool:
    """At most `limit` automorphisms, counted by networkx."""
    matcher = nx.algorithms.isomorphism.GraphMatcher(_to_nx(g), _to_nx(g))
    return sum(1 for _ in itertools.islice(matcher.isomorphisms_iter(), limit + 1)) <= limit


def _random_graphs(seed: int, count: int) -> list[Graph]:
    """Seeded graphs with n <= 9: sparse, dense, disconnected and any density.

    The slow oracle visits every leaf of its search tree, at least one per
    automorphism, so graphs with more than 120 automorphisms are drawn again;
    TestCanonicalSearch covers symmetric graphs on their own.
    """
    rnd = random.Random(seed)
    out: list[Graph] = []
    while len(out) < count:
        kind = len(out) % 4
        n = rnd.randrange(1, 10)
        pairs = list(combinations(range(n), 2))
        if kind == 0:  # sparse
            m = rnd.randrange(n - 1, n + 3)
        elif kind == 1:  # dense
            m = len(pairs) - rnd.randrange(n - 1, n + 3)
        elif kind == 2:  # no edge between vertices below and above a cut
            cut = rnd.randrange(1, n) if n > 1 else 1
            pairs = [(u, v) for u, v in pairs if (u < cut) == (v < cut)]
            m = rnd.randrange(0, len(pairs) + 1)
        else:
            m = rnd.randrange(0, len(pairs) + 1)
        g = Graph.from_edges(n, rnd.sample(pairs, max(0, min(m, len(pairs)))))
        if _few_automorphisms(g):
            out.append(g)
    return out


def _automorphisms(g: Graph) -> set[tuple[int, ...]]:
    edges = set(g.edges)
    return {
        p
        for p in itertools.permutations(range(g.n))
        if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in g.edges)
    }


def _group(gens: list[list[int]], n: int) -> set[tuple[int, ...]]:
    """Closure of the generators under composition."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        new = []
        for a in frontier:
            for gen in gens:
                c = tuple(gen[a[v]] for v in range(n))
                if c not in group:
                    group.add(c)
                    new.append(c)
        frontier = new
    return group


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


class TestCanonicalSearch:
    """The pruned search against the unpruned slow path in tests/oracles.py."""

    def test_generation_inputs_match_oracle(self, laman_keys):
        inputs = [triangle()]
        for n in range(3, 8):
            for key in laman_keys[n]:
                inputs += henneberg_extensions(parse_graph6(key))
        assert len(inputs) == 6099
        for g in inputs:
            assert canonical_form(g) == slow_canonical_form(g), g.edges

    def test_random_graphs_and_relabellings_match_oracle(self):
        rnd = random.Random(5)
        graphs = _random_graphs(41, 2000)
        assert sum(1 for g in graphs if not is_connected(g)) >= 500
        for g in graphs:
            want = slow_canonical_form(g)
            assert canonical_form(g) == want, (g.n, g.edges)
            assert canonical_form(relabelled(g, rnd)) == want, (g.n, g.edges)

    @pytest.mark.parametrize(
        "g",
        [
            Graph.from_edges(12, [(0, i) for i in range(1, 12)]),  # K_{1,11}
            Graph.from_edges(12, [(i, j) for i in range(6) for j in range(6, 12)]),  # K_{6,6}
            Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)]),  # C_12
            Graph.from_edges(12, [(3 * t + a, 3 * t + b) for t in range(4) for a, b in ((0, 1), (0, 2), (1, 2))]),
            _petersen(),
        ],
        ids=["K1_11", "K6_6", "C12", "4K3", "petersen"],
    )
    def test_symmetric_inputs_are_polynomial(self, g):
        # the unpruned search visits 11! leaves on K_{1,11}; finishing is the guard
        rnd = random.Random(g.n * 1000 + g.m)
        assert canonical_form(relabelled(g, rnd)) == canonical_form(g)
        gens = canonical_search(g.adjacency)[1]
        edges = set(g.edges)
        for gen in gens:
            assert {(min(gen[u], gen[v]), max(gen[u], gen[v])) for u, v in g.edges} == edges

    def test_degree_partition_root_matches_the_zero_root(self, laman_keys, laman8_keys):
        # the root's degree partition is what the first refinement pass makes
        # from all zeros, so certificate, generators and labelling all agree
        graphs = [parse_graph6(k) for n in laman_keys for k in laman_keys[n]]
        graphs += [parse_graph6(k) for k in laman8_keys]
        graphs += [
            Graph.from_edges(12, [(0, i) for i in range(1, 12)]),
            Graph.from_edges(12, [(i, j) for i in range(6) for j in range(6, 12)]),
            Graph.from_edges(12, [(3 * t + a, 3 * t + b) for t in range(4) for a, b in ((0, 1), (0, 2), (1, 2))]),
        ]
        # regular graphs, whose degree partition is one cell
        graphs += [Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 13)]
        graphs += [Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]), k4(), _petersen()]
        # isolated vertices
        graphs += [Graph(5, ()), Graph(1, ()), Graph(6, k4().edges), Graph(9, _petersen().edges[:7])]
        rnd = random.Random(2501)
        graphs += [random_graph(rnd, n, rnd.randrange(0, n * (n - 1) // 2 + 1)) for n in (rnd.randrange(1, 13) for _ in range(100))]
        assert sum(not all(g.adjacency) for g in graphs) >= 10
        for g in graphs:
            assert canonical_search(g.adjacency) == signature_canonical_search(g.adjacency, zero_root=True), g.edges

    def test_ordered_partition_matches_signature_ranking(self):
        # refining only the cells that can split gives the colours that
        # re-ranking every vertex gives, so the search tree is the same:
        # certificate, generators and labelling all agree
        graphs = [
            Graph.from_edges(12, [(0, i) for i in range(1, 12)]),
            Graph.from_edges(12, [(i, j) for i in range(6) for j in range(6, 12)]),
            Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)]),
            Graph.from_edges(12, [(3 * t + a, 3 * t + b) for t in range(4) for a, b in ((0, 1), (0, 2), (1, 2))]),
            _petersen(),
        ]
        rnd = random.Random(3301)
        for _ in range(300):
            n = rnd.randrange(1, 13)
            graphs.append(random_graph(rnd, n, rnd.randrange(0, n * (n - 1) // 2 + 1)))
        assert sum(not is_connected(g) for g in graphs) >= 50
        assert sum(not all(g.adjacency) for g in graphs) >= 30
        graphs += [relabelled(g, rnd) for g in graphs]
        for g in graphs:
            assert canonical_search(g.adjacency) == signature_canonical_search(g.adjacency), g.edges

    def test_generators_generate_the_automorphism_group(self, laman_keys):
        graphs = [parse_graph6(k) for k in laman_keys[6]] + _random_graphs(7, 40)
        graphs += [
            Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]),
            Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
            Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),
            Graph(5, ()),
        ]
        for g in graphs:
            if g.n > 7:
                continue
            cert, gens, labelling = canonical_search(g.adjacency)
            assert _group(gens, g.n) == _automorphisms(g), g.edges
            # the labelling turns g into the graph whose bit string is the certificate
            image = Graph.from_edges(g.n, [(labelling[u], labelling[v]) for u, v in g.edges])
            assert emit_graph6(image) == certificate_graph6(g.n, cert), g.edges


class TestInvariantsMisc:
    def test_graph_invariants_enforced(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph(2, ((1, 0),))

    def test_connectivity_helper(self):
        assert is_connected(triangle())
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
