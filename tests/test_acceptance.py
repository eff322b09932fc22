"""Acceptance suite: every exit criterion, exact integers, stated time budgets.

Each test prints one PASS line (visible with -s or in the captured section)
carrying the measured values and elapsed time.
"""

from __future__ import annotations

import math
import random
import time

from rignac.catalog import (
    check_conjecture_61,
    enumerate_minimally_rigid,
    histogram_report,
    nnac_histogram,
)
from rignac.colouring import (
    EdgeColouring,
    construct_nac_minimally_rigid,
    count_nac,
    enumerate_nac,
    enumerate_nac_detailed,
    is_nac,
    nnac_upper_bound,
)
from rignac.graph import Graph, blocks, canonical_form, is_stable_set
from rignac.rigidity import (
    GscDecomposition,
    recognize_gsc,
    rigidity_report,
    rigidly_related_pairs,
    zero_extend,
)
from rignac.stable_cut import algorithm1_stable_cut, exhaustive_stable_cut, is_biconnected
from rignac.constructions import (
    fixtures,
    glue_along_edge,
    make_2tree,
    make_complete_bipartite,
    make_cycle,
    make_gk,
    make_gsc,
    make_path,
)

from oracles import is_cut, random_connected_graph, random_flexible_connected


class _Timer:
    def __init__(self, budget_s: float):
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False

    def check(self, name: str, detail: str = "") -> None:
        assert self.elapsed < self.budget, f"{name}: {self.elapsed:.1f}s over {self.budget}s budget"
        print(f"PASS {name} ({self.elapsed:.2f}s < {self.budget:.0f}s) {detail}")


def test_criterion_01_k33_count(fix):
    with _Timer(1.0) as t:
        got = enumerate_nac(fix["k33"].graph)
    assert got == 15
    t.check("criterion-01 complete-bipartite-3-3 count", f"nnac={got}")


def test_criterion_02_prism_unique_class(fix):
    prism = fix["prism"].graph
    with _Timer(1.0) as t:
        found: list[EdgeColouring] = []
        got = enumerate_nac(prism, on_found=found.append)
    assert got == 1 and len(found) == 1
    reference = fix["prism"].nac_classes[0]
    full = (1 << prism.m) - 1
    assert found[0].mask in (reference.mask, reference.mask ^ full)
    # two monochromatic triangles plus an opposite-coloured perfect matching
    tri_edges = [i for i, (u, v) in enumerate(prism.edges) if (u < 3) == (v < 3)]
    mat_edges = [i for i in range(prism.m) if i not in tri_edges]
    tri_cols = {found[0].is_red(i) for i in tri_edges}
    mat_cols = {found[0].is_red(i) for i in mat_edges}
    assert len(tri_cols) == 1 and len(mat_cols) == 1 and tri_cols != mat_cols
    t.check("criterion-02 prism unique colouring class", "matches the reference class")


def test_criterion_03_tree_and_cycle_formulas():
    with _Timer(10.0) as t:
        for n in range(3, 13):
            assert enumerate_nac(make_path(n)) == 2 ** (n - 2) - 1, f"path {n}"
            assert enumerate_nac(make_cycle(n)) == 2 ** (n - 1) - (n + 1), f"cycle {n}"
    t.check("criterion-03 tree/cycle closed forms", "n=3..12")


def test_criterion_04_complete_bipartite_family():
    with _Timer(60.0) as t:
        checked = 0
        for n1 in range(1, 8):
            for n2 in range(n1, 9 - n1):
                got = enumerate_nac(make_complete_bipartite(n1, n2))
                assert got == 2 ** (n1 + n2 - 2) - 1, (n1, n2)
                checked += 1
    t.check("criterion-04 complete bipartite closed form", f"{checked} instances")


def test_criterion_05_ladder_family():
    with _Timer(60.0) as t:
        for k in range(2, 6):
            g, _ = make_gk(k)
            assert enumerate_nac(g) == 2 ** (2 * k - 2) - 1, k
    t.check("criterion-05 crossed-ladder family", "k=2..5")


def test_criterion_06_edge_gluing(fix):
    with _Timer(60.0) as t:
        prism = fix["prism"].graph
        for k in (2, 3):
            assert enumerate_nac(glue_along_edge(prism, 0, k)) == 2 ** k - 1, k
        pair = glue_along_edge(fix["k33"].graph, 0, 2)
        assert enumerate_nac(pair) == 16 ** 2 - 1 == 255
    t.check("criterion-06 edge gluing products", "prisms k=2,3; bipartite pair=255")


def test_criterion_07_block_product_random():
    with _Timer(120.0) as t:
        rnd = random.Random(1807)
        done = 0
        while done < 50:
            n = rnd.randrange(5, 10)
            m = rnd.randrange(n - 1, min(2 * n - 2, n * (n - 1) // 2))
            g = random_connected_graph(rnd, n, m)
            if len(blocks(g)) < 2:
                continue
            assert count_nac(g) == enumerate_nac(g)
            done += 1
    t.check("criterion-07 block-product counting", "50 seeded graphs with cut vertices")


def test_criterion_08_flagship_18_vertex(fix):
    h18 = fix["h18"].graph
    with _Timer(600.0) as t:
        single, nodes, _ = enumerate_nac_detailed(h18)
    assert single == 180607
    t.check("criterion-08a flagship single-threaded", f"nnac={single} nodes={nodes}")
    with _Timer(120.0) as t:
        eight = enumerate_nac(h18, workers=8)
    assert eight == single
    t.check("criterion-08b flagship 8 workers", "count identical")
    for w in (2, 3, 5):
        assert enumerate_nac(h18, workers=w) == single, w
    print("PASS criterion-08c worker-count invariance (w=2,3,5,8)")


def test_criterion_09_catalogs(catalog6, catalog7):
    with _Timer(300.0) as t:
        report6 = histogram_report(6)
        assert report6["classes"] == 13
        assert report6["histogram"] == {"0": 5, "1": 5, "3": 2, "15": 1}
        # the published reference counts {0:5, 1:5, 2:3, 15:1} sum to 14; regeneration
        # disagrees and the difference is flagged rather than silently accepted
        assert report6["reference_deviations"] == [
            {"nnac": 2, "published": 3, "regenerated": 0},
            {"nnac": 3, "published": 0, "regenerated": 2},
        ]
        hist7, m7 = nnac_histogram(catalog7)
        assert len(catalog7) == 70
        assert hist7 == {0: 12, 1: 25, 2: 4, 3: 18, 4: 1, 6: 2, 7: 5, 12: 1, 15: 1, 31: 1}
        assert m7 == 31
        tops = [e for e in catalog7 if e.nnac == 31]
        assert len(tops) == 1
        k33 = make_complete_bipartite(3, 3)
        ext, is_open = zero_extend(k33, 0, 1)
        assert is_open
        assert canonical_form(ext).decode("ascii") == tops[0].graph6
    t.check(
        "criterion-09 catalogs",
        "n=6 regenerated(13 classes, reference deviation flagged); n=7 exact, unique maximizer",
    )


def test_criterion_10_structural_property_suites(catalog6, catalog7):
    with _Timer(600.0) as t:
        entries = catalog6 + catalog7
        # minimally rigid: colourable iff not a 2-tree, with constructive witness
        for e in entries:
            assert (e.nnac == 0) == e.is_2tree
            witness = construct_nac_minimally_rigid(e.graph)
            if e.is_2tree:
                assert not isinstance(witness, EdgeColouring)
            else:
                assert is_nac(e.graph, witness)
        # tight graphs: no stable cut iff gluing-family member
        for e in entries:
            assert e.is_gsc == (exhaustive_stable_cut(e.graph) is None)
        # flexible graphs have a stable cut and a colouring
        flexibles = random_flexible_connected(43, 60, 4, 9)
        for g in flexibles:
            assert exhaustive_stable_cut(g) is not None
            assert enumerate_nac(g, first_only=True) == 1
        # sparse 2-connected regime: a cut avoiding every vertex
        rnd = random.Random(44)
        done = 0
        while done < 20:
            n = rnd.randrange(4, 9)
            if 2 * n - 4 < n:
                continue
            g = random_connected_graph(rnd, n, rnd.randrange(n, 2 * n - 4 + 1))
            if not is_biconnected(g) or g.m > 2 * g.n - 4:
                continue
            for v in range(g.n):
                assert exhaustive_stable_cut(g, avoid=v) is not None
            done += 1
        # lower bounds for 2-connected flexible graphs
        done = 0
        rnd = random.Random(45)
        while done < 20:
            n = rnd.randrange(4, 9)
            g = random_connected_graph(rnd, n, rnd.randrange(n, 2 * n - 3))
            rep = rigidity_report(g)
            if not is_biconnected(g) or not rep.is_flexible:
                continue
            nn = enumerate_nac(g)
            assert nn >= 3
            assert nn >= math.ceil(math.log2(len(rep.rigid_components)))
            done += 1
        # unique-colouring characterisation, both directions, n <= 7
        corpus: list[Graph] = [make_2tree(s, 4 + s % 3) for s in range(5)]
        for a in range(4):
            left = make_2tree(a, 4)
            right = make_2tree(a + 7, 3 + a % 3)
            offset = left.n - 1
            edges = list(left.edges) + [
                (u + offset if u else 0, v + offset if v else 0) for u, v in right.edges
            ]
            corpus.append(Graph.from_edges(left.n + right.n - 1, edges))
        corpus += random_flexible_connected(46, 40, 4, 7)
        corpus += [make_cycle(k) for k in (4, 5, 6, 7)]
        for g in corpus:
            if not rigidity_report(g).is_flexible:
                continue
            nn = count_nac(g)
            bl = blocks(g)
            block_graphs = []
            for b in bl:
                verts = {v for i in b for v in g.edges[i]}
                from rignac.graph import induced_subgraph

                sub, _ = induced_subgraph(g, verts)
                block_graphs.append(sub)
            expected = len(bl) == 2 and all(enumerate_nac(s) == 0 for s in block_graphs)
            assert (nn == 1) == expected, g
        # the colouring-count upper bound over every corpus graph
        for e in entries:
            assert e.nnac <= nnac_upper_bound(e.graph.n)
        for g in flexibles:
            assert count_nac(g) <= nnac_upper_bound(g.n)
        # power law on scripted gluing-family members
        rnd = random.Random(47)
        for trial in range(20):
            steps: list[list] = [["prism", "edge", [0, 1]]] if trial % 2 else [["triangle", "edge", [0, 1]]]
            g = make_gsc(steps)
            for _ in range(rnd.randrange(1, 4)):
                edge = list(g.edges[rnd.randrange(g.m)])
                if rnd.random() < 0.5:
                    steps.append(["prism", "edge", edge, rnd.choice(["triangle", "matching"])])
                else:
                    steps.append(["triangle", "edge", edge])
                g = make_gsc(steps)
            dec = recognize_gsc(g)
            assert isinstance(dec, GscDecomposition)
            assert count_nac(g) == 2 ** dec.prism_count - 1
    t.check("criterion-10 structural property suites", "zero violations")


def test_criterion_11_conjecture_harness(catalog6, catalog7):
    with _Timer(600.0) as t:
        v6 = check_conjecture_61(catalog6)
        v7 = check_conjecture_61(catalog7)
        catalog8 = enumerate_minimally_rigid(8)
        v8 = check_conjecture_61(catalog8)
        assert v6 == v7 == v8 == []
        # alternative reading of the one-prism clause, reported separately
        a6 = check_conjecture_61(catalog6, prism_subgraph_reading=True)
        a7 = check_conjecture_61(catalog7, prism_subgraph_reading=True)
        a8 = check_conjecture_61(catalog8, prism_subgraph_reading=True)
    t.check(
        "criterion-11 unique-colouring conjecture",
        f"n=6,7,8 construction reading: 0,0,0 violations; "
        f"subgraph reading: {len(a6)},{len(a7)},{len(a8)}",
    )
    assert a6 == [] and a7 == [] and a8 == []


def test_criterion_12_contraction_algorithm_validity():
    with _Timer(60.0) as t:
        graphs = random_flexible_connected(2024, 200, 4, 12)
        for g in graphs:
            related = rigidly_related_pairs(g)
            pair = next(
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if (u, v) not in related
            )
            result = algorithm1_stable_cut(g, *pair)
            s = result.cut
            assert is_stable_set(g, s) and is_cut(g, s)
            sub_vertices = [v for v in range(g.n) if v not in s]
            # independent separation check by BFS on g - s
            comp = {pair[0]}
            stack = [pair[0]]
            while stack:
                x = stack.pop()
                for y in g.adjacency[x]:
                    if y not in s and y not in comp:
                        comp.add(y)
                        stack.append(y)
            assert pair[1] not in comp
            for rc in rigidity_report(g).rigid_components:
                assert len(s & rc) <= 1
    t.check("criterion-12 contraction algorithm", "200 seeded flexible graphs validated")
