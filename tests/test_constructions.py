from __future__ import annotations

import random
from itertools import permutations

import pytest

from rignac.colouring import EdgeColouring, count_nac, enumerate_nac, is_nac, ladder_edges
from rignac.graph import Graph, PreconditionError
from rignac.rigidity import is_2tree, recognize_gsc, rigidity_report
from rignac.constructions import (
    FIXTURE_SHA256,
    fixture_digest,
    fixtures,
    glue_along_edge,
    make_2tree,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_gk,
    make_gk_prime,
    make_gsc,
    make_path,
)

from oracles import are_isomorphic, random_gsc_script, random_prism_chain, remove_vertices, slow_make_gsc


class TestBasicFamilies:
    def test_standard_shapes(self):
        assert make_path(5).m == 4
        assert make_cycle(5).m == 5
        assert make_complete(5).m == 10
        k33 = make_complete_bipartite(3, 3)
        assert k33.m == 9 and rigidity_report(k33).is_rigid

    def test_c4_flexible(self):
        assert rigidity_report(make_cycle(4)).is_flexible

    def test_k4_rigid_not_minimal(self):
        rep = rigidity_report(make_complete(4))
        assert rep.is_rigid and not rep.is_minimally_rigid

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            make_cycle(2)
        with pytest.raises(PreconditionError):
            make_complete_bipartite(0, 3)


class TestTwoTreeGenerator:
    def test_smallest_cases(self):
        assert make_2tree(0, 2).m == 1
        assert are_isomorphic(make_2tree(0, 3), make_complete(3))

    def test_reproducible_across_calls(self):
        for seed in (0, 1, 99):
            assert make_2tree(seed, 9) == make_2tree(seed, 9)

    def test_seeds_vary(self):
        outs = {make_2tree(seed, 9).edges for seed in range(8)}
        assert len(outs) > 1

    def test_always_2tree_with_no_colouring(self):
        for seed in range(10):
            g = make_2tree(seed, 4 + seed % 5)
            assert is_2tree(g)
            assert g.m == 2 * g.n - 3
            assert count_nac(g) == 0


class TestGkFamily:
    def test_counts_and_rigidity(self):
        for k in range(1, 6):
            g, roles = make_gk(k)
            assert g.n == 2 * k + 2 and g.m == 4 * k + 1
            assert rigidity_report(g).is_minimally_rigid
            assert roles["x"] == 0 and roles[f"a{k}"] == 2 * k

    def test_k1_is_k4_minus_e(self):
        g, _ = make_gk(1)
        assert g.n == 4 and g.m == 5
        assert is_2tree(g)

    def test_prime_matches_ladder(self):
        for k in (1, 2, 3, 5):
            gp = make_gk_prime(k)
            assert gp.n == 2 * k
            assert list(gp.edges) == ladder_edges(k)

    def test_prime_is_vertex_deleted_family_member(self):
        for k in (2, 3, 4):
            g, roles = make_gk(k)
            sub, _ = remove_vertices(g, [roles["x"], roles["y"]])
            assert sub == make_gk_prime(k)


class TestGscScripts:
    def test_prism_script(self):
        g = make_gsc([["prism", "edge", [0, 1]]])
        assert are_isomorphic(g, fixtures()["prism"].graph)
        assert count_nac(g) == 1

    def test_two_triangles_is_2tree(self):
        g = make_gsc([["triangle", "edge", [0, 1]], ["triangle", "edge", [0, 1]]])
        assert g.n == 4 and g.m == 5
        assert is_2tree(g) and count_nac(g) == 0

    def test_prism_on_triangle_counts(self):
        g = make_gsc([["prism", "edge", [0, 1]], ["prism", "triangle", [0, 1, 2]]])
        assert count_nac(g) == 3

    def test_invalid_glue_site(self):
        with pytest.raises(PreconditionError, match="not present"):
            make_gsc([["triangle", "edge", [0, 2]]])
        with pytest.raises(PreconditionError, match="not present"):
            make_gsc([["prism", "triangle", [0, 1, 2]]])

    def test_edge_count_invariant(self):
        g = make_gsc(
            [
                ["prism", "edge", [0, 1], "matching"],
                ["triangle", "edge", [2, 3]],
                ["prism", "edge", [0, 1], "triangle"],
            ]
        )
        assert g.m == 2 * g.n - 3
        assert isinstance(recognize_gsc(g), type(recognize_gsc(make_gsc([["prism", "edge", [0, 1]]]))))

    def test_seeded_scripts_match_full_replay(self):
        # make_gsc checks each glue site on its running edge set; the oracle
        # replays the whole partial script before every step
        for seed in range(60):
            rnd = random.Random(seed)
            steps = random_gsc_script(rnd, rnd.randint(1, 12))
            try:
                want = slow_make_gsc(steps)
            except PreconditionError as exc:
                with pytest.raises(PreconditionError) as got:
                    make_gsc(steps)
                assert str(got.value) == str(exc), steps
                continue
            assert make_gsc(steps) == want, steps

    def test_long_script_is_linear(self):
        # 400 prisms; checking each glue site on a full replay takes seconds here
        import time

        start = time.perf_counter()
        g = random_prism_chain(random.Random(5), 400)
        assert time.perf_counter() - start < 0.5
        assert g.n == 1602 and g.m == 2 * g.n - 3


class TestGluing:
    def test_single_copy_is_isomorphic(self, fix):
        prism = fix["prism"].graph
        assert are_isomorphic(glue_along_edge(prism, 0, 1), prism)

    def test_vertex_count_formula(self, fix):
        prism = fix["prism"].graph
        for k in (1, 2, 4):
            assert glue_along_edge(prism, 0, k).n == k * 4 + 2

    def test_prism_pair_count(self, fix):
        assert enumerate_nac(glue_along_edge(fix["prism"].graph, 0, 2)) == 3

    def test_flagship_pair_structure_and_prediction(self, fix):
        # enumeration is out of desk scope here; the product formula predicts
        # the count and the construction is checked structurally
        h18 = fix["h18"].graph
        pair = glue_along_edge(h18, 0, 2)
        assert pair.n == 2 * 16 + 2 and pair.m == 2 * pair.n - 3
        assert rigidity_report(pair).is_minimally_rigid
        predicted = (fix["h18"].nnac + 1) ** 2 - 1
        assert predicted == 180608 ** 2 - 1


class TestFixtures:
    def test_checksums_frozen(self, fix):
        for name, fixture in fix.items():
            assert fixture_digest(fixture.graph) == FIXTURE_SHA256[name], name

    def test_shapes_and_rigidity(self, fix):
        prism = fix["prism"]
        assert prism.graph.n == 6 and prism.graph.m == 9
        k33 = fix["k33"]
        assert k33.graph.n == 6 and k33.graph.m == 9
        twelve = fix["twelve_max"]
        assert twelve.graph.n == 12 and twelve.graph.m == 21
        h18 = fix["h18"]
        assert h18.graph.n == 18 and h18.graph.m == 33
        for fixture in fix.values():
            assert rigidity_report(fixture.graph).is_minimally_rigid == fixture.minimally_rigid

    def test_reference_counts(self, fix):
        assert enumerate_nac(fix["prism"].graph) == fix["prism"].nnac == 1
        assert enumerate_nac(fix["k33"].graph) == fix["k33"].nnac == 15

    def test_reference_classes_are_valid_and_distinct(self, fix):
        k33 = fix["k33"].graph
        a, b = fix["k33"].nac_classes
        assert is_nac(k33, a) and is_nac(k33, b)
        assert not _colour_isomorphic(k33, a, b)

    def test_every_k33_class_matches_a_displayed_one(self, fix):
        k33 = fix["k33"].graph
        reps = fix["k33"].nac_classes
        found: list[EdgeColouring] = []
        enumerate_nac(k33, on_found=found.append)
        assert len(found) == 15
        for c in found:
            assert any(_colour_isomorphic(k33, c, rep) for rep in reps)

    def test_h18_peels_to_twelve_max(self, fix):
        g = fix["h18"].graph
        target = fix["twelve_max"].graph
        for _ in range(6):
            w = next(v for v in range(g.n) if g.degree(v) == 2)
            g, _ = remove_vertices(g, [w])
        assert are_isomorphic(g, target)


def _colour_isomorphic(g: Graph, c1: EdgeColouring, c2: EdgeColouring) -> bool:
    """Equal up to a graph automorphism and/or a colour swap (brute force)."""
    targets = {c2.mask, c2.mask ^ ((1 << c2.m) - 1)}
    edges = set(g.edges)
    for perm in permutations(range(g.n)):
        if any((min(perm[u], perm[v]), max(perm[u], perm[v])) not in edges for u, v in g.edges):
            continue
        mapped = 0
        for i, (u, v) in enumerate(g.edges):
            if c1.is_red(i):
                j = g.edge_index[(min(perm[u], perm[v]), max(perm[u], perm[v]))]
                mapped |= 1 << j
        if mapped in targets:
            return True
    return False
