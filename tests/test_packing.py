from hypothesis import given, settings
from hypothesis import strategies as st

from trikernel.graph import Graph, enumerate_triangles, triangle_edges
from trikernel.packing import (
    TrianglePacking,
    classify_triangles,
    greedy_maximal_packing,
    labeled_edges,
    remaximalize,
    triangle_components,
)

from conftest import complete_graph, disjoint_triangles, graphs, spanned_triangle


class TestGreedyPacking:
    def test_k3(self):
        s = greedy_maximal_packing(complete_graph(3))
        assert s.triangles == [(0, 1, 2)]

    def test_k4_packs_exactly_one(self):
        # any two K4 triangles share an edge, so one of six edges blocks the rest
        s = greedy_maximal_packing(complete_graph(4))
        assert len(s) == 1

    def test_two_disjoint_triangles(self):
        s = greedy_maximal_packing(disjoint_triangles(2))
        assert s.triangles == [(0, 1, 2), (3, 4, 5)]

    @given(graphs(max_n=8))
    @settings(max_examples=80)
    def test_result_is_maximal_and_valid(self, g):
        s = greedy_maximal_packing(g)
        s.validate(g)
        assert s.is_maximal(g)
        packed = s.edge_set()
        for t in enumerate_triangles(g):
            assert any(e in packed for e in triangle_edges(t))

    def test_deterministic(self):
        g = complete_graph(6)
        assert (greedy_maximal_packing(g).triangles
                == greedy_maximal_packing(g).triangles)

    def test_maximality_up_to_thirty_vertices(self):
        import random
        from itertools import combinations
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(15, 30)
            g = Graph()
            for v in range(n):
                g.add_vertex(v)
            for u, v in combinations(range(n), 2):
                if rng.random() < rng.choice((0.15, 0.4, 0.7)):
                    g.add_edge(u, v)
            s = greedy_maximal_packing(g)
            s.validate(g)
            packed = s.edge_set()
            for t in enumerate_triangles(g):
                assert any(e in packed for e in triangle_edges(t))


class TestRemaximalize:
    def test_fixpoint_on_maximal_input(self):
        g = disjoint_triangles(2)
        s = greedy_maximal_packing(g)
        before = list(s.triangles)
        assert remaximalize(g, s, g.edges()).triangles == before

    def test_fills_empty_packing(self):
        g = complete_graph(3)
        s = remaximalize(g, TrianglePacking(), g.edges())
        assert s.triangles == [(0, 1, 2)]

    def test_grows_half_packing(self):
        g = disjoint_triangles(2)
        s = TrianglePacking()
        s.add((0, 1, 2))
        assert remaximalize(g, s, g.edges()).triangles == [(0, 1, 2), (3, 4, 5)]

    def test_never_removes_existing(self):
        g = complete_graph(4)
        s = TrianglePacking()
        s.add((0, 2, 3))  # not the greedy-first triangle
        assert (0, 2, 3) in remaximalize(g, s, g.edges())


def enumerated_greedy(g: Graph, s: TrianglePacking) -> TrianglePacking:
    """Reference greedy pass: every triangle of ``g`` in lexicographic order."""
    for t in enumerate_triangles(g):
        if all(e not in s.edge_index for e in triangle_edges(t)):
            s.add(t)
    return s


class TestIncrementalUpkeep:
    @given(graphs(max_n=10))
    @settings(max_examples=100)
    def test_fused_greedy_equals_enumerated_greedy(self, g):
        assert (greedy_maximal_packing(g).triangles
                == enumerated_greedy(g, TrianglePacking()).triangles)

    @given(graphs(max_n=10, min_n=3), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_delta_remaximalize_equals_full_pass(self, g, rng):
        # a swap on a maximal packing: drop some triangles, then add some
        # that fit; only the dropped triangles' edges are freed
        s = greedy_maximal_packing(g)
        dropped = rng.sample(s.triangles, rng.randint(0, min(2, len(s))))
        for t in dropped:
            s.remove(t)
        fitting = [t for t in enumerate_triangles(g)
                   if all(e not in s.edge_index for e in triangle_edges(t))]
        rng.shuffle(fitting)
        for t in fitting[:rng.randint(0, 3)]:
            if all(e not in s.edge_index for e in triangle_edges(t)):
                s.add(t)
        freed = [e for t in dropped for e in triangle_edges(t)]
        delta = remaximalize(g, s.copy(), freed)
        assert delta.triangles == enumerated_greedy(g, s.copy()).triangles
        assert delta.is_maximal(g)


class TestLabeledEdges:
    def test_pendant_spanner_labels_one_edge(self):
        g = spanned_triangle(1)  # triangle (0,1,2) + vertex 3 over edge (0,1)
        s = greedy_maximal_packing(g)
        assert s.triangles == [(0, 1, 2)]
        assert labeled_edges(g, s) == {(0, 1)}

    def test_no_free_vertices_no_labels(self):
        g = disjoint_triangles(2)
        assert labeled_edges(g, greedy_maximal_packing(g)) == set()

    def test_k4_leftover_vertex_labels_all_edges(self):
        # S = {(0,1,2)}; vertex 3 is free and spans every packed edge.
        g = complete_graph(4)
        s = greedy_maximal_packing(g)
        expected = {e for e in s.edge_index
                    if set(e).issubset(g.neighbors(3))}
        assert expected == {(0, 1), (0, 2), (1, 2)}
        assert labeled_edges(g, s) == expected


class TestClassification:
    def test_all_bad_without_labels(self):
        g = disjoint_triangles(2)
        s = greedy_maximal_packing(g)
        cls = classify_triangles(g, s, labeled_edges(g, s))
        assert cls.k3 == 2 and cls.k1 == cls.k2 == 0
        assert not cls.multi_label_violations

    def test_excellent_triangle(self):
        g = spanned_triangle(1)
        s = greedy_maximal_packing(g)
        cls = classify_triangles(g, s, labeled_edges(g, s))
        assert cls.excellent == [(0, 1, 2)]
        assert cls.v1 == {2} and cls.v2 == set()

    def test_pretty_good_when_unlabeled_edge_stays_in_triangle(self):
        # spanned triangle plus a packed triangle whose vertex 4 also covers
        # the unlabeled edge (0,2), keeping it inside a label-free triangle
        g = spanned_triangle(1)
        for u, v in [(4, 5), (4, 6), (5, 6), (0, 4), (2, 4)]:
            g.add_edge(u, v)
        s = greedy_maximal_packing(g)
        assert s.triangles == [(0, 1, 2), (4, 5, 6)]
        labels = labeled_edges(g, s)
        assert labels == {(0, 1)}
        cls = classify_triangles(g, s, labels)
        # (0,2) lies in triangle (0,2,4) of the label-free graph
        assert (0, 1, 2) in cls.pretty_good
        assert (4, 5, 6) in cls.bad
        assert cls.v2 == {2}

    def test_multi_label_is_flagged_not_raised(self):
        g = complete_graph(4)
        s = greedy_maximal_packing(g)
        cls = classify_triangles(g, s, labeled_edges(g, s))
        assert cls.multi_label_violations == [(0, 1, 2)]

    @given(graphs(max_n=8))
    @settings(max_examples=60)
    def test_partition_and_aux_sets(self, g):
        s = greedy_maximal_packing(g)
        labels = labeled_edges(g, s)
        cls = classify_triangles(g, s, labels)
        assert sorted(cls.excellent + cls.pretty_good + cls.bad) == s.sorted_triangles()
        assert cls.k1 + cls.k2 + cls.k3 == len(s)
        assert not cls.v1 & cls.v2
        label_endpoints = {v for e in labels for v in e}
        assert not (cls.v1 | cls.v2) & label_endpoints


class TestComponents:
    def test_disjoint_triangles_make_two(self):
        idx = triangle_components(greedy_maximal_packing(disjoint_triangles(2)))
        assert len(idx) == 2
        assert idx.of(0) != idx.of(3)

    def test_shared_vertex_joins(self):
        s = TrianglePacking()
        s.add((0, 1, 2))
        s.add((2, 3, 4))
        idx = triangle_components(s)
        assert len(idx) == 1
        assert idx.component_vertices(0) == [0, 1, 2, 3, 4]

    def test_empty_packing(self):
        assert len(triangle_components(TrianglePacking())) == 0
