from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trikernel.graph import (
    Graph,
    GraphError,
    ParseError,
    dump_edgelist,
    enumerate_triangles,
    load_graph,
    spanned_edges,
    triangle_key,
)

from conftest import complete_graph, graphs, petersen_graph


def brute_force_triangles(g: Graph):
    return [t for t in combinations(g.vertices(), 3)
            if g.has_edge(t[0], t[1]) and g.has_edge(t[0], t[2])
            and g.has_edge(t[1], t[2])]


class TestLoadGraph:
    def test_edgelist_k3(self):
        g = load_graph("1 2\n2 3\n1 3")
        assert g.vertex_set() == {1, 2, 3}
        assert g.edges() == [(1, 2), (1, 3), (2, 3)]

    def test_dimacs_k3(self):
        g = load_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3", fmt="dimacs")
        assert g.vertex_set() == {1, 2, 3}
        assert g.edges() == [(1, 2), (1, 3), (2, 3)]

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            load_graph("1 1")
        with pytest.raises(ParseError):
            load_graph("p edge 2 1\ne 1 1", fmt="dimacs")

    def test_duplicate_edges_collapse(self):
        g = load_graph("1 2\n2 1\n1 2")
        assert g.m == 1

    def test_comments_and_blank_lines(self):
        g = load_graph("# header\n1 2  # inline\n\n2 3\n")
        assert g.m == 2
        # only a line that starts with '# isolated:' adds vertices
        g = load_graph("# isolated 7\n#isolated: 8\n0 1  # isolated: 9\n")
        assert g.vertices() == [0, 1]

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as err:
            load_graph("1 2\nbogus line here")
        assert err.value.line == 2
        with pytest.raises(ParseError) as err:
            load_graph("1 2\n3 x")
        assert err.value.line == 2

    def test_dimacs_declares_isolated_vertices(self):
        g = load_graph("p edge 5 1\ne 1 2", fmt="dimacs")
        assert g.n == 5 and g.m == 1

    def test_dimacs_range_check(self):
        with pytest.raises(ParseError):
            load_graph("p edge 2 1\ne 1 7", fmt="dimacs")

    def test_dimacs_needs_header(self):
        with pytest.raises(ParseError):
            load_graph("e 1 2", fmt="dimacs")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            load_graph("1 2", fmt="gml")

    def test_roundtrip_through_edgelist(self):
        g = complete_graph(4)
        g.add_vertex(99)
        again = load_graph(dump_edgelist(g))
        assert again.edges() == g.edges()
        assert again.vertices() == g.vertices()

    @given(graphs(max_n=8), st.sets(st.integers(0, 40), max_size=4))
    def test_roundtrip_keeps_isolated_vertices(self, g, extra):
        for v in extra:
            g.add_vertex(v)
        again = load_graph(dump_edgelist(g))
        assert again.vertices() == g.vertices()
        assert again.edges() == g.edges()


class TestTriangles:
    def test_k3(self):
        assert enumerate_triangles(complete_graph(3)) == [(0, 1, 2)]

    def test_k4_has_four(self):
        assert enumerate_triangles(complete_graph(4)) == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_petersen_is_triangle_free(self):
        assert enumerate_triangles(petersen_graph()) == []

    @given(graphs(max_n=8))
    def test_matches_brute_force(self, g):
        assert enumerate_triangles(g) == brute_force_triangles(g)

    def test_matches_brute_force_on_larger_samples(self):
        import random
        rng = random.Random(0)
        for _ in range(25):
            n = rng.randint(10, 30)
            g = Graph()
            for v in range(n):
                g.add_vertex(v)
            for u, v in combinations(range(n), 2):
                if rng.random() < rng.choice((0.1, 0.3, 0.6)):
                    g.add_edge(u, v)
            assert enumerate_triangles(g) == brute_force_triangles(g)


class TestSpans:
    def test_k3_apex(self):
        assert (1, 2) in spanned_edges(complete_graph(3), 0)

    def test_path_does_not_span(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        g.remove_edge(0, 2)
        g.add_edge(2, 3)  # path 0-1-2-3 plus nothing else
        assert (1, 2) not in spanned_edges(g, 0)

    def test_k4(self):
        assert (0, 1) in spanned_edges(complete_graph(4), 3)

    @given(graphs(max_n=7))
    @settings(max_examples=60)
    def test_spans_iff_triangle_enumerated(self, g):
        tris = set(enumerate_triangles(g))
        for e in g.edges():
            for v in g.vertices():
                if v in e:
                    continue
                assert (e in spanned_edges(g, v)) == (triangle_key(v, *e) in tris)

    def test_spanned_edges(self):
        g = complete_graph(4)
        assert spanned_edges(g, 3) == [(0, 1), (0, 2), (1, 2)]


def split_copy(g: Graph, v: int, part1, part2) -> tuple[Graph, int, int]:
    out = g.copy()
    v1, v2 = out.split(v, part1, part2)
    return out, v1, v2


class TestSplitVertex:
    def test_bowtie_becomes_two_triangles(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        out, v1, v2 = split_copy(g, 0, [(0, 1), (0, 2)], [(0, 3), (0, 4)])
        assert out.n == 6 and out.m == g.m
        assert sorted(enumerate_triangles(out)) == sorted(
            [triangle_key(v1, 1, 2), triangle_key(v2, 3, 4)])
        assert not out.has_vertex(0)
        assert {v1, v2} == {5, 6}  # fresh ids, never reused

    def test_k3_split_breaks_triangle_but_keeps_edges(self):
        g = complete_graph(3)  # vertices 0,1,2; split 0
        out, v1, v2 = split_copy(g, 0, [(0, 1)], [(0, 2)])
        assert out.m == 3 and out.n == 4
        assert enumerate_triangles(out) == []
        assert out.has_edge(v1, 1) and out.has_edge(v2, 2) and out.has_edge(1, 2)

    def test_empty_part_is_contract_violation(self):
        with pytest.raises(GraphError):
            split_copy(complete_graph(3), 0, [], [(0, 1), (0, 2)])

    def test_non_partition_is_contract_violation(self):
        g = complete_graph(3)
        with pytest.raises(GraphError):
            split_copy(g, 0, [(0, 1)], [(0, 1), (0, 2)])
        with pytest.raises(GraphError):
            split_copy(g, 0, [(0, 1)], [])

    def test_triangle_bijection_under_rule_condition(self):
        # Parts that no triangle straddles: triangle count is preserved.
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4),
                              (1, 2), (3, 5)])
        before = len(enumerate_triangles(g))
        out, _, _ = split_copy(g, 0, [(0, 1), (0, 2)], [(0, 3), (0, 4)])
        assert len(enumerate_triangles(out)) == before
        assert out.m == g.m and out.n == g.n + 1


class TestGraphBasics:
    def test_ids_never_reused(self):
        g = complete_graph(3)
        g.remove_vertex(2)
        assert g.add_vertex() == 3

    def test_remove_vertex_returns_edges(self):
        g = complete_graph(3)
        assert g.remove_vertex(1) == [(0, 1), (1, 2)]
        assert g.m == 1

    def test_add_edge_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph().add_edge(1, 1)

    def test_copy_is_independent(self):
        g = complete_graph(3)
        h = g.copy()
        h.remove_edge(0, 1)
        assert g.has_edge(0, 1) and not h.has_edge(0, 1)

    @given(graphs(max_n=8))
    def test_adjacency_is_symmetric(self, g):
        for u in g.vertices():
            for v in g.neighbors(u):
                assert u in g.neighbors(v)
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.m
