import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trikernel.graph as graph_mod
from trikernel.graph import (
    MASK_BITS_PER_ENTRY,
    MAX_DIMACS_VERTICES,
    Graph,
    GraphError,
    Masks,
    ParseError,
    covers,
    dump_edgelist,
    enumerate_triangles,
    in_triangle_avoiding,
    load_graph,
    packs,
    spanned_edges,
    triangle_edges,
    triangle_key,
)

from conftest import complete_graph, graphs, petersen_graph, reshaped


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

    def test_dimacs_refuses_a_huge_header_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="1000000000 vertices") as err:
                load_graph("c\np edge 1000000000 0\n", fmt="dimacs")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.line == 2
        assert peak < 100_000
        g = load_graph(f"p edge {MAX_DIMACS_VERTICES} 0", fmt="dimacs")
        assert g.n == MAX_DIMACS_VERTICES

    def test_dimacs_header_edge_count_must_be_a_count(self):
        for count in ("banana", "-7"):
            with pytest.raises(ParseError) as err:
                load_graph(f"c\np edge 3 {count}\ne 1 2", fmt="dimacs")
            assert err.value.line == 2

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


class TestPacksAndCovers:
    @given(graphs(max_n=7), st.data())
    @settings(max_examples=150)
    def test_match_brute_force(self, g, data):
        triangles = enumerate_triangles(g)
        # every vertex triple, plus the real triangles a second time
        pool = triangles + list(combinations(g.vertices(), 3))
        chosen = data.draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else []
        disjoint = all(not set(triangle_edges(a)) & set(triangle_edges(b))
                       for a, b in combinations(chosen, 2))
        assert packs(g, chosen) == (set(chosen) <= set(triangles) and disjoint)

        edges = g.edges()
        hit = set(data.draw(st.lists(st.sampled_from(edges), unique=True))
                  if edges else [])
        assert covers(g, hit) == all(set(triangle_edges(t)) & hit for t in triangles)
        for e in edges:
            assert in_triangle_avoiding(g, e, hit) == any(
                e in triangle_edges(t) and len(set(triangle_edges(t)) & hit - {e}) == 0
                for t in triangles)

    @given(graphs(max_n=7), st.data())
    @settings(max_examples=300)
    def test_same_verdicts_as_the_probing_bodies(self, g, data):
        # ids up to two past the graph's name absent vertices; triples and
        # pairs come in any order, repeats and degenerate ones included, and
        # some of the graph's own edges are drawn reversed
        ids = st.integers(0, max(g.adj, default=0) + 2)
        triangles = enumerate_triangles(g)
        triple = st.tuples(ids, ids, ids)
        if triangles:
            triple = st.sampled_from(triangles) | triple
        chosen = data.draw(st.lists(triple, max_size=5))
        assert packs(g, chosen) == reference_packs(g, chosen)

        chosen = data.draw(st.lists(st.sampled_from(g.edges()), unique=True)
                           if g.m else st.just([]))
        flips = data.draw(st.lists(st.booleans(), min_size=len(chosen),
                                   max_size=len(chosen)))
        edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]
        edges += data.draw(st.lists(st.tuples(ids, ids), max_size=4))
        for container in (set(edges), dict.fromkeys(edges)):
            assert covers(g, container) == reference_covers(g, container)

    @given(reshaped(graphs(max_n=8)), st.data())
    @settings(max_examples=300)
    def test_covers_is_every_triangle_meeting_a_canonical_edge(self, g, data):
        """Against every vertex triple: the graph's edges drawn as given or
        reversed (a reversed pair counts for nothing), pairs of absent
        vertices or non-adjacent ones, and repeats."""
        vertices = g.vertices()
        ids = st.sampled_from(vertices + [max(vertices, default=0) + 1])
        pair = st.tuples(ids, ids)
        if g.m:
            pair = st.sampled_from(g.edges()) | st.sampled_from(
                [(v, u) for u, v in g.edges()]) | pair
        edges = set(data.draw(st.lists(pair, max_size=g.m + 3)))
        assert covers(g, edges) == all(
            not edges.isdisjoint(triangle_edges(t)) for t in brute_force_triangles(g))


def reference_packs(g: Graph, triangles) -> bool:
    """The reference ``graph.packs`` must agree with: ``has_edge`` per edge."""
    used = set()
    for t in triangles:
        for e in triangle_edges(t):
            if e in used or not g.has_edge(*e):
                return False
            used.add(e)
    return True


def reference_covers(g: Graph, edges) -> bool:
    """The reference ``graph.covers`` must agree with:
    ``in_triangle_avoiding`` for every edge outside ``edges``."""
    return not any(e not in edges and in_triangle_avoiding(g, e, edges)
                   for e in g.edges())


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

    # K4 on 0-3 plus the edge (4, 5); vertex 2 has the neighbours 0, 1, 3
    @pytest.mark.parametrize("part1, part2", [
        ([(2, 0), (0, 1)], [(1, 2), (2, 3)]),          # an edge without 2
        ([(0, 2), (2, 4)], [(1, 2), (2, 3)]),          # a non-neighbour
        ([(0, 2), (2, 2)], [(1, 2), (2, 3)]),          # a self-loop
        ([(0, 2), (1, 2)], [(2, 1), (2, 3)]),          # an edge in both parts
        ([(0, 2)], [(2, 3)]),                          # an edge in neither
        ([], [(0, 2), (1, 2), (2, 3)]),                # an empty part
        ([(0, 2), (1, 2), (2, 3)], []),
    ], ids=["without-v", "non-neighbour", "self-loop", "both", "neither",
            "empty-first", "empty-second"])
    @pytest.mark.parametrize("view", ["masks", "none"])
    def test_refused_parts_change_nothing(self, part1, part2, view):
        g = complete_graph(4)
        g.add_edge(4, 5)
        if view == "masks":
            g.masks()
        masks = g._masks
        before = (dict(g.adj), [set(nbrs) for nbrs in g.adj.values()], g.m,
                  g.version, g.next_id)
        shape = None if masks is None else (
            list(masks.ids), dict(masks.pos), dict(masks.of))
        with pytest.raises(GraphError):
            g.split(2, part1, part2)
        assert (dict(g.adj), [set(nbrs) for nbrs in g.adj.values()], g.m,
                g.version, g.next_id) == before
        assert g._masks is masks
        if masks is not None:
            assert (masks.ids, masks.pos, masks.of) == shape

    def test_parts_may_write_an_edge_either_way_round(self):
        g = complete_graph(4)
        g.masks()
        v1, v2 = g.split(2, [(2, 0), (1, 2)], [(3, 2)])
        assert g.adj[v1] == {0, 1} and g.adj[v2] == {3} and g.m == 6
        assert_masks_follow_adj(g)

    def test_absent_vertex_is_contract_violation(self):
        g = complete_graph(3)
        with pytest.raises(GraphError, match="no vertex 9"):
            g.split(9, [(9, 1)], [(9, 2)])
        assert g.edges() == [(0, 1), (0, 2), (1, 2)] and g.next_id == 3

    def test_split_moves_each_neighbour_and_keeps_m(self):
        g = complete_graph(5)
        g.add_edge(0, 7)
        before = g.version
        v1, v2 = g.split(0, [(0, 1), (0, 2), (0, 3), (0, 4)], [(0, 7)])
        assert (v1, v2) == (8, 9) and g.m == 11 and g.version > before
        assert g.adj[v1] == {1, 2, 3, 4} and g.adj[v2] == {7}
        for u in (1, 2, 3, 4, 7):
            assert 0 not in g.adj[u]
        assert sum(len(nbrs) for nbrs in g.adj.values()) == 2 * g.m

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

    def test_remove_vertex_drops_its_edges(self):
        g = complete_graph(4)
        assert g.remove_vertex(1) is None
        assert g.m == 3 and g.edges() == [(0, 2), (0, 3), (2, 3)]
        assert all(1 not in nbrs for nbrs in g.adj.values())
        with pytest.raises(GraphError, match="no vertex 1"):
            g.remove_vertex(1)

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
            for v in g.adj[u]:
                assert u in g.adj[v]
        assert sum(len(g.adj[v]) for v in g.vertices()) == 2 * g.m


def assert_masks_follow_adj(g: Graph) -> None:
    """``g``'s neighbour view, if built, says what a build from ``adj``
    says: positions ascend with the ids, each vertex's mask (where there are
    masks) holds exactly its neighbours, and no mask is wider than the
    positions."""
    masks = g._masks
    if masks is None:
        return
    ids = masks.ids
    assert all(a < b for a, b in zip(ids, ids[1:]))
    assert masks.pos.keys() == g.adj.keys()
    assert all(ids[masks.pos[v]] == v for v in g.adj)
    if masks.of is None:
        return
    assert masks.of.keys() == g.adj.keys()
    fresh = Masks(g.adj, g.m)
    for v, nbrs in g.adj.items():
        assert masks.members(masks.of[v]) == sorted(nbrs)
        if fresh.of is not None:
            assert fresh.members(fresh.of[v]) == sorted(nbrs)
        assert masks.of[v].bit_length() <= len(ids)


BIG = 10**12


class TestMasks:
    """The neighbour view is derived: once built, every mutator keeps it
    equal to a build from ``adj``, with or without masks; a copy starts
    without it."""

    @pytest.mark.parametrize("per_entry", [10**9, 16, 0],
                             ids=["masks", "outgrown", "sets"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutators_keep_masks_equal_to_a_fresh_build(self, per_entry, data):
        """With masks always (``per_entry`` large), never (0), or until the
        positions outgrow a tight limit (16)."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_mod, "MASK_BITS_PER_ENTRY", per_entry)
            self._mutate(data)

    def _mutate(self, data) -> None:
        g = Graph()
        made = [g]  # a copy's changes must not reach the graph it came from
        ids = st.integers(min_value=BIG, max_value=BIG + 40)
        for _ in range(data.draw(st.integers(min_value=0, max_value=40))):
            verts = sorted(g.adj)
            edges = g.edges()
            op = data.draw(st.sampled_from(
                ("masks", "add_vertex", "mint", "add_edge", "remove_edge",
                 "remove_vertex", "split", "copy")))
            if op == "masks":
                masks = g.masks()
                if graph_mod.MASK_BITS_PER_ENTRY > 10**6:
                    assert masks.of is not None
                elif not graph_mod.MASK_BITS_PER_ENTRY and g.adj:
                    assert masks.of is None
            elif op == "add_vertex":
                g.add_vertex(data.draw(ids))  # below the top id at times
            elif op == "mint":
                g.add_vertex()
            elif op == "add_edge":
                u, v = data.draw(ids), data.draw(ids)
                if u != v:
                    g.add_edge(u, v)
            elif op == "remove_edge" and edges:
                g.remove_edge(*data.draw(st.sampled_from(edges)))
            elif op == "remove_vertex" and verts:
                g.remove_vertex(data.draw(st.sampled_from(verts)))
            elif op == "split":
                splittable = [v for v in verts if len(g.adj[v]) >= 2]
                if splittable:
                    v = data.draw(st.sampled_from(splittable))
                    nbrs = sorted(g.adj[v])
                    side = data.draw(st.sets(st.sampled_from(nbrs), min_size=1,
                                             max_size=len(nbrs) - 1))
                    g.split(v, [(v, u) for u in nbrs if u in side],
                            [(v, u) for u in nbrs if u not in side])
            elif op == "copy":
                h = g.copy()
                assert h._masks is None and h.adj == g.adj
                g = h
                made.append(g)
            assert_masks_follow_adj(g)
        for h in made:
            assert_masks_follow_adj(h)

    def test_bits_are_ranks_not_ids(self):
        g = Graph.from_edges([(BIG, BIG + 5), (BIG + 5, 3 * BIG)])
        masks = g.masks()
        assert masks.ids == [BIG, BIG + 5, 3 * BIG]
        assert masks.pos == {BIG: 0, BIG + 5: 1, 3 * BIG: 2}
        assert masks.of == {BIG: 0b010, BIG + 5: 0b101, 3 * BIG: 0b010}

    def test_add_vertex_drops_a_built_view(self):
        """No run adds a vertex, so ``add_vertex`` drops the view, whatever
        the id, and the next query builds it afresh."""
        g = Graph.from_edges([(1, 5), (5, 9)])
        view = g.masks()
        g.add_vertex(5)  # present already: nothing changes
        assert g._masks is view
        g.remove_vertex(5)
        g.add_vertex(7)  # below the top id
        assert g._masks is None
        g.masks()
        g.add_vertex()  # above every id
        assert g._masks is None
        masks, fresh = g.masks(), Masks(g.adj, g.m)
        assert masks.ids == fresh.ids == [1, 7, 9, 10]
        assert masks.pos == fresh.pos and masks.of == fresh.of

    def test_a_large_sparse_graph_gets_ranks_but_no_masks(self):
        # n * n bits would exceed MASK_BITS_PER_ENTRY bits per vertex and
        # per edge end: a cycle on 1,000 vertices, or 257 lone vertices
        big = 1000
        assert big * big > MASK_BITS_PER_ENTRY * 3 * big
        g = Graph.from_edges((BIG + i, BIG + (i + 1) % big) for i in range(big))
        masks = g.masks()
        assert masks.of is None and masks.ids == sorted(g.adj)
        lone = Graph.from_edges((), vertices=range(MASK_BITS_PER_ENTRY + 1))
        assert lone.masks().of is None
        fits = Graph.from_edges((), vertices=range(MASK_BITS_PER_ENTRY))
        assert fits.masks().of == dict.fromkeys(range(MASK_BITS_PER_ENTRY), 0)
        assert complete_graph(MASK_BITS_PER_ENTRY + 1).masks().of is not None

    def test_positions_past_the_limit_drop_the_view(self):
        """Each split appends two positions and retires one.  Positions
        outgrow the limit through vertices that are gone (a rebuild ranks
        only the rest, with masks again) or through vertices that are
        present (a rebuild has no masks)."""
        leaves = 600  # the star's masks fit: 601 * 601 bits, under 256 * 1801
        g = Graph.from_edges((0, leaf) for leaf in range(1, leaves + 1))
        hub = 0

        def peel() -> int:
            """Split the hub's smallest edge off; the new hub keeps the rest."""
            nonlocal hub
            nbrs = sorted(g.adj[hub])
            f1, hub = g.split(hub, [(hub, nbrs[0])], [(hub, u) for u in nbrs[1:]])
            return f1

        assert g.masks().of is not None
        for _ in range(leaves):
            g.remove_vertex(peel())  # gone: the leaf it took stays, isolated
            if g._masks is None:
                break
            assert_masks_follow_adj(g)
        assert g._masks is None
        assert g.masks().of is not None and len(g.masks().ids) == g.n
        for _ in range(leaves):
            peel()  # present: one more vertex each time
            if g._masks is None and g.masks().of is None:
                break
        assert g._masks.of is None and len(g._masks.ids) == g.n
        assert_masks_follow_adj(g)

    @pytest.mark.parametrize("n, degree", [(1700, 6), (3000, 6)])
    def test_the_view_never_outweighs_the_adjacency_sets(self, n, degree):
        """Masks where they fit (just below the limit at n = 1,700), ranks
        alone where they do not (n = 3,000): either way the view holds less
        than a copy of the adjacency sets."""
        rng = random.Random(n)
        g = Graph.from_edges((), vertices=range(n))
        while g.m < n * degree // 2:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                g.add_edge(u, v)
        tracemalloc.start()
        try:
            sets = g.copy()
            sets_bytes = tracemalloc.get_traced_memory()[0]
            view = Masks(g.adj, g.m)
            view_bytes = tracemalloc.get_traced_memory()[0] - sets_bytes
        finally:
            tracemalloc.stop()
        assert (view.of is not None) == (n < 1792), n
        assert view_bytes < sets_bytes, (view_bytes, sets_bytes, sets.n)

    def test_building_masks_changes_no_version(self):
        g = complete_graph(4)
        version = g.version
        g.masks()
        assert g.version == version
