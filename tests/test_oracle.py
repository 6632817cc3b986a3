import inspect
import sys

import pytest
from hypothesis import given, settings

from trikernel.gen import GenSpec, generate
from trikernel.graph import Graph, Instance, Variant, enumerate_triangles, triangle_edges
from trikernel.oracle import (
    OracleBudgetError,
    decide,
    solve_etc_exact,
    solve_etp_exact,
)

from conftest import complete_graph, disjoint_triangles, graphs, petersen_graph


def exhaustive_max_packing(g: Graph) -> int:
    """Independent oracle: the largest of all edge-disjoint triangle subsets,
    each reached once by an include/exclude walk with no bounding.  (Trying
    every subset largest first would enumerate ~2^35 of them on K7.)"""
    tris = [frozenset(triangle_edges(t)) for t in enumerate_triangles(g)]

    def best(i: int, used: frozenset) -> int:
        if i == len(tris):
            return 0
        skip = best(i + 1, used)
        if used & tris[i]:
            return skip
        return max(skip, 1 + best(i + 1, used | tris[i]))

    return best(0, frozenset())


def exhaustive_min_cover(g: Graph) -> int:
    """Independent oracle: unbounded iterative deepening.  For size 0, 1,
    2, ... branch on each edge of the first unhit triangle, with no bound;
    every cover holds an edge of every triangle, so the first size that
    succeeds is the minimum.  (Trying every edge subset smallest first takes
    seconds on K7, whose cover needs 9 of 21 edges.)"""
    tris = [triangle_edges(t) for t in enumerate_triangles(g)]

    def covers(size: int, removed: frozenset) -> bool:
        unhit = next((t for t in tris if removed.isdisjoint(t)), None)
        if unhit is None:
            return True
        return size > 0 and any(covers(size - 1, removed | {e}) for e in unhit)

    size = 0
    while not covers(size, frozenset()):
        size += 1
    return size


class TestPackingSolver:
    def test_k4_is_one(self):
        assert solve_etp_exact(complete_graph(4)).optimum == 1
        assert exhaustive_max_packing(complete_graph(4)) == 1

    def test_k5_is_two(self):
        assert exhaustive_max_packing(complete_graph(5)) == 2
        res = solve_etp_exact(complete_graph(5))
        assert res.optimum == 2 and res.exact

    def test_triangle_free_is_zero(self):
        assert solve_etp_exact(petersen_graph()).optimum == 0

    @given(graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_matches_exhaustive(self, g):
        assert solve_etp_exact(g, budget=False).optimum == exhaustive_max_packing(g)

    def test_limit_stops_early_but_soundly(self):
        g = disjoint_triangles(5)
        res = solve_etp_exact(g, limit=2)
        assert res.optimum >= 3 and not res.exact
        full = solve_etp_exact(g)
        assert full.optimum == 5 and full.exact


class TestCoverSolver:
    def test_k3_is_one(self):
        assert solve_etc_exact(complete_graph(3)).optimum == 1

    def test_k4_is_two(self):
        # each edge covers only two of the four triangles
        assert exhaustive_min_cover(complete_graph(4)) == 2
        res = solve_etc_exact(complete_graph(4))
        assert res.optimum == 2
        assert sorted(res.witness) == [(0, 1), (2, 3)] or len(res.witness) == 2

    def test_triangle_free_is_zero(self):
        res = solve_etc_exact(petersen_graph())
        assert res.optimum == 0 and res.witness == []

    @given(graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_matches_exhaustive(self, g):
        assert solve_etc_exact(g, budget=False).optimum == exhaustive_min_cover(g)

    def test_limit_reports_lower_bound(self):
        g = disjoint_triangles(4)
        res = solve_etc_exact(g, limit=2)
        assert res.optimum == 3 and not res.exact and res.witness is None
        assert solve_etc_exact(g).optimum == 4


class TestLimitContract:
    """The capped-solve contract ``decide`` relies on, for every ``limit``."""

    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_every_limit(self, g):
        packing, cover = exhaustive_max_packing(g), exhaustive_min_cover(g)
        for limit in range(g.m + 1):
            res = solve_etp_exact(g, limit=limit, budget=False)
            assert (res.optimum > limit) == (packing > limit)
            assert res.exact == (packing <= limit)
            assert res.optimum <= packing and len(res.witness) == res.optimum
            if res.exact:
                assert res.optimum == packing

            res = solve_etc_exact(g, limit=limit, budget=False)
            assert (res.optimum <= limit) == (cover <= limit)
            if cover <= limit + 1:
                # a cover of exactly limit + 1 is reported once found
                assert (res.optimum, res.exact) == (cover, True)
                removed = set(res.witness)
                assert len(removed) == cover
                assert all(removed.intersection(triangle_edges(t))
                           for t in enumerate_triangles(g))
            else:
                assert (res.optimum, res.exact, res.witness) == (
                    limit + 1, False, None)


class TestDenseGraphs:
    """16-vertex Erdős–Rényi graphs on which the recursive searches ran for
    20 s to minutes; each solve here takes well under 2 s."""

    def test_no_recursion_limit(self):
        g = generate(GenSpec("erdos_renyi", 1, n=16, p=0.6))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 12)
        try:
            packing = solve_etp_exact(g, budget=False).optimum
            cover = solve_etc_exact(g, budget=False).optimum
        finally:
            sys.setrecursionlimit(old)
        assert (packing, cover) == (20, 22)

    def test_p06(self):
        g = generate(GenSpec("erdos_renyi", 0, n=16, p=0.6))
        assert solve_etp_exact(g, budget=False).optimum == 25
        assert solve_etc_exact(g, budget=False).optimum == 29

    def test_p08_packing_meets_its_degree_bound(self):
        g = generate(GenSpec("erdos_renyi", 0, n=16, p=0.8))
        res = solve_etp_exact(g, budget=False)
        assert res.optimum == 33 == sum(len(g.adj[v]) // 2 for v in g.adj) // 3
        assert res.exact


class TestDecide:
    def test_examples(self):
        k4 = complete_graph(4)
        assert decide(Instance(k4, 1, Variant.ETP)) == (True, [(0, 1, 2)])
        answer, cover = decide(Instance(k4, 2, Variant.ETC))
        assert answer is True and len(cover) == 2
        assert decide(Instance(k4, 1, Variant.ETC)) == (False, None)
        assert decide(Instance(complete_graph(5), 3, Variant.ETP)) == (False, None)

    def test_degenerate_k(self):
        g = complete_graph(3)
        assert decide(Instance(g, 0, Variant.ETP)) == (True, [])
        assert decide(Instance(g, -1, Variant.ETP)) == (True, [])
        assert decide(Instance(g, -1, Variant.ETC)) == (False, None)

    def test_budget_refusal(self):
        big = disjoint_triangles(61)  # 183 vertices, 61 triangles
        with pytest.raises(OracleBudgetError):
            decide(Instance(big, 3, Variant.ETP))
        answer, witness = decide(Instance(big, 61, Variant.ETP), budget=False)
        assert answer is True and len(witness) == 61

    def test_small_vertex_count_is_always_accepted(self):
        assert decide(Instance(complete_graph(6), 1, Variant.ETP))[0] is True


class TestCrossProperties:
    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_cover_at_least_packing(self, g):
        # every packed triangle consumes a distinct cover edge
        packing = solve_etp_exact(g, budget=False).optimum
        cover = solve_etc_exact(g, budget=False).optimum
        assert cover >= packing

    @given(graphs(max_n=7, min_n=2))
    @settings(max_examples=40, deadline=None)
    def test_edge_deletion_is_monotone(self, g):
        if g.m == 0:
            return
        e = g.edges()[0]
        smaller = g.copy()
        smaller.remove_edge(*e)
        assert solve_etp_exact(smaller, budget=False).optimum \
            <= solve_etp_exact(g, budget=False).optimum
        assert solve_etc_exact(smaller, budget=False).optimum \
            <= solve_etc_exact(g, budget=False).optimum

    def test_witnesses_are_valid(self):
        g = complete_graph(6)
        pack = solve_etp_exact(g)
        used = set()
        for t in pack.witness:
            for e in triangle_edges(t):
                assert g.has_edge(*e) and e not in used
                used.add(e)
        cover = solve_etc_exact(g)
        removed = set(cover.witness)
        for t in enumerate_triangles(g):
            assert any(e in removed for e in triangle_edges(t))
