import inspect
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trikernel.crown import (
    FatHeadCrown,
    build_span_bipartite,
    extract_crown,
    max_matching,
    verify_crown,
)
from trikernel.graph import Graph, GraphError, Instance, Variant
from trikernel.oracle import solve_etc_exact, solve_etp_exact
from trikernel.rules import RuleEvent, apply_event

from conftest import spanned_triangle


def brute_max_matching_size(adj: dict) -> int:
    """Independent maximum-matching oracle: bitmask DP over right vertices."""
    lefts = sorted(adj)
    rights = sorted({e for es in adj.values() for e in es})
    index = {e: i for i, e in enumerate(rights)}
    memo: dict = {}

    def best(i: int, used: int) -> int:
        if i == len(lefts):
            return 0
        key = (i, used)
        if key not in memo:
            value = best(i + 1, used)  # leave lefts[i] unmatched
            for e in adj[lefts[i]]:
                bit = 1 << index[e]
                if not used & bit:
                    value = max(value, 1 + best(i + 1, used | bit))
            memo[key] = value
        return memo[key]

    return best(0, 0)


def right_side(span: dict) -> list:
    """The right side of a span map: every edge it spans, sorted."""
    return sorted({e for es in span.values() for e in es})


class TestBuildBipartite:
    def test_two_fans_over_one_edge(self):
        g = spanned_triangle(2)  # fans 3 and 4 over edge (0,1)
        span = build_span_bipartite(g, {3, 4}, {(0, 1)})
        assert list(span) == [3, 4]
        assert right_side(span) == [(0, 1)]
        assert span == {3: [(0, 1)], 4: [(0, 1)]}

    def test_adjacent_candidates_are_excluded(self):
        g = spanned_triangle(2)
        g.add_edge(3, 4)
        span = build_span_bipartite(g, {3, 4}, {(0, 1)})
        assert list(span) == []

    def test_empty_head_side(self):
        g = spanned_triangle(1)
        span = build_span_bipartite(g, {3}, set())
        assert list(span) == [] and right_side(span) == []

    def test_vertex_spanning_foreign_edge_is_excluded(self):
        # 3 spans (0,1) and (1,2); restricting heads to (0,1) drops it
        g = spanned_triangle(1)
        g.add_edge(3, 2)
        span = build_span_bipartite(g, {3}, {(0, 1)})
        assert list(span) == []

    def test_candidate_overlapping_heads_is_a_contract_violation(self):
        g = spanned_triangle(1)
        with pytest.raises(GraphError):
            build_span_bipartite(g, {0, 3}, {(0, 1)})


class TestMaxMatching:
    def test_two_lefts_one_right(self):
        g = spanned_triangle(2)
        span = build_span_bipartite(g, {3, 4}, {(0, 1)})
        assert len(max_matching(span)) == 1

    def test_complete_two_by_two(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        for fan in (4, 5):
            for e in ((0, 1), (2, 3)):
                g.add_edge(fan, e[0])
                g.add_edge(fan, e[1])
        span = build_span_bipartite(g, {4, 5}, {(0, 1), (2, 3)})
        assert len(max_matching(span)) == 2

    def test_empty(self):
        span = build_span_bipartite(Graph.from_edges([(0, 1)]), set(), set())
        assert max_matching(span) == {}

    @given(st.integers(2, 12), st.integers(2, 6), st.randoms())
    @settings(max_examples=120)
    def test_matches_independent_dp_matcher(self, n_left, n_right, rng):
        # random span incidence over up to 12 lefts and 6 rights
        head_edges = [(100 + 2 * i, 101 + 2 * i) for i in range(n_right)]
        g = Graph.from_edges(head_edges)
        adj: dict[int, list] = {}
        for fan in range(n_left):
            g.add_vertex(fan)
            spanned = []
            for e in head_edges:
                if rng.random() < 0.4:
                    g.add_edge(fan, e[0])
                    g.add_edge(fan, e[1])
                    spanned.append(e)
            if spanned:
                adj[fan] = spanned
        span = build_span_bipartite(g, set(range(n_left)), set(head_edges))
        assert {a: sorted(es) for a, es in span.items()} == {
            a: sorted(es) for a, es in adj.items()}
        assert len(max_matching(span)) == brute_max_matching_size(adj)

    def test_long_augmenting_path_under_a_low_recursion_limit(self):
        # Lefts 1..n-1 span heads e_i and e_(i+1) and first take e_i; left n
        # spans only e_1, so the second phase needs the augmenting path
        # n, e_1, 1, e_2, ..., n-1, e_n through every left vertex.
        n = 300
        head = {j: (1000 + 2 * j, 1001 + 2 * j) for j in range(1, n + 1)}
        g = Graph.from_edges(head.values())
        for a, spans in [(i, (i, i + 1)) for i in range(1, n)] + [(n, (1,))]:
            for j in spans:
                g.add_edge(a, head[j][0])
                g.add_edge(a, head[j][1])
        span = build_span_bipartite(g, set(range(1, n + 1)), set(head.values()))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 30)
        try:
            matching = max_matching(span)
        finally:
            sys.setrecursionlimit(old)
        assert len(matching) == n
        assert len(set(matching.values())) == n
        assert all(e in span[a] for a, e in matching.items())


def brute_force_crowns(g: Graph, candidates: set, heads: set) -> list:
    """All valid fat-head crowns with C drawn from candidates, H within heads."""
    found = []
    for r in range(1, len(candidates) + 1):
        for chosen in combinations(sorted(candidates), r):
            crown = set(chosen)
            spanned = set()
            for c in crown:
                for u, w in combinations(sorted(g.adj[c]), 2):
                    if g.has_edge(u, w):
                        spanned.add((u, w))
            if not spanned or not spanned.issubset(heads):
                continue
            # brute-force a perfect matching of the heads into the crown
            for perm in permutations(sorted(crown), len(spanned)):
                pairs = list(zip(perm, sorted(spanned)))
                if all(g.has_edge(c, e[0]) and g.has_edge(c, e[1])
                       for c, e in pairs):
                    fc = FatHeadCrown(crown, set(spanned), pairs)
                    if verify_crown(g, fc):
                        found.append(fc)
                    break
    return found


class TestExtractCrown:
    def test_deficiency_case(self):
        g = spanned_triangle(2)
        span = build_span_bipartite(g, {3, 4}, {(0, 1)})
        fc = extract_crown(g, span, max_matching(span))
        assert fc is not None
        assert fc.crown == {3, 4}
        assert fc.head == {(0, 1)}
        assert len(fc.witness) == 1 and fc.witness[0][1] == (0, 1)
        assert verify_crown(g, fc)

    def test_saturated_without_closure_is_absent(self):
        # one candidate spanning two heads: N({a}) can't be saturated
        g = Graph.from_edges([(0, 1), (2, 3), (9, 0), (9, 1), (9, 2), (9, 3)])
        span = build_span_bipartite(g, {9}, {(0, 1), (2, 3)})
        assert list(span) == [9] and len(right_side(span)) == 2
        m = max_matching(span)
        assert len(m) == 1
        assert extract_crown(g, span, m) is None
        # exhaustive check: no valid crown exists at all
        assert brute_force_crowns(g, {9}, {(0, 1), (2, 3)}) == []

    def test_saturated_closure_case(self):
        g = spanned_triangle(1)
        span = build_span_bipartite(g, {3}, {(0, 1)})
        m = max_matching(span)
        assert m == {3: (0, 1)}
        fc = extract_crown(g, span, m)
        assert fc is not None and fc.crown == {3} and fc.head == {(0, 1)}
        assert verify_crown(g, fc)
        # matches the exhaustive search
        assert brute_force_crowns(g, {3}, {(0, 1)})

    @given(st.integers(2, 5), st.integers(0, 1))
    @settings(max_examples=40)
    def test_planted_deficiency_always_found(self, fans, extra_triangle):
        # more independent spanners than spanned edges -> crown must appear
        g = spanned_triangle(fans)
        if extra_triangle:
            g.add_edge(6 + fans, 7 + fans)
            g.add_edge(6 + fans, 8 + fans)
            g.add_edge(7 + fans, 8 + fans)
        candidates = {3 + j for j in range(fans)}
        span = build_span_bipartite(g, candidates, {(0, 1)})
        assert len(span) == fans > len(right_side(span))
        fc = extract_crown(g, span, max_matching(span))
        assert fc is not None and verify_crown(g, fc)
        assert fc.crown >= candidates


class TestVerifyCrown:
    def _good(self):
        g = spanned_triangle(2)
        fc = FatHeadCrown({3, 4}, {(0, 1)}, [(3, (0, 1))])
        return g, fc

    def test_constructed_crown_verifies(self):
        g, fc = self._good()
        assert verify_crown(g, fc)

    def test_crown_edge_breaks_independence(self):
        g, fc = self._good()
        g.add_edge(3, 4)
        assert not verify_crown(g, fc)

    def test_duplicate_head_in_witness(self):
        g, fc = self._good()
        fc.witness = [(3, (0, 1)), (4, (0, 1))]
        assert not verify_crown(g, fc)

    def test_incomplete_head_set(self):
        g, fc = self._good()
        g.add_edge(3, 2)  # 3 now spans (1,2) too; head no longer exact
        assert not verify_crown(g, fc)

    def test_empty_head_is_rejected(self):
        g = Graph.from_edges([(0, 1)])
        g.add_vertex(5)
        assert not verify_crown(g, FatHeadCrown({5}, set(), []))


def apply_crown_event(inst: Instance, fc: FatHeadCrown) -> Instance:
    """Rule 9's mutation of ``fc`` on a copy, through the rule engine."""
    head = sorted(fc.head)
    ev = RuleEvent("R9", k_delta=-len(head), crown_vertices=sorted(fc.crown),
                   head_edges=head, crown_witness=sorted(fc.witness))
    g = inst.graph.copy()
    apply_event(g, ev)
    return Instance(g, inst.k + ev.k_delta, inst.variant)


class TestApplyCrown:
    def test_decision_preserved_for_both_problems(self):
        g = spanned_triangle(2)
        span = build_span_bipartite(g, {3, 4}, {(0, 1)})
        fc = extract_crown(g, span, max_matching(span))
        for variant in (Variant.ETP, Variant.ETC):
            for k in range(0, 4):
                inst = Instance(g, k, variant)
                red = apply_crown_event(inst, fc)
                assert red.k == k - 1
                assert not red.graph.has_edge(0, 1)
                assert fc.crown.isdisjoint(red.graph.vertex_set())
                solver = (solve_etp_exact if variant is Variant.ETP
                          else solve_etc_exact)
                before = solver(g).optimum
                after = solver(red.graph).optimum
                assert after == before - 1  # decision equal at every k

    def test_packed_vertex_may_join_the_crown(self):
        # the triangle's own far vertex spans the head edge and is deletable
        g = spanned_triangle(2)
        fc = FatHeadCrown({2, 3, 4}, {(0, 1)}, [(2, (0, 1))])
        assert verify_crown(g, fc)
        red = apply_crown_event(Instance(g, 1, Variant.ETP), fc)
        assert red.k == 0 and red.graph.vertex_set() == {0, 1}
