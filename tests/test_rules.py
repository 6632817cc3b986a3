import hashlib
import json
import random
import re
import sys
import threading
from collections import Counter
from itertools import combinations, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trikernel.gen import GenSpec, corpus_specs, generate
from trikernel.graph import (
    Graph,
    GraphError,
    Instance,
    Variant,
    covers,
    edge_key,
    enumerate_triangles,
    triangle_edges,
    triangle_key,
)
from trikernel.oracle import solve_etc_exact, solve_etp_exact
from trikernel.packing import TrianglePacking, greedy_maximal_packing, labeled_edges
from trikernel.rules import (
    RULE_IDS,
    SWAP_RULES,
    RuleEvent,
    apply_event,
    find_augment_one,
    find_augment_two,
    find_crown,
    find_exclusive_k4,
    find_prunable,
    find_revertex,
    find_splittable,
    finish,
    for_variant,
    is_valid_cover_solution,
    is_valid_packing_solution,
    kernelize,
    lift_solution,
    replay_trace,
    rule_event,
    terminal_verdict,
    threshold_verdict,
    trace_from_json,
    trace_to_json,
)

from conftest import (
    bowtie,
    complete_graph,
    cycle_graph,
    disjoint_triangles,
    graphs,
    masks_always_fit,
    masks_never_fit,
    reshaped,
    spanned_triangle,
)

VARIANTS = (Variant.ETP, Variant.ETC)
# Runs that swap often: at k = n each makes 37 to 135 swaps (R6-R8).
SWAP_HEAVY = [GenSpec("erdos_renyi", seed, n=200, p=0.05) for seed in range(4)]
# Around the mask limit as shipped: the ER graph's run starts on masks, and
# its splits (787 at k = 10**6) add positions until the view is rebuilt
# without them; the other two are too large and sparse for masks at once.
CROSSOVER = [GenSpec("erdos_renyi", 0, n=800, p=0.02),
             GenSpec("splittable_mix", 0, count=200, noise=20),
             GenSpec("planted_packing", 0, count=300, noise=100)]


def apply_once(inst: Instance, rule: str, s: TrianglePacking | None = None):
    """One application of ``rule`` on copies: the new instance (graph rules)
    or the rewritten packing (R6-R8), or None when the rule does not apply."""
    ev = rule_event(rule, inst.graph, s)
    if ev is None:
        return None
    ev = for_variant(ev, inst.variant)
    out = Instance(inst.graph.copy(), inst.k + ev.k_delta, inst.variant)
    packing = None if s is None else s.copy()
    apply_event(out.graph, ev, packing)
    return packing if rule in SWAP_RULES else out


def reference_kernelize(inst: Instance):
    """The fixpoint loop with nothing incremental: every event restarts the
    scan at R1, and the packing is grown by a greedy pass over every
    triangle.  Returns (verdict, verdict_rule, trace, counters, kernel,
    packing)."""
    g, k, variant = inst.graph.copy(), inst.k, inst.variant
    trace, counters = [], {r: 0 for r in RULE_IDS}
    s = None

    def grow(s):
        for t in enumerate_triangles(g):
            if all(e not in s.edge_index for e in triangle_edges(t)):
                s.add(t)
        return s

    while True:
        verdict = terminal_verdict(g.m, k, variant)
        if verdict is not None:
            counters["R1"] += 1
            return verdict, "R1", trace, counters, None, s
        ev = None
        for rule in ("R2", "R3", "R4"):
            ev = ev or rule_event(rule, g)
        if ev is None:
            if s is None:
                s = grow(TrianglePacking())
            verdict = threshold_verdict(len(s), k, variant)
            if verdict is not None:
                counters["R5"] += 1
                return verdict, "R5", trace, counters, None, s
            for rule in ("R6", "R7", "R8", "R9"):
                ev = ev or rule_event(rule, g, s)
            if ev is None:
                return ("reduced", None, trace, counters,
                        (k, g.edges(), g.vertices()), s)
        ev = for_variant(ev, variant)
        apply_event(g, ev, s)
        k += ev.k_delta
        if ev.rule in SWAP_RULES:
            grow(s)
        else:
            s = None
        counters[ev.rule] += 1
        trace.append(ev)


def _summary(out) -> tuple:
    """What an outcome says, in plain values."""
    red = out.instance
    return (out.verdict, out.verdict_rule, trace_to_json(out.trace),
            dict(out.counters),
            None if red is None else (red.k, red.graph.edges(), red.graph.vertices()),
            None if out.packing is None else list(out.packing.triangles))


def _reference_summary(inst: Instance) -> tuple:
    verdict, rule, trace, counters, kernel, s = reference_kernelize(inst)
    return (verdict, rule, trace_to_json(trace), counters, kernel,
            None if s is None else s.triangles)


def assert_matches_reference(g: Graph) -> int:
    """``kernelize`` agrees with :func:`reference_kernelize` at every k and
    both variants, packing included; returns the number of calls compared.

    The calls go to ``g`` and to ``g.copy()`` with k in a seeded shuffled
    order, and every third call goes to another graph first, so that the
    answers come from resumed runs, from points a run recorded earlier and
    from fresh runs alike."""
    rng = random.Random(g.n)
    other = spanned_triangle(2)
    other_ref = {v: _reference_summary(Instance(other, 2, v)) for v in VARIANTS}
    queries = [(k, variant, src) for k in range(g.n + 1) for variant in VARIANTS
               for src in (g, g.copy())]
    rng.shuffle(queries)
    expected = {}
    for i, (k, variant, src) in enumerate(queries):
        if i % 3 == 2:
            v = rng.choice(VARIANTS)
            assert _summary(kernelize(Instance(other, 2, v))) == other_ref[v]
        inst = Instance(src, k, variant)
        if (k, variant) not in expected:
            expected[k, variant] = _reference_summary(inst)
        assert _summary(kernelize(inst)) == expected[k, variant]
    return len(queries)


@st.composite
def glued_graphs(draw):
    """Dense random pieces glued one vertex at a time: the glue vertices are
    split candidates, which plain random graphs of this size rarely have."""
    g = Graph()
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        n = draw(st.integers(min_value=3, max_value=5))
        pairs = list(combinations(range(n), 2))
        dropped = draw(st.sets(st.sampled_from(pairs), max_size=n - 1))
        glue = draw(st.sampled_from(sorted(g.adj))) if g.adj else 0
        name = {v: glue if v == 0 else g.next_id + v for v in range(n)}
        for u, v in pairs:
            if (u, v) not in dropped:
                g.add_edge(name[u], name[v])
    return g


def brute_exclusive_k4(g: Graph):
    """Rule 3 by definition: the lexicographically first 4-subset that
    induces a K4 whose every edge has just the other two as common
    neighbours."""
    for quad in combinations(g.vertices(), 4):
        if all(g.has_edge(a, b) for a, b in combinations(quad, 2)) and all(
                {w for w in g.vertices() if g.has_edge(a, w) and g.has_edge(b, w)}
                == set(quad) - {a, b} for a, b in combinations(quad, 2)):
            return quad
    return None


def union_find_splittable(g: Graph, after=None):
    """Rule 4 by definition: the first vertex above ``after`` whose
    neighbourhood graph has two or more components, found by a plain
    union-find over the edges inside ``N(v)``; the first part is the
    component of the smallest neighbour."""
    for v in g.vertices():
        if after is not None and v <= after:
            continue
        nbrs = sorted(g.adj[v])
        parent = {u: u for u in nbrs}

        def root(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in combinations(nbrs, 2):
            if g.has_edge(a, b):
                parent[root(a)] = root(b)
        first = root(nbrs[0]) if nbrs else None
        part1 = [(min(v, u), max(v, u)) for u in nbrs if root(u) == first]
        part2 = [(min(v, u), max(v, u)) for u in nbrs if root(u) != first]
        if part2:
            return v, sorted(part1), sorted(part2)
    return None


def with_gone(g: Graph) -> Graph:
    """``g`` with a neighbour view as a run keeps it: built on a graph that
    also held vertices between and around ``g``'s ids, each joined to every
    vertex of ``g``, which were then removed, so the view's positions hold
    ids that are gone (under :func:`masks_never_fit`, a view without
    masks)."""
    extra = sorted(({v + 1 for v in g.adj} | {0}) - set(g.adj))
    h = Graph.from_edges(g.edges(), vertices=sorted(set(g.adj) | set(extra)))
    for x in extra:
        for v in g.adj:
            h.add_edge(x, v)
    h.masks()
    for x in extra:
        h.remove_vertex(x)
    assert h.adj == g.adj and len(h.masks().ids) == len(g.adj) + len(extra)
    return h


@st.composite
def k4_studded(draw):
    """A random graph with one to three K4s glued on, each at one vertex:
    exclusive K4s, often several, which random graphs rarely hold."""
    g = draw(graphs(max_n=8))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        glue = draw(st.sampled_from(sorted(g.adj))) if g.adj else g.add_vertex()
        quad = [glue] + [g.add_vertex() for _ in range(3)]
        for a, b in combinations(quad, 2):
            g.add_edge(a, b)
    return g


def both_optima(g: Graph):
    return (solve_etp_exact(g, budget=False).optimum,
            solve_etc_exact(g, budget=False).optimum)


class TestRuleTerminal:
    def test_etp_small_k_wins(self):
        assert terminal_verdict(0, 0, Variant.ETP) == "yes"
        assert terminal_verdict(complete_graph(3).m, -2, Variant.ETP) == "yes"

    def test_etp_empty_graph_loses(self):
        assert terminal_verdict(0, 1, Variant.ETP) == "no"

    def test_etc_empty_graph_wins(self):
        assert terminal_verdict(0, 0, Variant.ETC) == "yes"
        assert terminal_verdict(0, -1, Variant.ETC) == "no"

    def test_silent_otherwise(self):
        assert terminal_verdict(complete_graph(3).m, 1, Variant.ETP) is None


class TestRulePrune:
    def test_c5_dissolves(self):
        out = apply_once(Instance(cycle_graph(5), 1, Variant.ETP), "R2")
        assert out is not None and out.graph.n == 0 and out.graph.m == 0

    def test_pendant_edge_and_vertex_go(self):
        g = complete_graph(3)
        g.add_edge(2, 3)
        out = apply_once(Instance(g, 1, Variant.ETP), "R2")
        assert out.graph.vertex_set() == {0, 1, 2}
        assert not out.graph.has_edge(2, 3)

    def test_k4_untouched(self):
        assert apply_once(Instance(complete_graph(4), 1, Variant.ETP), "R2") is None

    def test_decision_preserved(self):
        g = complete_graph(3)
        g.add_edge(2, 3)
        g.add_vertex(9)
        out = apply_once(Instance(g, 1, Variant.ETP), "R2")
        assert both_optima(g) == both_optima(out.graph)


class TestRuleK4:
    def test_isolated_k4_etp(self):
        out = apply_once(Instance(complete_graph(4), 1, Variant.ETP), "R3")
        assert out.k == 0 and out.graph.m == 0

    def test_isolated_k4_etc(self):
        out = apply_once(Instance(complete_graph(4), 2, Variant.ETC), "R3")
        assert out.k == 0 and out.graph.m == 0

    def test_k5_has_no_exclusive_quad(self):
        assert find_exclusive_k4(complete_graph(5)) is None

    def test_external_triangle_blocks(self):
        g = complete_graph(4)
        g.add_edge(4, 0)
        g.add_edge(4, 1)  # edge (0,1) now lies in triangle (0,1,4)
        assert find_exclusive_k4(g) is None

    def test_smallest_of_several_quads(self):
        # three exclusive K4s, inserted out of id order
        g = complete_graph(4, offset=20)
        for offset in (30, 10):
            for u, v in complete_graph(4, offset=offset).edges():
                g.add_edge(u, v)
        g.add_edge(13, 20)
        assert find_exclusive_k4(g) == (10, 11, 12, 13)

    @given(st.one_of(reshaped(graphs(max_n=12)), reshaped(k4_studded())))
    @settings(max_examples=150, deadline=None)
    def test_equals_brute_force_search(self, g):
        expected = brute_exclusive_k4(g)
        assert find_exclusive_k4(g) == expected
        assert find_exclusive_k4(with_gone(g)) == expected
        with masks_never_fit():
            on_sets = with_gone(g)
        assert find_exclusive_k4(on_sets) == expected

    def test_decision_delta(self):
        g = complete_graph(4)
        g2 = apply_once(Instance(g, 5, Variant.ETP), "R3").graph
        p0, c0 = both_optima(g)
        p1, c1 = both_optima(g2)
        assert p1 == p0 - 1 and c1 == c0 - 2


class TestRuleSplit:
    def test_bowtie_splits_into_disjoint_triangles(self):
        out = apply_once(Instance(bowtie(), 2, Variant.ETP), "R4")
        g2 = out.graph
        assert g2.n == 6 and g2.m == 6
        tris = enumerate_triangles(g2)
        assert len(tris) == 2
        assert set(tris[0]).isdisjoint(tris[1])

    def test_k4_not_splittable(self):
        assert find_splittable(complete_graph(4)) is None

    def test_shared_edge_not_splittable(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        assert find_splittable(g) is None

    def test_smallest_vertex_and_smallest_edge_seed(self):
        found = find_splittable(bowtie())
        assert found is not None
        v, part1, part2 = found
        assert v == 0
        assert part1 == [(0, 1), (0, 2)] and part2 == [(0, 3), (0, 4)]

    def test_decision_preserved(self):
        out = apply_once(Instance(bowtie(), 2, Variant.ETP), "R4")
        assert both_optima(bowtie()) == both_optima(out.graph)

    @given(st.one_of(reshaped(graphs(max_n=12)), reshaped(glued_graphs())),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_union_find_components(self, g, data):
        after = data.draw(st.one_of(st.none(), st.sampled_from(g.vertices() or [0])))
        expected = union_find_splittable(g, after)
        assert find_splittable(g, after) == expected
        assert find_splittable(with_gone(g), after) == expected
        with masks_never_fit():
            on_sets = with_gone(g)
        assert find_splittable(on_sets, after) == expected


class TestSplitLemma:
    """What the resuming driver relies on after an R4 split at ``v``."""

    @staticmethod
    def check_split_chain(g: Graph) -> int:
        # exhaust R2/R3, then follow every split the driver would make
        while True:
            ev = rule_event("R2", g) or rule_event("R3", g)
            if ev is None:
                break
            apply_event(g, ev)
        splits = 0
        while (ev := rule_event("R4", g)) is not None:
            triangles = len(enumerate_triangles(g))
            apply_event(g, ev)
            splits += 1
            assert len(enumerate_triangles(g)) == triangles
            assert find_prunable(g) is None
            assert find_exclusive_k4(g) is None
            v = ev.split_vertex
            resumed = find_splittable(g, after=v)
            assert find_splittable(g) == resumed
            assert resumed is None or resumed[0] > v
            # v1 takes the one component of G[N(v)] grown from the seed, so
            # it is never splittable; v2 takes all the others
            v1 = ev.split_minted[0]
            hit = find_splittable(g, after=v1 - 1)
            assert hit is None or hit[0] != v1
        return splits

    @given(glued_graphs())
    @settings(max_examples=120, deadline=None)
    def test_split_keeps_r2_r3_clean_and_nothing_below_splittable(self, g):
        self.check_split_chain(g)

    def test_corpus_splits(self):
        splits = sum(self.check_split_chain(generate(spec))
                     for spec in corpus_specs(17, 80, "kernel"))
        assert splits > 50


class TestRuleThreshold:
    def test_packing_larger_than_k(self):
        g = disjoint_triangles(2)
        s = greedy_maximal_packing(g)
        assert threshold_verdict(len(s), 1, Variant.ETP) == "yes"
        assert threshold_verdict(len(s), 1, Variant.ETC) == "no"
        # oracle agreement: the minimum cover really is 2
        assert solve_etc_exact(g).optimum == 2

    def test_silent_at_k(self):
        g = complete_graph(3)
        s = greedy_maximal_packing(g)
        assert threshold_verdict(len(s), 1, Variant.ETP) is None


class TestRuleAugmentOne:
    def test_two_fans_on_different_edges(self):
        g = Graph.from_edges([(1, 2), (1, 3), (2, 3), (4, 1), (4, 2),
                              (5, 2), (5, 3)])
        s = greedy_maximal_packing(g)
        assert s.triangles == [(1, 2, 3)]
        out = apply_once(Instance(g, 9, Variant.ETP), "R6", s)
        assert out is not None and len(out) == 2
        assert sorted(out.triangles) == [(1, 2, 4), (2, 3, 5)]
        out.validate(g)

    def test_lone_triangle_absent(self):
        g = complete_graph(3)
        assert find_augment_one(g, greedy_maximal_packing(g)) is None

    def test_single_spanner_on_one_edge_absent(self):
        g = spanned_triangle(1)
        assert find_augment_one(g, greedy_maximal_packing(g)) is None

    def test_one_vertex_spanning_two_edges_absent(self):
        # both candidate triangles run through the same spanner, never disjoint
        g = Graph.from_edges([(1, 2), (1, 3), (2, 3), (4, 1), (4, 2), (4, 3)])
        s = TrianglePacking()
        s.add((1, 2, 3))
        assert find_augment_one(g, s) is None


class TestRuleAugmentTwo:
    def _lemma8_graph(self):
        # packed pair (1,2,3) and (2,4,5) sharing 2; spanners 6 over (1,2)
        # and 7 over (2,4); bridging edge (3,5)
        return Graph.from_edges([
            (1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (4, 5),
            (6, 1), (6, 2), (7, 2), (7, 4), (3, 5)])

    def test_replaces_pair_with_three(self):
        g = self._lemma8_graph()
        s = greedy_maximal_packing(g)
        assert s.sorted_triangles() == [(1, 2, 3), (2, 4, 5)]
        assert find_augment_one(g, s) is None
        out = apply_once(Instance(g, 9, Variant.ETP), "R7", s)
        assert out is not None
        assert sorted(out.triangles) == [(1, 2, 6), (2, 3, 5), (2, 4, 7)]
        out.validate(g)

    def test_first_pair_in_lexicographic_order(self):
        # a third packed triangle (2,8,9) with spanner 10 and bridge (3,9)
        # makes the pair ((1,2,3),(2,8,9)) work too; the earlier pair wins
        g = self._lemma8_graph()
        for e in [(2, 8), (2, 9), (8, 9), (10, 2), (10, 8), (3, 9)]:
            g.add_edge(*e)
        s = greedy_maximal_packing(g)
        assert s.sorted_triangles() == [(1, 2, 3), (2, 4, 5), (2, 8, 9)]
        t1, t2, _ = find_augment_two(g, s)
        assert (t1, t2) == ((1, 2, 3), (2, 4, 5))

    def test_two_cross_triangles_and_one_spanner_triangle(self):
        # packed pair (1,2,3) and (2,4,5) sharing 2; only (1,2,3) carries a
        # spanner entry (6 over (1,3)), and the free cross edges (1,4) and
        # (3,5) give the other two triangles of the witness
        g = Graph.from_edges([(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (4, 5),
                              (1, 4), (3, 5), (1, 6), (3, 6)])
        s = greedy_maximal_packing(g)
        assert s.sorted_triangles() == [(1, 2, 3), (2, 4, 5)]
        assert find_augment_one(g, s) is None
        assert find_augment_two(g, s) == (
            (1, 2, 3), (2, 4, 5), [(1, 2, 4), (1, 3, 6), (2, 3, 5)])

    def test_disjoint_pairs_without_attachments_absent(self):
        g = disjoint_triangles(2)
        assert find_augment_two(g, greedy_maximal_packing(g)) is None

    @given(reshaped(graphs(max_n=12)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sharing_pairs_are_every_vertex_sharing_pair_in_order(self, g, data):
        from trikernel.rules import _sharing_pairs
        tris = greedy_maximal_packing(g).sorted_triangles()
        picks = data.draw(st.lists(st.booleans(), min_size=len(tris),
                                   max_size=len(tris)))
        drawn = {t for t, pick in zip(tris, picks) if pick}
        for flagged in (set(tris), drawn):
            assert list(_sharing_pairs(tris, flagged)) == [
                (i, j) for i, j in combinations(range(len(tris)), 2)
                if set(tris[i]) & set(tris[j])
                and (tris[i] in flagged or tris[j] in flagged)]


class TestRuleRevertex:
    def _case2_graph(self):
        # packed (1,2,3) and (3,4,5) sharing 3; free vertex 6 spans (1,2)
        return Graph.from_edges([(1, 2), (1, 3), (2, 3), (3, 4), (3, 5),
                                 (4, 5), (6, 1), (6, 2)])

    def test_swap_gains_a_vertex(self):
        g = self._case2_graph()
        s = greedy_maximal_packing(g)
        assert s.sorted_triangles() == [(1, 2, 3), (3, 4, 5)]
        assert find_augment_one(g, s) is None
        assert find_augment_two(g, s) is None
        out = apply_once(Instance(g, 9, Variant.ETP), "R8", s)
        assert out is not None
        assert sorted(out.triangles) == [(1, 2, 6), (3, 4, 5)]
        assert len(out.vertex_set()) == len(s.vertex_set()) + 1
        out.validate(g)

    def test_first_pair_in_lexicographic_order(self):
        # (3,7,8) also shares 3 with (1,2,3); both pairs can grow, and the
        # lexicographically first one is taken
        g = self._case2_graph()
        for e in [(3, 7), (3, 8), (7, 8)]:
            g.add_edge(*e)
        s = greedy_maximal_packing(g)
        assert s.sorted_triangles() == [(1, 2, 3), (3, 4, 5), (3, 7, 8)]
        t1, t2, _ = find_revertex(g, s)
        assert (t1, t2) == ((1, 2, 3), (3, 4, 5))

    def test_no_free_vertices_absent(self):
        g = disjoint_triangles(2)
        assert find_revertex(g, greedy_maximal_packing(g)) is None

    def test_replacement_never_borrows_a_third_triangle_edge(self):
        # the tempting swap for pair ((1,2,3),(3,4,5)) would pair (3,5,7)
        # with (2,4,11), but (2,4,11) reuses edge (2,4) owned by (2,4,10);
        # the guard keeps it out, and growth comes from a pair that owns (2,4)
        g = Graph.from_edges([
            (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5),
            (2, 4), (2, 10), (4, 10), (11, 2), (11, 4), (7, 3), (7, 5)])
        s = greedy_maximal_packing(g)
        assert s.sorted_triangles() == [(1, 2, 3), (2, 4, 10), (3, 4, 5)]
        found = find_revertex(g, s)
        assert found is not None
        t1, t2, _ = found
        assert (t1, t2) == ((2, 4, 10), (3, 4, 5))
        out = apply_once(Instance(g, 9, Variant.ETP), "R8", s)
        out.validate(g)  # would raise if an owned edge were reused
        assert sorted(out.triangles) == [(1, 2, 3), (2, 4, 10), (3, 5, 7)]
        assert len(out.vertex_set()) > len(s.vertex_set())


class TestRuleCrownReduce:
    def test_two_fans_trigger_reduction(self):
        g = spanned_triangle(2)
        s = greedy_maximal_packing(g)
        fc = find_crown(g, s, labeled_edges(g, s))
        assert fc is not None
        assert {3, 4} <= fc.crown and fc.head == {(0, 1)}
        out = apply_once(Instance(g, 2, Variant.ETP), "R9", s)
        assert out.k == 1
        assert not out.graph.has_edge(0, 1)

    def test_single_fan_closure_case(self):
        g = spanned_triangle(1)
        s = greedy_maximal_packing(g)
        out = apply_once(Instance(g, 1, Variant.ETC), "R9", s)
        assert out is not None and out.k == 0
        p0, c0 = both_optima(g)
        p1, c1 = both_optima(out.graph)
        assert p1 == p0 - 1 and c1 == c0 - 1

    def test_no_free_vertices_absent(self):
        g = disjoint_triangles(2)
        s = greedy_maximal_packing(g)
        assert find_crown(g, s, labeled_edges(g, s)) is None


class TestKernelize:
    def test_a_variant_value_reads_as_its_member(self):
        """``Variant`` is a ``str`` enum, so ``"etp"`` hashes like
        ``Variant.ETP``; every entry point reads it as that member, and an
        unknown value is refused."""
        g = disjoint_triangles(2)
        assert kernelize(Instance(g, 1, "etp")).verdict == "yes"  # R5
        assert kernelize(Instance(g, 0, "etp")).verdict == "yes"  # R1
        assert kernelize(Instance(g, 1, "etc")).verdict == "no"  # R5
        assert Instance(g, 1, "etc").variant is Variant.ETC
        out = kernelize(Instance(g, 1, Variant.ETP))
        assert out.verdict_rule == "R5"
        assert finish(out, "etp") == finish(out, Variant.ETP)
        assert finish(out, "etp")[1] == list(out.packing.triangles)
        solution = [(0, 1, 2)]
        assert (lift_solution([], solution, "etp")
                == lift_solution([], solution, Variant.ETP) == solution)
        for call in (lambda: Instance(g, 1, "ETP"), lambda: finish(out, "pack"),
                     lambda: lift_solution([], solution, "pack")):
            with pytest.raises(ValueError):
                call()

    def test_k4_examples(self):
        assert kernelize(Instance(complete_graph(4), 1, Variant.ETP)).verdict == "yes"
        assert kernelize(Instance(complete_graph(4), 1, Variant.ETC)).verdict == "no"
        assert solve_etc_exact(complete_graph(4)).optimum == 2

    def test_fixpoint_is_idempotent(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (9, 9 + 1)])
        out = kernelize(Instance(g, 1, Variant.ETP))
        assert out.verdict == "reduced"
        again = kernelize(out.instance)
        assert again.verdict == "reduced"
        assert not again.trace
        assert again.instance.graph.edges() == out.instance.graph.edges()

    def test_reduced_state_rejects_every_rule(self):
        out = kernelize(Instance(complete_graph(3), 1, Variant.ETP))
        red = out.instance
        s = out.packing
        assert terminal_verdict(red.graph.m, red.k, red.variant) is None
        assert find_prunable(red.graph) is None
        assert find_exclusive_k4(red.graph) is None
        assert find_splittable(red.graph) is None
        assert threshold_verdict(len(s), red.k, red.variant) is None
        assert find_augment_one(red.graph, s) is None
        assert find_augment_two(red.graph, s) is None
        assert find_revertex(red.graph, s) is None
        assert find_crown(red.graph, s, labeled_edges(red.graph, s)) is None

    def test_deterministic_trace(self):
        g = spanned_triangle(3)
        a = kernelize(Instance(g.copy(), 2, Variant.ETP))
        b = kernelize(Instance(g.copy(), 2, Variant.ETP))
        assert trace_to_json(a.trace) == trace_to_json(b.trace)

    def test_trace_replay_reproduces_reduced_graph(self):
        g = bowtie()
        g.add_edge(4, 5)  # pendant to exercise pruning too
        out = kernelize(Instance(g, 2, Variant.ETP))
        assert out.verdict == "reduced"
        replayed = replay_trace(g, out.trace)
        assert replayed.edges() == out.instance.graph.edges()
        assert replayed.vertex_set() == out.instance.graph.vertex_set()
        # and the serialized trace round-trips
        again = trace_from_json(trace_to_json(out.trace))
        assert replay_trace(g, again).edges() == replayed.edges()

    def test_replay_rejects_a_split_that_mints_other_ids(self):
        out = kernelize(Instance(bowtie(), 2, Variant.ETP))
        assert [ev.rule for ev in out.trace] == ["R4"]
        shifted = bowtie()
        shifted.add_vertex(20)  # the next minted id moves past 20
        with pytest.raises(GraphError):
            replay_trace(shifted, out.trace)

    @pytest.mark.parametrize("event, message", [
        ({"rule": "R2", "removed_edges": [[1]]}, "edge \\[1\\] is not a list of 2"),
        ({"rule": "R2", "removed_edges": [[1, 1]]}, "repeats a vertex"),
        ({"rule": "R2", "removed_vertices": [-1]}, "-1 is not a non-negative"),
        ({"rule": "R2", "removed_vertices": ["0"]}, "'0' is not a non-negative"),
        ({"rule": "R2", "removed_vertices": [True]}, "True is not a non-negative"),
        ({"rule": "R2", "k_delta": 0.5}, "k_delta 0.5 is not an integer"),
        ({"rule": "R3", "quad": [0, 1, 2], "removed_edges": []}, "quad"),
        ({"rule": "R6", "packing_removed": [[0, 1]], "packing_added": []},
         "triangle \\[0, 1\\]"),
        ({"rule": "R4", "split": {"vertex": 0, "part1": [[0, 1]], "part2": [[0, 2]],
                                  "minted": [3]}}, "minted pair"),
        ({"rule": "R9", "crown": {"vertices": [3], "head": [[0, 1]],
                                  "witness": [[3, 0, 1]]}}, "crown witness"),
        ({"rule": "R9", "crown": [3]}, "crown \\[3\\] is not a JSON object"),
        ({"rule": "R2", "removed_edgse": [[0, 1]]}, "unknown key 'removed_edgse'"),
        ({"rule": "R4", "split": {"vertex": 0, "part1": [[0, 1]], "part2": [[0, 2]],
                                  "minted": [3, 4], "extra": 1}},
         "split has unknown key 'extra'"),
        ({"rule": "R9", "crown": {"vertices": [3], "head": [[0, 1]],
                                  "witness": [[3, [0, 1]]], "heads": []}},
         "crown has unknown key 'heads'"),
        ({"rule": "R2", "quad": [0, 1, 2, 3], "packing_added": [[0, 1, 2]]},
         "R2 event has unknown key 'quad'"),
        ({"rule": "R6", "packing_removed": [[0, 1, 2]], "packing_added": [],
          "split": {"vertex": 0, "part1": [[0, 1]], "part2": [[0, 2]],
                    "minted": [3, 4]}},
         "R6 event has unknown key 'split'"),
        ({"rule": "R9", "removed_edges": [[0, 1]],
          "crown": {"vertices": [3], "head": [[0, 1]], "witness": [[3, [0, 1]]]}},
         "R9 event has unknown key 'removed_edges'"),
    ], ids=["short-edge", "loop-edge", "negative-vertex", "string-vertex",
            "bool-vertex", "float-k-delta", "short-quad", "short-triangle",
            "one-minted", "flat-witness", "crown-not-object", "misspelt-key",
            "split-extra-key", "crown-extra-key", "r2-with-quad", "r6-with-split",
            "r9-with-removed-edges"])
    def test_bad_trace_values_are_value_errors(self, event, message):
        text = json.dumps({"events": [{"rule": "R2"}, event]})
        with pytest.raises(ValueError, match="trace event 1: .*" + message):
            trace_from_json(text)

    @pytest.mark.parametrize("crown", [
        {"vertices": [0], "head": [], "witness": []},
        {"vertices": [2], "head": [[0, 1]], "witness": [[2, [0, 1]]]},
    ], ids=["empty-head", "head-misses-spanned-edges"])
    def test_replay_rejects_an_r9_event_that_is_not_a_crown(self, crown):
        trace = trace_from_json(json.dumps(
            {"events": [{"rule": "R9", "k_delta": -len(crown["head"]),
                         "crown": crown}]}))
        with pytest.raises(GraphError, match="trace event 0: R9 crown"):
            replay_trace(complete_graph(4), trace)

    @pytest.mark.parametrize("event", [
        {"rule": "R2", "removed_vertices": [9]},
        {"rule": "R3", "quad": [0, 1, 2, 9], "removed_edges": [[0, 9]]},
        {"rule": "R4", "split": {"vertex": 9, "part1": [[9, 1]], "part2": [[9, 2]],
                                 "minted": [3, 4]}},
        {"rule": "R9", "k_delta": -1, "crown": {"vertices": [9], "head": [[0, 1]],
                                                "witness": [[9, [0, 1]]]}},
    ], ids=["R2", "R3", "R4", "R9"])
    def test_replay_of_an_absent_vertex_is_a_graph_error(self, event):
        trace = trace_from_json(json.dumps({"events": [event]}))
        with pytest.raises(GraphError):
            replay_trace(complete_graph(3), trace)

    def test_replay_accepts_a_real_crown(self):
        g = spanned_triangle(2)
        out = kernelize(Instance(g, 2, Variant.ETP))
        assert [ev.rule for ev in out.trace] == ["R9"]
        assert not replay_trace(g, out.trace).has_edge(0, 1)

    @pytest.mark.parametrize("text, message", [
        ('{"events": [{}]}', "trace event 0: unknown rule"),
        ("{}", "'events' list"),
        ('{"events": [{"rule": "R2"}, {"rule": "R4", "split": {"vertex": 0}}]}',
         "trace event 1: missing field 'part1'"),
        ("[]", "'events' list"),
    ], ids=["empty-event", "no-events", "split-without-parts", "bare-list"])
    def test_malformed_trace_is_a_value_error(self, text, message):
        with pytest.raises(ValueError, match=message):
            trace_from_json(text)

    def test_deeply_nested_trace_is_a_value_error(self):
        with pytest.raises(ValueError, match="nests deeper"):
            trace_from_json("[" * 200_000)

    @given(graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_decision_equivalence_random(self, g):
        etp = solve_etp_exact(g, budget=False).optimum
        etc = solve_etc_exact(g, budget=False).optimum
        for k in (0, 1, 2, etp, etc, g.n):
            for variant, truth in ((Variant.ETP, etp >= k), (Variant.ETC, etc <= k)):
                out = kernelize(Instance(g, k, variant))
                if out.verdict == "reduced":
                    red = out.instance
                    if variant is Variant.ETP:
                        got = solve_etp_exact(red.graph, budget=False).optimum >= red.k
                    else:
                        got = solve_etc_exact(red.graph, budget=False).optimum <= red.k
                else:
                    got = out.verdict == "yes"
                assert got == truth

    def test_reduced_outcomes_are_fixpoints_with_maximal_packing(self):
        # at the outcome state (graph, k, final packing), no rule applies
        seen = 0
        for spec in corpus_specs(31, 30, "small"):
            g = generate(spec)
            for k in (2, g.n):
                out = kernelize(Instance(g, k, Variant.ETP))
                if out.verdict != "reduced":
                    continue
                seen += 1
                red, s = out.instance, out.packing
                s.validate(red.graph)
                assert covers(red.graph, s.edge_index)
                assert terminal_verdict(red.graph.m, red.k, red.variant) is None
                assert find_prunable(red.graph) is None
                assert find_exclusive_k4(red.graph) is None
                assert find_splittable(red.graph) is None
                assert threshold_verdict(len(s), red.k, red.variant) is None
                assert find_augment_one(red.graph, s) is None
                assert find_augment_two(red.graph, s) is None
                assert find_revertex(red.graph, s) is None
                assert find_crown(red.graph, s,
                                  labeled_edges(red.graph, s)) is None
        assert seen > 10

    def test_monotone_progress_counters(self):
        g = spanned_triangle(4)
        for extra in [(7 + 4, 8 + 4), (8 + 4, 9 + 4)]:
            g.add_edge(*extra)
        out = kernelize(Instance(g, 3, Variant.ETP))
        assert set(out.counters) == set(RULE_IDS)
        assert all(c >= 0 for c in out.counters.values())


class TestAgainstReferenceDriver:
    """The resuming driver and its incremental packing upkeep must record
    exactly what a restart-from-R1 loop with full greedy passes records."""

    def test_kernel_corpus_every_k(self):
        runs = sum(assert_matches_reference(generate(spec))
                   for spec in corpus_specs(23, 30, "kernel"))
        assert runs > 1000

    @given(graphs(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_every_k(self, g):
        assert_matches_reference(g)


def _sweep_digest(graphs: list[Graph], order: list[tuple]) -> str:
    """sha256 over verdict, rule, trace and kernel edges of every
    (graph index, k, variant) call, made in ``order``, read graph-major."""
    seen = {}
    for i, k, variant in order:
        out = kernelize(Instance(graphs[i], k, variant))
        kernel = None if out.instance is None else out.instance.graph.edges()
        seen[i, k, variant.value] = (f"{out.verdict}|{out.verdict_rule}|"
                                     f"{trace_to_json(out.trace)}|{kernel}")
    h = hashlib.sha256()
    for key in sorted(seen):
        h.update(seen[key].encode())
    return h.hexdigest()


class TestFrozenBehaviour:
    """Every outcome on a fixed sample, pinned by value.
    ``reference_kernelize`` calls the same finders as ``kernelize``, so
    only a pinned value shows that a finder rewritten to change nothing
    (a faster scan, an earlier exit) changed nothing.  A change that means
    to alter behaviour prints the new value with ``_sweep_digest`` over
    the same sample and order, and says why it moved."""

    def test_kernel_corpus_digest_is_unchanged(self):
        # corpus_specs(59, 60, "kernel") holds every event rule (R2-R4,
        # R6-R9) and every R1/R5 yes and no verdict across its 2454 calls
        graphs = [generate(spec) for spec in corpus_specs(59, 60, "kernel")]
        order = [(i, k, variant) for i, g in enumerate(graphs)
                 for k in range(g.n + 1) for variant in VARIANTS]
        assert _sweep_digest(graphs, order) == (
            "be5189c6755e76db067aeae18589ae3b6959a47f5ecac3fe06122a6619183d1b")

    def test_swap_heavy_digest_is_unchanged(self):
        graphs = [generate(spec) for spec in SWAP_HEAVY]
        order = [(i, k, variant) for i, g in enumerate(graphs)
                 for k in sorted({1, g.n // 4, g.n // 2, g.n}) for variant in VARIANTS]
        assert _sweep_digest(graphs, order) == (
            "93a8e0c09f96052e570b1718ddec96a3e75271f8c02b6ccb7cb23d1cb81d0212")

    def test_sets_give_the_digests_masks_give(self):
        """Runs on graphs too sparse for masks answer on the adjacency sets;
        on the same samples they must give the same digests.  Each sweep
        runs in a thread of its own, which keeps no run from a sweep with
        masks."""
        kernel = [generate(spec) for spec in corpus_specs(59, 60, "kernel")]
        swap = [generate(spec) for spec in SWAP_HEAVY]

        def sweeps():
            with masks_never_fit():
                return (
                    _sweep_digest(kernel, [
                        (i, k, variant) for i, g in enumerate(kernel)
                        for k in range(g.n + 1) for variant in VARIANTS]),
                    _sweep_digest(swap, [
                        (i, k, variant) for i, g in enumerate(swap)
                        for k in sorted({1, g.n // 4, g.n // 2, g.n})
                        for variant in VARIANTS]))

        assert _in_fresh_thread(sweeps) == (
            "be5189c6755e76db067aeae18589ae3b6959a47f5ecac3fe06122a6619183d1b",
            "93a8e0c09f96052e570b1718ddec96a3e75271f8c02b6ccb7cb23d1cb81d0212")

    def test_a_view_that_outgrows_its_masks_mid_run_changes_no_digest(
            self, monkeypatch):
        """With the mask limit as shipped, the views cross from masks to
        sets on their own: the ER run's view is built with masks seven
        times, then once without, and the other two graphs get none.  Each
        sweep runs in a thread of its own and gives the digest it gives
        with masks always and with masks never."""
        import trikernel.graph as graph_mod
        builds = []

        class Counted(graph_mod.Masks):
            __slots__ = ()

            def __init__(self, adj, m):
                super().__init__(adj, m)
                builds.append(self.of is not None)

        monkeypatch.setattr(graph_mod, "Masks", Counted)
        graphs = [generate(spec) for spec in CROSSOVER]
        order = [(i, k, variant) for i, g in enumerate(graphs)
                 for k in sorted({1, g.n // 4, g.n // 2, g.n})
                 for variant in VARIANTS]
        shipped = _in_fresh_thread(lambda: _sweep_digest(graphs, order))
        assert builds == [True] * 7 + [False] * 3
        for forced in (masks_always_fit, masks_never_fit):
            with forced():
                assert _in_fresh_thread(
                    lambda: _sweep_digest(graphs, order)) == shipped, forced


def reference_augment_two(g: Graph, s: TrianglePacking):
    """Rule 7 as an unfiltered scan: every vertex-sharing pair, in
    lexicographic order, searched for a witness triple."""
    from trikernel.rules import _first_disjoint_triple, _pair_candidates, _strict_spanners
    spanners = _strict_spanners(g, s)
    for t1, t2 in combinations(s.sorted_triangles(), 2):
        if set(t1) & set(t2):
            found = _first_disjoint_triple(_pair_candidates(g, s, t1, t2, spanners))
            if found is not None:
                return t1, t2, found
    return None


def checked_run(g: Graph) -> Counter:
    """Run ``g`` to its fixpoint with every finder that reads the run's kept
    state checked against a call that keeps none: the spanners R6 gets (at
    the first scan of each packing and after every swap) equal
    ``_strict_spanners``, R7 answers what :func:`reference_augment_two`
    answers (R6 is exhausted at every R7 call the driver makes, so its
    pair filter must lose no witness), R8 what a call without the run's
    spanners answers, and R3 and R4 what a call on a copy answers (a copy
    builds its masks afresh; the run keeps its masks through every event).
    Returns the checked calls per finder."""
    import trikernel.rules as rules_mod
    real = {name: getattr(rules_mod, name) for name in (
        "_strict_spanners", "find_augment_one", "find_augment_two",
        "find_revertex", "find_splittable", "find_exclusive_k4")}
    calls = Counter()

    def augment_one(g, s, spanners=None):
        assert spanners == real["_strict_spanners"](g, s)
        calls["find_augment_one"] += 1
        return real["find_augment_one"](g, s, spanners)

    def augment_two(g, s, spanners=None):
        found = real["find_augment_two"](g, s, spanners)
        assert found == reference_augment_two(g, s)
        calls["find_augment_two"] += 1
        return found

    def revertex(g, s, spanners=None):
        found = real["find_revertex"](g, s, spanners)
        assert found == real["find_revertex"](g, s)
        calls["find_revertex"] += 1
        return found

    def splittable(g, after=None):
        found = real["find_splittable"](g, after)
        assert found == real["find_splittable"](g.copy(), after)
        calls["find_splittable"] += 1
        return found

    def exclusive_k4(g):
        found = real["find_exclusive_k4"](g)
        assert found == real["find_exclusive_k4"](g.copy())
        calls["find_exclusive_k4"] += 1
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rules_mod, "find_augment_one", augment_one)
        mp.setattr(rules_mod, "find_augment_two", augment_two)
        mp.setattr(rules_mod, "find_revertex", revertex)
        mp.setattr(rules_mod, "find_splittable", splittable)
        mp.setattr(rules_mod, "find_exclusive_k4", exclusive_k4)
        kernelize(Instance(g, 10**6, Variant.ETP))  # no k stops it early
    return calls


class TestResumedSwapPhase:
    """A run keeps the spanners and the neighbour masks from scan to scan;
    every finder must still answer what a call that keeps nothing
    answers."""

    @given(st.one_of(reshaped(graphs(max_n=10)), reshaped(glued_graphs())))
    @settings(max_examples=80, deadline=None)
    def test_kept_state_answers_as_a_fresh_scan(self, g):
        checked_run(g)

    def test_kept_state_answers_as_a_fresh_scan_on_swap_heavy_runs(self):
        for spec in SWAP_HEAVY[:2]:
            calls = checked_run(generate(spec))
            assert calls["find_augment_one"] > 20 and calls["find_revertex"] > 5

    @given(st.one_of(reshaped(graphs(max_n=10)), reshaped(glued_graphs())))
    @settings(max_examples=80, deadline=None)
    def test_kept_state_answers_as_a_fresh_scan_on_the_sets(self, g):
        with masks_never_fit():
            checked_run(g)

    def test_kept_state_answers_as_a_fresh_scan_on_swap_heavy_runs_on_the_sets(self):
        with masks_never_fit():
            for spec in SWAP_HEAVY[:2]:
                calls = checked_run(generate(spec))
                assert calls["find_augment_one"] > 20 and calls["find_revertex"] > 5

    @pytest.mark.parametrize("spec", [GenSpec("erdos_renyi", 1, n=30, p=0.2),
                                      GenSpec("erdos_renyi", 2, n=50, p=0.2)])
    def test_kept_state_follows_each_kind_of_change(self, spec):
        # In these runs a swap packs both free edges through which a vertex
        # spans a packed edge, and changes the packed status of a cross edge
        # of a vertex-sharing pair without changing the pair's six entries.
        checked_run(generate(spec))

    def test_spanners_are_built_once_per_packing(self, monkeypatch):
        """Once per graph state that reaches the swap phase, where a fresh
        greedy packing starts it, not once per swap."""
        import trikernel.rules as rules_mod
        calls = Counter()
        for name in ("_strict_spanners", "greedy_maximal_packing"):
            def counted(*args, name=name, real=getattr(rules_mod, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(rules_mod, name, counted)
        out = kernelize(Instance(generate(SWAP_HEAVY[0]), 10**6, Variant.ETP))
        swaps = sum(out.counters[rule] for rule in SWAP_RULES)
        assert swaps >= 20
        assert calls["_strict_spanners"] == calls["greedy_maximal_packing"] < swaps

    def test_a_run_builds_its_view_once(self, monkeypatch):
        """A run changes its working graph only through mutators that keep
        the neighbour view, so a k-free run builds it once, on its copy,
        over what its opening R2 sweep left: the caller's graph gets
        none."""
        import trikernel.graph as graph_mod
        builds = []

        class Counted(graph_mod.Masks):
            __slots__ = ()

            def __init__(self, adj, m):
                builds.append(len(adj))
                super().__init__(adj, m)

        monkeypatch.setattr(graph_mod, "Masks", Counted)
        for spec in SWAP_HEAVY:
            g = generate(spec)
            builds.clear()
            out = _in_fresh_thread(lambda: kernelize(Instance(g, 10**6, Variant.ETP)))
            assert out.verdict == "reduced", spec
            assert builds == [_first_view_size(g, out.trace)], spec
            assert g._masks is None

    @pytest.mark.parametrize("bad", ["outside", "shared-edge"])
    def test_a_bad_later_swap_is_refused(self, monkeypatch, bad):
        """A packing is checked in full at its first swap, and each later
        swap only where it changed S; an R6 finder that swaps correctly
        once and then breaks S, in the same graph state, is still caught."""
        import trikernel.rules as rules_mod
        real = rules_mod.find_augment_one
        calls = []

        def augment_one(g, s, spanners=None):
            if not calls:  # until the first swap
                found = real(g, s, spanners)
                if found is not None:
                    calls.append("real")
                return found
            # the next call: a swap leaves the graph as it was
            calls.append("bad")
            t = s.sorted_triangles()[0]
            if bad == "outside":
                return t, [(9990, 9991, 9992)]
            for t2 in s.sorted_triangles()[1:]:
                for a, b in triangle_edges(t2):
                    for w in sorted(g.adj[a] & g.adj[b]):
                        if w not in t2:
                            return t, [tuple(sorted((a, b, w)))]
            raise AssertionError("no triangle through a packed edge")

        monkeypatch.setattr(rules_mod, "find_augment_one", augment_one)
        match = "leave the graph" if bad == "outside" else "already packed"
        with pytest.raises(GraphError, match=match):
            kernelize(Instance(generate(SWAP_HEAVY[0]), 10**6, Variant.ETP))
        assert calls == ["real", "bad"]

    def test_r7_searches_fewer_pairs_than_it_walks(self, monkeypatch):
        """R7 searches a pair for a witness triple only when its free cross
        edges and spanner entries can make one, so its searches stay below
        the vertex-sharing pairs its scans walk (R8 walks pairs too, but
        searches none for a triple)."""
        import trikernel.rules as rules_mod
        real = {name: getattr(rules_mod, name) for name in (
            "find_augment_two", "_sharing_pairs", "_first_disjoint_triple")}
        calls = Counter()
        in_r7 = []

        def augment_two(*args):
            in_r7.append(True)
            try:
                return real["find_augment_two"](*args)
            finally:
                in_r7.pop()

        def walk(*args):
            for pair in real["_sharing_pairs"](*args):
                calls["walked"] += bool(in_r7)
                yield pair

        def search(*args):
            calls["searched"] += 1
            return real["_first_disjoint_triple"](*args)

        monkeypatch.setattr(rules_mod, "find_augment_two", augment_two)
        monkeypatch.setattr(rules_mod, "_sharing_pairs", walk)
        monkeypatch.setattr(rules_mod, "_first_disjoint_triple", search)
        kernelize(Instance(generate(SWAP_HEAVY[0]), 10**6, Variant.ETP))
        assert 0 < calls["searched"] < calls["walked"]


def _kernelize_frame_traces(exc: BaseException) -> list:
    """The ``trace`` local of every ``kernelize`` frame ``exc`` passed."""
    traces = []
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_name == "kernelize":
            traces.append(tb.tb_frame.f_locals.get("trace"))
        tb = tb.tb_next
    return traces


def _broken_augment_one(g, s, spanners=None):
    """An R6 finder whose swap puts triangles outside the graph."""
    return s.sorted_triangles()[0], [(90, 91, 92), (93, 94, 95)]


class TestPausedRuns:
    """``kernelize`` keeps one k-free run of the last graph per thread, for
    both problems; nothing a caller does may show through it."""

    def test_sweep_order_does_not_change_any_outcome(self):
        graphs = [generate(spec) for spec in corpus_specs(23, 30, "kernel")]
        order = [(i, k, variant) for i, g in enumerate(graphs)
                 for k in range(g.n + 1) for variant in VARIANTS]
        graph_major = _sweep_digest(graphs, order)
        random.Random(23).shuffle(order)
        assert _sweep_digest(graphs, order) == graph_major

    def test_mutating_an_outcome_changes_no_later_outcome(self):
        g = spanned_triangle(3)
        g.add_edge(5, 6)
        for u, v in complete_graph(5, offset=10).edges():
            g.add_edge(u, v)
        before = g.edges()
        # a kernel, an R5 yes, an R5 no and an R1 yes
        for k, variant in ((4, Variant.ETP), (1, Variant.ETP), (0, Variant.ETC),
                           (0, Variant.ETP)):
            first = kernelize(Instance(g, k, variant))
            expected = _summary(first)
            if first.instance is not None:
                first.instance.graph.add_edge(40, 41)
                first.instance.graph.remove_vertex(first.instance.graph.vertices()[0])
            if first.packing is not None:
                first.packing.add((50, 51, 52))
            if first.trace:
                with pytest.raises(AttributeError):
                    first.trace[0].removed_vertices.append(99)
            first.trace.clear()
            first.counters["R2"] = 99
            assert _summary(kernelize(Instance(g, k, variant))) == expected
        assert g.edges() == before

    def test_same_adjacency_other_next_id_is_another_graph(self):
        g = bowtie()
        assert kernelize(Instance(g, 2, Variant.ETP)).trace[0].split_minted == (5, 6)
        shifted = bowtie()
        shifted.add_vertex(20)
        shifted.remove_vertex(20)
        assert shifted.adj == g.adj and shifted.next_id == 21
        out = kernelize(Instance(shifted, 2, Variant.ETP))
        assert out.trace[0].split_minted == (21, 22)
        assert _summary(out) == _reference_summary(Instance(shifted, 2, Variant.ETP))

    def test_a_changed_input_graph_is_run_again(self):
        g = disjoint_triangles(2)
        assert kernelize(Instance(g, 2, Variant.ETP)).instance.graph.n == 6
        g.remove_edge(0, 1)
        out = kernelize(Instance(g, 2, Variant.ETP))
        assert out.instance.graph.n == 3
        assert _summary(out) == _reference_summary(Instance(g, 2, Variant.ETP))

    def test_an_invariant_failure_is_raised_again(self, monkeypatch):
        import trikernel.rules as rules_mod

        monkeypatch.setattr(rules_mod, "find_augment_one", _broken_augment_one)
        g = complete_graph(5)
        assert kernelize(Instance(g, 1, Variant.ETP)).verdict == "yes"
        for _ in range(2):
            with pytest.raises(GraphError, match="leave the graph"):
                kernelize(Instance(g, 4, Variant.ETP))
        assert kernelize(Instance(g, 1, Variant.ETP)).verdict == "yes"

    def test_a_failure_leaves_its_events_in_the_kernelize_frame(self, monkeypatch):
        """perfbench's ``_partial_trace`` recovers a failed run's events from
        the traceback frame of ``kernelize``, in its list local ``trace``."""
        import trikernel.rules as rules_mod

        g = complete_graph(5)
        g.add_edge(5, 6)  # in no triangle: R2 removes it first
        first = kernelize(Instance(g, 4, Variant.ETP)).trace[0]
        monkeypatch.setattr(rules_mod, "find_augment_one", _broken_augment_one)
        with pytest.raises(GraphError, match="leave the graph") as info:
            kernelize(Instance(g, 4, Variant.ETP))
        traces = _kernelize_frame_traces(info.value)
        assert len(traces) == 1 and isinstance(traces[0], list)
        assert [ev.to_json() for ev in traces[0]] == [first.to_json()]
        assert first.rule == "R2"

    def test_an_etc_failure_leaves_the_etc_events_in_the_kernelize_frame(
            self, monkeypatch):
        import trikernel.rules as rules_mod

        g = complete_graph(4)  # an exclusive K4: R3 removes it first
        for u, v in complete_graph(5, offset=10).edges():
            g.add_edge(u, v)
        assert [ev.k_delta for ev in kernelize(Instance(g, 9, Variant.ETP)).trace
                if ev.rule == "R3"] == [-1]
        monkeypatch.setattr(rules_mod, "find_augment_one", _broken_augment_one)
        with pytest.raises(GraphError, match="leave the graph") as info:
            kernelize(Instance(g, 9, Variant.ETC))
        traces = _kernelize_frame_traces(info.value)
        assert len(traces) == 1 and isinstance(traces[0], list)
        assert [(ev.rule, ev.k_delta) for ev in traces[0]] == [("R3", -2), ("R2", 0)]

    def test_both_problems_at_every_k_drive_one_run(self, monkeypatch):
        import trikernel.rules as rules_mod
        original = rules_mod.find_prunable
        g = generate(GenSpec("k4_gadgets", 5, count=3, noise=3))
        for u, v in complete_graph(5, offset=20).edges():
            g.add_edge(u, v)

        def sweep_calls(variants) -> int:
            calls = []

            def counted(graph):
                calls.append(graph.n)
                return original(graph)

            # a newly bound finder makes the kept run stale: the sweep starts afresh
            monkeypatch.setattr(rules_mod, "find_prunable", counted)
            for k in range(g.n + 1):
                for variant in variants:
                    kernelize(Instance(g, k, variant))
            return len(calls)

        alone = [sweep_calls((variant,)) for variant in VARIANTS]
        assert min(alone) > 0
        assert sweep_calls(VARIANTS) == max(alone)

    def test_a_sweep_builds_masks_once_and_never_on_the_input(self, monkeypatch):
        """Every k and both problems on one graph drive one run, which
        builds neighbour masks once, on its working copy, over what its
        opening R2 sweep left: the events keep them up to date, and the
        caller's graph gets none."""
        import trikernel.graph as graph_mod
        builds = []

        class Counted(graph_mod.Masks):
            __slots__ = ()

            def __init__(self, adj, m):
                builds.append(len(adj))
                super().__init__(adj, m)

        monkeypatch.setattr(graph_mod, "Masks", Counted)
        seen = set()
        for spec in corpus_specs(59, 10, "kernel"):
            g = generate(spec)
            builds.clear()
            # a thread of its own keeps no run of an equal graph
            traces = _in_fresh_thread(lambda: [
                kernelize(Instance(g, k, variant)).trace
                for k in range(g.n + 1) for variant in VARIANTS])
            seen |= {ev.rule for trace in traces for ev in trace}
            longest = max(traces, key=len)
            assert builds == [_first_view_size(g, longest)], spec
            assert g._masks is None, spec
        assert {"R2", "R3", "R4", "R8", "R9"} <= seen

    def test_a_rebound_finder_is_used_on_a_kept_graph(self, monkeypatch):
        import trikernel.rules as rules_mod
        g = spanned_triangle(2)
        g.add_edge(7, 8)
        assert [ev.rule for ev in kernelize(Instance(g, 3, Variant.ETP)).trace] \
            == ["R2", "R9"]
        calls = []

        def broken(graph):
            calls.append(graph.n)
            return None

        monkeypatch.setattr(rules_mod, "find_prunable", broken)
        out = kernelize(Instance(g, 3, Variant.ETP))
        assert calls and [ev.rule for ev in out.trace][0] != "R2"

    def test_threads_get_the_serial_outcomes(self):
        graphs = [generate(spec) for spec in corpus_specs(23, 16, "kernel")]
        calls = {i: [(k, variant) for k in range(g.n + 1) for variant in VARIANTS]
                 for i, g in enumerate(graphs)}
        serial = {(i, k, variant): _summary(kernelize(Instance(graphs[i], k, variant)))
                  for i in calls for k, variant in calls[i]}
        results: dict = {}
        barrier = threading.Barrier(4, timeout=60)

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            for i in calls:  # the same graph at the same time, k in other orders
                barrier.wait()
                for k, variant in rng.sample(calls[i], len(calls[i])):
                    try:
                        got = _summary(kernelize(Instance(graphs[i], k, variant)))
                    except Exception as exc:  # a thread must report, not die
                        got = repr(exc)
                    results.setdefault((i, k, variant), []).append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(results[call] == [serial[call]] * 4 for call in serial)


def _first_view_size(g: Graph, trace) -> int:
    """The vertex count a run's neighbour view is built over: Rule 2 reads
    only the adjacency sets, so a run that opens with an R2 sweep builds
    the view over what the sweep left, and any other run over ``g``."""
    if trace and trace[0].rule == "R2":
        return g.n - len(trace[0].removed_vertices)
    return g.n


def _in_fresh_thread(fn):
    """``fn()`` in a new thread, which keeps no run yet."""
    box = []
    t = threading.Thread(target=lambda: box.append(fn()))
    t.start()
    t.join(timeout=120)
    assert not t.is_alive() and len(box) == 1
    return box[0]


def _reference_json(trace) -> str:
    return json.dumps({"events": [ev.to_json() for ev in trace]}, indent=1)


_ids = st.integers(min_value=0, max_value=10**6)
_edges = st.tuples(_ids, _ids)
_events = st.builds(
    RuleEvent,
    rule=st.sampled_from(RULE_IDS),
    k_delta=st.integers(min_value=-40, max_value=40),
    removed_vertices=st.lists(_ids, max_size=4).map(tuple),
    removed_edges=st.lists(_edges, max_size=3).map(tuple),
    split_vertex=st.none() | _ids,
    split_part1=st.lists(_edges, max_size=3).map(tuple),
    split_part2=st.lists(_edges, max_size=3).map(tuple),
    split_minted=st.none() | _edges,
    quad=st.none() | st.tuples(_ids, _ids, _ids, _ids),
    crown_vertices=st.lists(_ids, max_size=3).map(tuple),
    head_edges=st.lists(_edges, max_size=3).map(tuple),
    crown_witness=st.lists(st.tuples(_ids, _edges), max_size=3).map(tuple),
    packing_removed=st.lists(st.tuples(_ids, _ids, _ids), max_size=3).map(tuple),
    packing_added=st.lists(st.tuples(_ids, _ids, _ids), max_size=3).map(tuple),
)


class TestTraceText:
    """``trace_to_json`` writes the bytes ``json.dumps(..., indent=1)`` writes,
    and its per-thread memo of the last trace's event texts never shows."""

    @given(st.lists(_events, max_size=6))
    @example([RuleEvent("R4", split_vertex=7, split_minted=None),
              RuleEvent("R9", k_delta=-12, crown_vertices=(105, 3), head_edges=((3, 44),)),
              RuleEvent("R6", packing_added=((1, 20, 300),)),
              RuleEvent("R7", packing_removed=((1, 20, 300),)),
              RuleEvent("R3", k_delta=-2, quad=(10, 11, 12, 13))])
    @example([])
    @settings(max_examples=150, deadline=None)
    def test_any_events_give_the_json_bytes(self, trace):
        assert trace_to_json(trace) == _reference_json(trace)

    def test_every_corpus_trace_gives_the_json_bytes_and_round_trips(self):
        rules = set()
        for spec in corpus_specs(11, 40, "small"):
            g = generate(spec)
            for k in range(g.n + 1):
                for variant in VARIANTS:
                    trace = kernelize(Instance(g, k, variant)).trace
                    text = trace_to_json(trace)
                    assert text == _reference_json(trace)
                    assert trace_from_json(text) == trace
                    rules.update(ev.rule for ev in trace)
        assert rules == set(RULE_IDS) - {"R1", "R5"}
        assert trace_to_json([]) == _reference_json([]) == '{\n "events": []\n}'

    def test_problems_and_graphs_in_turn_get_their_own_texts(self):
        gadgets = generate(GenSpec("k4_gadgets", 3, count=3, noise=2))
        other = spanned_triangle(3)
        other.add_edge(8, 9)
        etp_r3 = [ev for ev in kernelize(Instance(gadgets, gadgets.n, Variant.ETP)).trace
                  if ev.rule == "R3"]
        etc_r3 = [ev for ev in kernelize(Instance(gadgets, gadgets.n, Variant.ETC)).trace
                  if ev.rule == "R3"]
        assert etp_r3 and [ev.k_delta for ev in etp_r3] == [-1] * len(etp_r3)
        assert [ev.k_delta for ev in etc_r3] == [-2] * len(etp_r3)
        for k in range(gadgets.n + 1):
            for variant in (Variant.ETP, Variant.ETC, Variant.ETP):
                for g in (gadgets, other):
                    trace = kernelize(Instance(g, k, variant)).trace
                    assert trace_to_json(trace) == _reference_json(trace)

    def test_reused_ids_get_their_own_texts(self):
        ids, kept = [], RuleEvent("R2", removed_vertices=(0,))
        for i in range(2000):
            ev = RuleEvent("R2", k_delta=-(i % 3), removed_vertices=(i,))
            ids.append(id(ev))
            trace = [kept, ev] if i % 2 else [ev]
            assert trace_to_json(trace) == _reference_json(trace)
            if i % 7 == 0:
                kept = ev
        assert len(set(ids)) < len(ids)  # the test did reuse ids

    def test_a_repeated_trace_or_prefix_encodes_no_event_again(self, monkeypatch):
        import trikernel.rules as rules_mod
        original = rules_mod._event_text
        calls = []

        def counted(ev):
            calls.append(ev)
            return original(ev)

        monkeypatch.setattr(rules_mod, "_event_text", counted)
        g = generate(GenSpec("k4_gadgets", 4, count=3, noise=3))
        trace = [RuleEvent("R2", removed_vertices=(v,)) for v in range(3)]
        trace += kernelize(Instance(g, g.n, Variant.ETC)).trace
        for part, encoded in ((trace, len(trace)), (trace, 0), (trace[:4], 0),
                              (trace[:2], 0), (trace, len(trace) - 2)):
            calls.clear()
            assert trace_to_json(part) == _reference_json(part)
            assert len(calls) == encoded

    def test_threads_get_the_serial_bytes(self):
        traces = [kernelize(Instance(g, k, variant)).trace
                  for g in (generate(spec) for spec in corpus_specs(5, 6, "kernel"))
                  for k in range(0, g.n + 1, 3) for variant in VARIANTS]
        serial = [_reference_json(trace) for trace in traces]
        got: dict = {}
        rounds = 10

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(rounds):
                for i in rng.sample(range(len(traces)), len(traces)):
                    try:
                        text = trace_to_json(traces[i])
                    except Exception as exc:  # a thread must report, not die
                        text = repr(exc)
                    got.setdefault(i, []).append(text)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert got == {i: [text] * rounds * 6 for i, text in enumerate(serial)}


def _ints_written(value) -> int:
    """How many ints the JSON value of ``value`` (an event or a part) holds."""
    if isinstance(value, RuleEvent):
        value = value.to_json()
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return sum(map(_ints_written, value))
    return isinstance(value, int)


class TestTraceTemplates:
    """Only an event of at most ``_KEPT_INTS`` ints keeps its template, a
    longer one is written the same, and a kept template is as small as the
    ``trace_to_json`` docstring says."""

    def _event(self, field: str, n: int) -> RuleEvent:
        ids = iter(range(10**6, 10**6 + 3 * n))
        lists = {
            "removed_vertices": lambda: tuple(islice(ids, n)),
            "removed_edges": lambda: tuple(zip(islice(ids, n), islice(ids, n))),
            "head_edges": lambda: tuple(zip(islice(ids, n), islice(ids, n))),
            "crown_witness": lambda: tuple((c, (c + 1, c + 2)) for c in islice(ids, n)),
            "packing_added": lambda: tuple((c, c + 1, c + 2) for c in islice(ids, n)),
            "split_part1": lambda: tuple(zip(islice(ids, n), islice(ids, n))),
        }
        extra = {"crown_witness": {"crown_vertices": (1,)},
                 "head_edges": {"crown_vertices": (1,)},
                 "split_part1": {"split_vertex": 5}}.get(field, {})
        return RuleEvent("R9", k_delta=-3, **{field: lists[field]()}, **extra)

    @pytest.mark.parametrize("field", ["removed_vertices", "removed_edges", "head_edges",
                                       "crown_witness", "packing_added", "split_part1"])
    def test_long_events_give_the_json_bytes_and_keep_no_template(self, field):
        import trikernel.rules as rules_mod
        for n in (1, 2, 15, 20, 21, 22, 31, 32, 33, 62, 63, 64, 65, 700):
            ev = self._event(field, n)
            rules_mod._event_template.cache_clear()
            assert trace_to_json([ev]) == _reference_json([ev])
            kept = rules_mod._event_template.cache_info().currsize
            assert kept == (_ints_written(ev) <= rules_mod._KEPT_INTS), (field, n)

    def test_a_kept_template_is_under_2_kb(self):
        import trikernel.rules as rules_mod
        full = ("R9", 0, 0, (0, 0, 0), 0, (0, 0, 0), (0, 0))
        assert len(rules_mod._build_template(full)) <= 267
        spare = rules_mod._KEPT_INTS - 1  # k_delta is one of the ints
        for shape in (("R2", spare, 0, None, None, None, None),
                      ("R2", 0, spare // 2, None, None, None, None),
                      ("R4", 0, 0, (spare // 2, 0, 0), None, None, None),
                      ("R9", 0, 0, None, None, (0, spare // 2, 0), None),
                      ("R9", 0, 0, None, None, (0, 0, spare // 3), None),
                      ("R6", 0, 0, None, None, None, (spare // 3, 0))):
            template = rules_mod._build_template(shape)
            ints = template.count("%d")
            assert ints <= rules_mod._KEPT_INTS
            assert len(template) <= 267 + 21 * (ints - 1) < 2048, shape


class TestLiftSolution:
    def test_k4_lifts_one_triangle(self):
        g = complete_graph(4)
        out = kernelize(Instance(g, 1, Variant.ETP))
        assert out.verdict == "yes"
        witness = lift_solution(out.trace, [], Variant.ETP)
        assert witness == [(0, 1, 2)]
        assert is_valid_packing_solution(g, witness, 1)

    def test_crown_event_adds_head_edges_for_covering(self):
        g = spanned_triangle(2)
        out = kernelize(Instance(g, 1, Variant.ETC))
        assert out.verdict == "yes"
        witness = lift_solution(out.trace, [], Variant.ETC)
        assert witness == [(0, 1)]
        assert is_valid_cover_solution(g, witness, 1)

    def test_split_events_rename_back(self):
        g = bowtie()
        out = kernelize(Instance(g, 2, Variant.ETP))
        assert out.verdict == "reduced"
        res = solve_etp_exact(out.instance.graph)
        witness = lift_solution(out.trace, res.witness, Variant.ETP)
        assert is_valid_packing_solution(g, witness, 2)
        assert all(v in g.vertex_set() for t in witness for v in t)

    def test_random_corpus_lifts_validate(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(4, 10)
            g = Graph()
            for v in range(n):
                g.add_vertex(v)
            for u, v in combinations(range(n), 2):
                if rng.random() < 0.4:
                    g.add_edge(u, v)
            etp = solve_etp_exact(g, budget=False).optimum
            etc = solve_etc_exact(g, budget=False).optimum
            for variant, opt in ((Variant.ETP, etp), (Variant.ETC, etc)):
                k = opt  # the tight yes-instance
                out = kernelize(Instance(g, k, variant))
                answer, base = finish(out, variant)
                if not answer:
                    raise AssertionError("equivalence broken")
                witness = lift_solution(out.trace, base, variant)
                if variant is Variant.ETP:
                    assert is_valid_packing_solution(g, witness, k)
                else:
                    assert is_valid_cover_solution(g, witness, k)


def lift_per_event(trace, reduced_solution, variant: Variant) -> list:
    """Lifting as a backward walk over the trace that renames the whole
    solution at every split: the reference ``lift_solution`` must equal."""
    etp = variant is Variant.ETP
    key = triangle_key if etp else edge_key
    solution = {key(*item) for item in reduced_solution}
    for ev in reversed(trace):
        if ev.rule == "R9":
            solution.update([triangle_key(c, *e) for c, e in ev.crown_witness]
                            if etp else ev.head_edges)
        elif ev.rule == "R3":
            a, b, c, d = ev.quad
            solution.update([triangle_key(a, b, c)] if etp
                            else [edge_key(a, b), edge_key(c, d)])
        elif ev.rule == "R4":
            v, minted = ev.split_vertex, set(ev.split_minted)
            solution = {key(*(v if x in minted else x for x in item))
                        for item in solution}
    return sorted(solution)


class TestLiftEqualsPerEventWalk:
    """``lift_solution`` composes the splits into one vertex map; on real
    traces it returns what renaming at every event returns."""

    @staticmethod
    def check(graphs, ks, rng, subsets: int, share: float) -> tuple[int, int]:
        """Compare on ``subsets`` seeded samples, each holding about
        ``share`` of the kernel's triangles (packing) or edges (covering),
        per reduced outcome; the counts of comparisons and of splits."""
        lifted = splits = 0
        for g in graphs:
            for k in ks(g):
                for variant in VARIANTS:
                    out = kernelize(Instance(g, k, variant))
                    if out.instance is None:
                        continue
                    kernel = out.instance.graph
                    splits += sum(ev.rule == "R4" for ev in out.trace)
                    items = (enumerate_triangles(kernel) if variant is Variant.ETP
                             else kernel.edges())
                    for _ in range(subsets):
                        chosen = [x for x in items if rng.random() < share]
                        assert lift_solution(out.trace, chosen, variant) == \
                            lift_per_event(out.trace, chosen, variant)
                        lifted += 1
        return lifted, splits

    def test_crossover_traces(self):
        """Hundreds of splits (787 in the ER run) and crown events."""
        graphs = [generate(spec) for spec in CROSSOVER]
        lifted, splits = self.check(graphs, lambda g: (g.n,), random.Random(3), 2, 0.1)
        assert lifted == 12 and splits > 2000

    def test_kernel_corpus_traces(self):
        """Every event rule, exclusive K4s (R3) among them."""
        graphs = [generate(spec) for spec in corpus_specs(59, 60, "kernel")]
        assert any(ev.rule == "R3" for g in graphs
                   for ev in kernelize(Instance(g, g.n, Variant.ETC)).trace)
        lifted, splits = self.check(graphs, lambda g: sorted({1, g.n // 2, g.n}),
                                    random.Random(4), 4, 0.5)
        assert lifted > 400 and splits > 0


class TestLiftRejectsMalformedItems:
    """A reduced solution item that is not a triangle (packing) or an edge
    (covering) of non-negative integer ids is a ``GraphError`` naming it."""

    @staticmethod
    def trace():
        out = kernelize(Instance(bowtie(), 2, Variant.ETP))
        assert any(ev.rule == "R4" for ev in out.trace)
        return out.trace

    def assert_rejected(self, variant: Variant, item) -> None:
        with pytest.raises(GraphError, match=re.escape(repr(item))):
            lift_solution(self.trace(), [(0, 1, 2)[:3 if variant is Variant.ETP else 2],
                                         item], variant)

    def test_wrong_arity(self):
        self.assert_rejected(Variant.ETP, (0, 1))
        self.assert_rejected(Variant.ETP, (0, 1, 2, 3))
        self.assert_rejected(Variant.ETC, (0, 1, 2))
        self.assert_rejected(Variant.ETC, 7)

    def test_non_integer_id(self):
        self.assert_rejected(Variant.ETP, (0, "1", 2))
        self.assert_rejected(Variant.ETP, (0, 1.0, 2))
        self.assert_rejected(Variant.ETC, (None, 1))

    def test_negative_id(self):
        self.assert_rejected(Variant.ETP, (-1, 1, 2))
        self.assert_rejected(Variant.ETC, (0, -3))


class TestSolutionValidators:
    @pytest.mark.parametrize("validator, witness, k, expected", [
        (is_valid_packing_solution, lambda: [(1, 1, 2)], 1, False),
        (is_valid_packing_solution, lambda: [(0, 1)], 1, False),
        (is_valid_packing_solution, lambda: [(2, 0, 1)], 1, True),
        (is_valid_packing_solution, lambda: (t for t in [(0, 1, 2)]), 1, True),
        (is_valid_cover_solution, lambda: [(1, 1)], 1, False),
        (is_valid_cover_solution, lambda: [(0, 1, 2)], 1, False),
        (is_valid_cover_solution, lambda: [(1, 0), (0, 1)], 2, False),
        (is_valid_cover_solution, lambda: (e for e in [(0, 1)]), 1, True),
    ], ids=["degenerate-triangle", "short-triangle", "unsorted-triangle",
            "triangle-generator", "self-loop", "long-edge", "repeated-edge",
            "edge-generator"])
    def test_malformed_witness_is_false_and_read_once(self, validator, witness,
                                                      k, expected):
        assert validator(complete_graph(3), witness(), k) is expected
