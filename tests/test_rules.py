import hashlib
import json
import random
import sys
import threading
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trikernel.gen import corpus_specs, generate
from trikernel.graph import (
    Graph,
    GraphError,
    Instance,
    Variant,
    covers,
    enumerate_triangles,
    triangle_edges,
)
from trikernel.oracle import solve_etc_exact, solve_etp_exact
from trikernel.packing import TrianglePacking, greedy_maximal_packing, labeled_edges
from trikernel.rules import (
    RULE_IDS,
    SWAP_RULES,
    apply_event,
    find_augment_one,
    find_augment_two,
    find_crown,
    find_exclusive_k4,
    find_prunable,
    find_revertex,
    find_splittable,
    finish,
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
    spanned_triangle,
)

VARIANTS = (Variant.ETP, Variant.ETC)


def apply_once(inst: Instance, rule: str, s: TrianglePacking | None = None):
    """One application of ``rule`` on copies: the new instance (graph rules)
    or the rewritten packing (R6-R8), or None when the rule does not apply."""
    ev = rule_event(rule, inst.graph, inst.variant, s)
    if ev is None:
        return None
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
            ev = ev or rule_event(rule, g, variant)
        if ev is None:
            if s is None:
                s = grow(TrianglePacking())
            verdict = threshold_verdict(len(s), k, variant)
            if verdict is not None:
                counters["R5"] += 1
                return verdict, "R5", trace, counters, None, s
            for rule in ("R6", "R7", "R8", "R9"):
                ev = ev or rule_event(rule, g, variant, s)
            if ev is None:
                return ("reduced", None, trace, counters,
                        (k, g.edges(), g.vertices()), s)
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


class TestSplitLemma:
    """What the resuming driver relies on after an R4 split at ``v``."""

    @staticmethod
    def check_split_chain(g: Graph) -> int:
        # exhaust R2/R3, then follow every split the driver would make
        while True:
            ev = rule_event("R2", g, Variant.ETP) or rule_event("R3", g, Variant.ETP)
            if ev is None:
                break
            apply_event(g, ev)
        splits = 0
        while (ev := rule_event("R4", g, Variant.ETP)) is not None:
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

    def test_disjoint_pairs_without_attachments_absent(self):
        g = disjoint_triangles(2)
        assert find_augment_two(g, greedy_maximal_packing(g)) is None


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
    ], ids=["short-edge", "loop-edge", "negative-vertex", "string-vertex",
            "bool-vertex", "float-k-delta", "short-quad", "short-triangle",
            "one-minted", "flat-witness", "crown-not-object"])
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


class TestPausedRuns:
    """``kernelize`` keeps the k-free runs of the last graph per thread;
    nothing a caller does may show through them."""

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

        def broken(g, s, spanners=None):
            return s.sorted_triangles()[0], [(90, 91, 92), (93, 94, 95)]

        monkeypatch.setattr(rules_mod, "find_augment_one", broken)
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

        def broken(g, s, spanners=None):
            return s.sorted_triangles()[0], [(90, 91, 92), (93, 94, 95)]

        g = complete_graph(5)
        g.add_edge(5, 6)  # in no triangle: R2 removes it first
        first = kernelize(Instance(g, 4, Variant.ETP)).trace[0]
        monkeypatch.setattr(rules_mod, "find_augment_one", broken)
        with pytest.raises(GraphError, match="leave the graph") as info:
            kernelize(Instance(g, 4, Variant.ETP))
        traces = []
        tb = info.value.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code.co_name == "kernelize":
                traces.append(tb.tb_frame.f_locals.get("trace"))
            tb = tb.tb_next
        assert len(traces) == 1 and isinstance(traces[0], list)
        assert [ev.to_json() for ev in traces[0]] == [first.to_json()]
        assert first.rule == "R2"

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
                answer, base = finish(out, variant, budget=False)
                if not answer:
                    raise AssertionError("equivalence broken")
                witness = lift_solution(out.trace, base, variant)
                if variant is Variant.ETP:
                    assert is_valid_packing_solution(g, witness, k)
                else:
                    assert is_valid_cover_solution(g, witness, k)


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
