from trikernel.audit import (
    ChargeState,
    audit_instance,
    check_component_zeros,
    init_charges,
    step1,
    step2,
    step3,
    step4_and_report,
)
from trikernel.graph import Graph, Instance, Variant
from trikernel.packing import (
    TrianglePacking,
    classify_triangles,
    greedy_maximal_packing,
    labeled_edges,
)
from trikernel.rules import kernelize

from conftest import complete_graph, disjoint_triangles, spanned_triangle


def charge_state_for(g: Graph) -> ChargeState:
    s = greedy_maximal_packing(g)
    cls = classify_triangles(g, s, labeled_edges(g, s))
    return init_charges(g, s, cls)


class TestInitAndStep1:
    def test_single_bad_triangle(self):
        cs = charge_state_for(complete_graph(3))
        assert cs.triangle_value == {(0, 1, 2): 3}
        assert cs.total() == 3
        step1(cs)
        assert cs.vertex_value == {0: 1, 1: 1, 2: 1}
        assert cs.total() == 3

    def test_excellent_triangle_charges_the_label(self):
        cs = charge_state_for(spanned_triangle(1))
        assert cs.edge_value == {(0, 1): 3}
        assert cs.triangle_value == {}
        assert cs.total() == 3
        step1(cs)
        assert cs.edge_value[(0, 1)] == 1
        assert cs.vertex_value[0] == 1 and cs.vertex_value[1] == 1
        assert cs.vertex_value[2] == 0 and cs.vertex_value[3] == 0

    def test_two_bad_triangles_total_six(self):
        cs = charge_state_for(disjoint_triangles(2))
        assert cs.total() == 6

    def test_step1_noop_without_labels_or_bad(self):
        g = spanned_triangle(1)
        s = greedy_maximal_packing(g)
        cls = classify_triangles(g, s, set())  # pretend no labels
        cs = init_charges(g, s, cls)
        # classification saw no labels: the triangle counts as bad
        assert cs.edge_value == {}


class TestStep2:
    def test_levels_surplus_to_zero_vertex(self):
        cs = charge_state_for(complete_graph(3))
        cs.vertex_value = {0: 2, 1: 0, 2: 1}
        step2(cs)
        assert cs.vertex_value == {0: 1, 1: 1, 2: 1}

    def test_bad_triangle_component_has_no_zero(self):
        cs = charge_state_for(complete_graph(3))
        step1(cs)
        step2(cs)
        assert min(cs.vertex_value.values()) == 1
        assert check_component_zeros(cs) == []

    def test_one_one_zero_stays(self):
        # labeled edge pays its endpoints; the apex has no donor and stays 0,
        # and that single zero is fine per the component properties
        cs = charge_state_for(spanned_triangle(1))
        step1(cs)
        step2(cs)
        assert cs.vertex_value == {0: 1, 1: 1, 2: 0, 3: 0}
        assert check_component_zeros(cs) == []

    def test_v1_has_priority(self):
        # two excellent triangles sharing vertex 2; apex 2 is the V1 member
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4),
                              (5, 0), (5, 1), (6, 3), (6, 4)])
        s = greedy_maximal_packing(g)
        assert s.sorted_triangles() == [(0, 1, 2), (2, 3, 4)]
        cls = classify_triangles(g, s, labeled_edges(g, s))
        assert cls.v1 == {2}
        cs = init_charges(g, s, cls)
        cs.vertex_value.update({0: 2, 1: 1, 2: 0, 3: 1, 4: 0})
        step2(cs)
        assert cs.vertex_value[2] == 1  # V1 vertex filled first
        assert cs.vertex_value[4] == 0  # the non-V1 zero is the one left over


class TestStep3:
    def _pattern_graph(self) -> Graph:
        # two pretty-good triangles (1,2,3), (2,4,5) sharing 2; labels (1,2)
        # spanned by 6 and (2,4) spanned by 7; far corners joined by (3,5)
        return Graph.from_edges([
            (1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (4, 5),
            (6, 1), (6, 2), (7, 2), (7, 4), (3, 5)])

    def test_pattern_pays_spanner_and_zero_vertex(self):
        g = self._pattern_graph()
        s = greedy_maximal_packing(g)
        cls = classify_triangles(g, s, labeled_edges(g, s))
        assert sorted(cls.pretty_good) == [(1, 2, 3), (2, 4, 5)]
        cs = init_charges(g, s, cls)
        step1(cs)
        step2(cs)
        assert cs.vertex_value[5] == 0  # the component's one zero vertex
        step3(cs)
        assert cs.vertex_value[7] == 1      # unique free spanner of (2,4)
        assert cs.vertex_value[5] == 1      # zero vertex paid from (1,2)
        assert cs.edge_value[(2, 4)] == 0
        assert cs.edge_value[(1, 2)] == 0
        assert not cs.spanner_violations

    def test_no_pattern_is_noop(self):
        g = spanned_triangle(1)
        s = greedy_maximal_packing(g)
        cls = classify_triangles(g, s, labeled_edges(g, s))
        cs = init_charges(g, s, cls)
        step1(cs)
        step2(cs)
        before = dict(cs.vertex_value)
        step3(cs)
        assert cs.vertex_value == before

    def test_two_spanners_is_a_violation(self):
        g = self._pattern_graph()
        g.add_edge(8, 2)
        g.add_edge(8, 4)  # second free spanner of (2,4)
        s = greedy_maximal_packing(g)
        cls = classify_triangles(g, s, labeled_edges(g, s))
        cs = init_charges(g, s, cls)
        step1(cs)
        step2(cs)
        step3(cs)
        assert cs.spanner_violations


class TestFullAudit:
    def test_two_disjoint_triangles_hit_the_bound(self):
        g = disjoint_triangles(2)
        out = kernelize(Instance(g, 2, Variant.ETP))
        assert out.verdict == "reduced"
        report = audit_instance(out.instance.graph, out.packing, k=out.instance.k)
        assert report.passed, report.failures()
        assert report.counters["n"] == 6 == 3 * report.counters["packing"]

    def test_single_triangle(self):
        g = complete_graph(3)
        out = kernelize(Instance(g, 1, Variant.ETC))
        assert out.verdict == "reduced"
        report = audit_instance(out.instance.graph, out.packing, k=1)
        assert report.passed
        assert report.counters["n"] == 3 and report.counters["packing"] == 1

    def test_unreduced_deficiency_is_flagged_not_raised(self):
        # a crown the rules would remove: audit is advisory and fails lemma 12
        g = spanned_triangle(2)
        s = greedy_maximal_packing(g)
        report = audit_instance(g, s, k=2)
        assert not report.passed
        assert "lemma12_deficiency" in {c.name for c in report.failures()}

    def test_report_serializes(self):
        g = complete_graph(3)
        report = audit_instance(g, greedy_maximal_packing(g), k=1)
        text = report.to_json()
        assert '"passed": true' in text

    def test_reduced_corpus_sample_all_pass(self):
        from trikernel.gen import corpus_specs, generate
        for spec in corpus_specs(23, 60, "small"):
            g = generate(spec)
            for k in (1, 2, g.n // 2, g.n):
                for variant in (Variant.ETP, Variant.ETC):
                    out = kernelize(Instance(g, k, variant))
                    if out.verdict != "reduced":
                        continue
                    red = out.instance
                    report = audit_instance(red.graph, out.packing, k=red.k)
                    assert report.passed, (spec, k, variant, report.failures())
                    assert red.graph.n <= 3 * len(out.packing)
