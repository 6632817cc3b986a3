"""Discharging audit: machine-checks the 3k vertex bound on reduced instances.

Total charge 3 per packed triangle enters the system on labeled edges and bad
triangles, then flows in four fixed steps: (1) edges and bad triangles pay
their endpoints, (2) surpluses level out inside each triangle component,
(3) a specific two-triangle pattern pays the free spanner and the component's
zero vertex, (4) still-charged labeled edges pay the remaining zero vertices.
The audit asserts the structural lemmas the flow relies on and finally that
every vertex holds at least 1, which pins the vertex count at 3|S| and hence
3k.  Nothing here mutates the instance; failures are data, not exceptions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graph import Edge, Graph, Triangle, spanned_edges
from .packing import (
    ComponentIndex,
    TriangleClassification,
    TrianglePacking,
    classify_triangles,
    labeled_edges,
    triangle_components,
)


@dataclass
class ChargeState:
    graph: Graph
    packing: TrianglePacking
    classification: TriangleClassification
    components: ComponentIndex
    vertex_value: dict[int, int]
    edge_value: dict[Edge, int]
    triangle_value: dict[Triangle, int]
    spanner_violations: list[dict] = field(default_factory=list)

    def total(self) -> int:
        return (sum(self.vertex_value.values()) + sum(self.edge_value.values())
                + sum(self.triangle_value.values()))


def init_charges(g: Graph, s: TrianglePacking,
                 classification: TriangleClassification) -> ChargeState:
    """Value 3 on every labeled edge and every bad triangle, 0 elsewhere."""
    return ChargeState(
        graph=g,
        packing=s,
        classification=classification,
        components=triangle_components(s),
        vertex_value={v: 0 for v in g.adj},
        edge_value={e: 3 for e in sorted(classification.labeled)},
        triangle_value={t: 3 for t in sorted(classification.bad)},
    )


def step1(cs: ChargeState) -> ChargeState:
    """Labeled edges pay 1 to each endpoint; bad triangles 1 to each vertex."""
    for e in sorted(cs.edge_value):
        cs.edge_value[e] -= 2
        for v in e:
            cs.vertex_value[v] += 1
    for t in sorted(cs.triangle_value):
        cs.triangle_value[t] -= 3
        for v in t:
            cs.vertex_value[v] += 1
    return cs


def step2(cs: ChargeState) -> ChargeState:
    """Level surpluses inside each triangle component.

    Repeatedly move 1 from a vertex holding at least 2 to a vertex holding 0
    in the same component; recipients from V1 first, ties by smallest id.
    """
    value = cs.vertex_value
    v1 = cs.classification.v1
    for cid in sorted(cs.components.members):
        members = cs.components.members[cid]
        while True:
            donors = [v for v in members if value[v] >= 2]
            zeros = [v for v in members if value[v] == 0]
            if not donors or not zeros:
                break
            preferred = [z for z in zeros if z in v1]
            recipient = min(preferred) if preferred else min(zeros)
            value[min(donors)] -= 1
            value[recipient] += 1
    return cs


def check_component_zeros(cs: ChargeState) -> list[dict]:
    """Per-component zero-vertex properties, valid right after step 2:
    at most one zero vertex anywhere, none where a bad triangle lives, and
    only V2 vertices where a pretty-good triangle lives."""
    cls = cs.classification
    bad_vertices = {v for t in cls.bad for v in t}
    pretty_vertices = {v for t in cls.pretty_good for v in t}
    violations = []
    for cid, members in cs.components.members.items():
        zeros = [v for v in members if cs.vertex_value[v] == 0]
        if len(zeros) > 1:
            violations.append({"component": cid, "zeros": zeros,
                               "reason": "more than one zero vertex"})
        elif zeros and any(v in bad_vertices for v in members):
            violations.append({"component": cid, "zeros": zeros,
                               "reason": "component holds a bad triangle"})
        elif zeros and any(v in pretty_vertices for v in members) \
                and zeros[0] not in cls.v2:
            violations.append({"component": cid, "zeros": zeros,
                               "reason": "zero vertex outside V2"})
    return violations


def _step3_patterns(cs: ChargeState) -> list[dict]:
    """Pairs of pretty-good triangles sharing a vertex, both labeled edges at
    the shared vertex, and an edge joining their far corners."""
    g = cs.graph
    cls = cs.classification
    at_vertex: dict[int, list[Triangle]] = {}
    for t in cls.pretty_good:
        for v in t:
            at_vertex.setdefault(v, []).append(t)
    patterns = []
    for v in sorted(at_vertex):
        group = []
        for t in sorted(at_vertex[v]):
            label = cls.labeled_edge_of(t)
            if label is not None and v in label:
                group.append((t, label))
        for i, (ta, la) in enumerate(group):
            for tb, lb in group[i + 1:]:
                far_a = next(x for x in ta if x not in la)
                far_b = next(x for x in tb if x not in lb)
                if far_a != far_b and g.has_edge(far_a, far_b):
                    patterns.append({"shared": v, "first": ta, "second": tb,
                                     "label_first": la, "label_second": lb})
    return patterns


def step3(cs: ChargeState) -> ChargeState:
    """Pattern payouts: the second label pays its unique free spanner, the
    first label pays the component's zero vertex; each edge pays only while
    it still holds its 1."""
    g = cs.graph
    free = g.vertex_set() - cs.packing.vertex_set()
    value = cs.vertex_value
    for pat in _step3_patterns(cs):
        la = pat["label_first"]
        lb = pat["label_second"]
        spanners = sorted(g.common_neighbors(*lb) & free)
        if len(spanners) != 1:
            cs.spanner_violations.append(
                {"pattern": pat, "free_spanners": spanners})
        if spanners and cs.edge_value[lb] >= 1:
            cs.edge_value[lb] -= 1
            value[spanners[0]] += 1
        component = cs.components.component_vertices(pat["shared"])
        zeros = [z for z in component if value[z] == 0]
        if zeros and cs.edge_value[la] >= 1:
            cs.edge_value[la] -= 1
            value[min(zeros)] += 1
    return cs


@dataclass
class AuditCheck:
    name: str
    passed: bool
    witness: object = None


@dataclass
class AuditReport:
    checks: list[AuditCheck]
    counters: dict[str, int]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AuditCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> str:
        return json.dumps({
            "passed": self.passed,
            "counters": self.counters,
            "checks": [{"name": c.name, "passed": c.passed,
                        **({"witness": c.witness} if c.witness is not None else {})}
                       for c in self.checks],
        }, indent=1, default=str)


def step4_and_report(cs: ChargeState, k: int, conservation_ok: bool,
                     lemma7_violations: list) -> AuditReport:
    """Final payout plus every lemma check, bundled into a report.

    ``lemma7_violations`` is :func:`check_component_zeros` taken right after
    step 2, the only point where its check is valid.
    """
    g, s, cls = cs.graph, cs.packing, cs.classification
    checks: list[AuditCheck] = []

    def add(name: str, passed: bool, witness: object = None) -> None:
        checks.append(AuditCheck(name, passed, None if passed else witness))

    add("lemma5_single_label",
        not cls.multi_label_violations and len(cls.labeled) == cls.k1 + cls.k2,
        {"multi_label": cls.multi_label_violations,
         "labeled": len(cls.labeled), "good": cls.k1 + cls.k2})

    add("lemma7_component_zeros", not lemma7_violations, lemma7_violations)

    v2_zeros = sorted(v for v in cls.v2 if cs.vertex_value[v] == 0)
    add("lemma8_v2_values", not v2_zeros and not cs.spanner_violations,
        {"v2_zeros": v2_zeros, "spanner_violations": cs.spanner_violations})

    free = g.vertex_set() - s.vertex_set()
    f_zero = sorted(v for v in free if cs.vertex_value[v] == 0)
    v1_zero = sorted(v for v in cls.v1 if cs.vertex_value[v] == 0)
    live_labels = {e for e, val in cs.edge_value.items() if val == 1}
    needy_set = set(f_zero) | set(v1_zero)
    needy = sorted(needy_set)

    independent = [(a, b) for a in needy for b in g.adj[a]
                   if b in needy_set and a < b]
    add("lemma9_independent", not independent, independent)

    f_bad_spans = {v: es for v in f_zero
                   if (es := [e for e in spanned_edges(g, v)
                              if e not in live_labels])}
    add("lemma10_free_spans", not f_bad_spans, f_bad_spans)

    v1_bad_spans = {v: es for v in v1_zero
                    if (es := [e for e in spanned_edges(g, v)
                               if e not in live_labels])}
    add("lemma11_v1_spans", not v1_bad_spans, v1_bad_spans)

    add("lemma12_deficiency", len(needy) <= len(live_labels),
        {"zero_vertices": needy, "live_labels": sorted(live_labels)})

    # Step 4: each remaining zero vertex takes 1 from the first live label.
    pool = sorted(live_labels)
    for v in needy:
        if not pool:
            break
        cs.edge_value[pool.pop(0)] -= 1
        cs.vertex_value[v] += 1

    n = g.n
    size = len(s)
    min_value = min(cs.vertex_value.values()) if cs.vertex_value else 1
    total = cs.total()
    add("charge_conservation", conservation_ok and total == 3 * size,
        {"total": total, "packing": size, "steps_conserved": conservation_ok})
    add("final_bound",
        min_value >= 1 and n <= 3 * size and n <= 3 * k,
        {"n": n, "packing": size, "min_value": min_value, "k": k})

    counters = {
        "n": n, "m": g.m, "packing": size,
        "k1": cls.k1, "k2": cls.k2, "k3": cls.k3,
        "labeled": len(cls.labeled), "free": len(free), "k": k,
    }
    return AuditReport(checks, counters)


def audit_instance(g: Graph, s: TrianglePacking, k: int) -> AuditReport:
    """Run the whole discharging pipeline on a (presumed reduced) instance."""
    cls = classify_triangles(g, s, labeled_edges(g, s))
    cs = init_charges(g, s, cls)
    start = cs.total()
    step1(cs)
    conserved = cs.total() == start
    step2(cs)
    conserved = conserved and cs.total() == start
    lemma7 = check_component_zeros(cs)
    step3(cs)
    conserved = conserved and cs.total() == start
    return step4_and_report(cs, k, conserved, lemma7)
