"""The nine reduction rules, the fixpoint driver, traces, and lifting.

Rules are applied in strict priority order R1 < R2 < ... < R9: each event
is the first one a scan restarted from R1 would find.  Rules 1-4 look only at
the graph, Rule 5 compares the working packing against ``k``, Rules 6-8
rewrite the packing without touching the graph, and Rule 9 shrinks the graph
through a fat-head crown.  The packing is rebuilt greedily whenever the graph
changes and is re-maximalized after every packing rewrite.

The driver resumes rather than restarts.  Suppose R2 and R3 found nothing
and R4 splits ``v``.  Every triangle through ``v`` has its two other vertices
in one component of ``G[N(v)]``, so the split maps each edge's common-
neighbour set one-to-one onto the new graph: no edge becomes triangle-free
(R2 stays clean), no exclusive K4 appears (R3 stays clean), and every other
vertex keeps the component structure of its neighbourhood, so no vertex
below ``v`` becomes splittable.  The next R4 scan therefore starts after
``v`` (the minted ids are the largest, so they are still scanned), and R2
and R3 rescan only after an R2, R3 or R9 event.  An R2 sweep deletes only
material in no triangle, so it leaves nothing for a second sweep: after it
the scan goes on with R3.  After a swap only the triangles through edges
the swap freed can join the packing, and re-maximalization tries just
those.

Only Rules 1 and 5 read ``k``, and they only end a run, so the runs on one
graph and variant at every ``k`` are prefixes of one k-free run.
:func:`kernelize` drives that run as a generator that pauses at each Rule 1
and Rule 5 test, and answers a ``k`` at the first test that ends its run.
Each thread keeps the runs of the last graph it was given, one per variant:
a reference to the caller's graph (a copy of the input is not kept; the
graph's mutation count shows that it is unchanged), the working graph and
packing where the run paused, its trace, and the recorded stop points with
the packings an R5 stop hands out.  A later call on an equal graph answers
from the recorded points or resumes the run; a call on another graph lets
the kept runs go first.  Outcomes are built from copies and events are
immutable, so no outcome shares mutable state with the kept runs or with
another outcome.

Rules 1 and 5 end the run with a verdict.  Every other application is a
:class:`RuleEvent`: :func:`rule_event` builds it from the rule's finder, and
:func:`apply_event` is the single mutator that performs it, on the graph
(R2-R4, R9) or on the working packing (R6-R8).  The driver and replay share
that mutator: :func:`replay_trace` is a fold of ``apply_event`` over the
original graph, so it reproduces the reduced graph exactly, and playing the
trace backwards lifts a solution of the reduced instance to the original
one.  :func:`finish` completes an outcome with the exact oracle.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .crown import (
    FatHeadCrown,
    build_span_bipartite,
    extract_crown,
    max_matching,
    verify_crown,
)
from .graph import (
    Edge,
    Graph,
    GraphError,
    Instance,
    Triangle,
    Variant,
    covers,
    edge_key,
    packs,
    triangle_edges,
    triangle_key,
)
from .oracle import decide
from .packing import TrianglePacking, greedy_maximal_packing, labeled_edges, remaximalize

RULE_IDS = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9")
SWAP_RULES = ("R6", "R7", "R8")

# The serialized fields each event rule cannot do without.
_EVENT_FIELDS = {
    "R2": (), "R3": ("quad", "removed_edges"), "R4": ("split",),
    "R6": ("packing_removed", "packing_added"),
    "R7": ("packing_removed", "packing_added"),
    "R8": ("packing_removed", "packing_added"), "R9": ("crown",),
}


class RuleEvent(NamedTuple):
    """One rule application; carries enough payload for replay and lifting.

    An event is immutable (a named tuple of tuples), so traces share it.
    """

    rule: str
    k_delta: int = 0
    removed_vertices: tuple[int, ...] = ()
    removed_edges: tuple[Edge, ...] = ()
    split_vertex: int | None = None
    split_part1: tuple[Edge, ...] = ()
    split_part2: tuple[Edge, ...] = ()
    split_minted: tuple[int, int] | None = None
    quad: tuple[int, int, int, int] | None = None
    crown_vertices: tuple[int, ...] = ()
    head_edges: tuple[Edge, ...] = ()
    crown_witness: tuple[tuple[int, Edge], ...] = ()
    packing_removed: tuple[Triangle, ...] = ()
    packing_added: tuple[Triangle, ...] = ()

    def to_json(self) -> dict:
        out: dict = {"rule": self.rule, "k_delta": self.k_delta}
        if self.removed_vertices:
            out["removed_vertices"] = list(self.removed_vertices)
        if self.removed_edges:
            out["removed_edges"] = [list(e) for e in self.removed_edges]
        if self.split_vertex is not None:
            out["split"] = {
                "vertex": self.split_vertex,
                "part1": [list(e) for e in self.split_part1],
                "part2": [list(e) for e in self.split_part2],
                "minted": list(self.split_minted or ()),
            }
        if self.quad is not None:
            out["quad"] = list(self.quad)
        if self.crown_vertices:
            out["crown"] = {
                "vertices": list(self.crown_vertices),
                "head": [list(e) for e in self.head_edges],
                "witness": [[c, list(e)] for c, e in self.crown_witness],
            }
        if self.packing_removed or self.packing_added:
            out["packing_removed"] = [list(t) for t in self.packing_removed]
            out["packing_added"] = [list(t) for t in self.packing_added]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "RuleEvent":
        if not isinstance(data, dict):
            raise ValueError("an event is a JSON object")
        rule = data.get("rule")
        if rule not in _EVENT_FIELDS:
            raise ValueError(f"unknown rule {rule!r}")
        missing = [f for f in _EVENT_FIELDS[rule] if f not in data]
        if missing:
            raise ValueError(f"{rule} event lacks {', '.join(missing)}")
        k_delta = data.get("k_delta", 0)
        if type(k_delta) is not int:
            raise ValueError(f"k_delta {k_delta!r} is not an integer")
        fields: dict = {
            "removed_vertices": tuple(_vertex(v)
                                      for v in _list(data, "removed_vertices", [])),
            "removed_edges": tuple(_ids(e, 2, "edge")
                                   for e in _list(data, "removed_edges", [])),
        }
        if "split" in data:
            split = _object(data["split"], "split")
            fields.update(
                split_vertex=_vertex(split["vertex"]),
                split_part1=tuple(_ids(e, 2, "edge") for e in _list(split, "part1")),
                split_part2=tuple(_ids(e, 2, "edge") for e in _list(split, "part2")),
                split_minted=_ids(split["minted"], 2, "minted pair"))
        if "quad" in data:
            fields["quad"] = _ids(data["quad"], 4, "quad")
        if "crown" in data:
            crowndata = _object(data["crown"], "crown")
            fields.update(
                crown_vertices=tuple(_vertex(v) for v in _list(crowndata, "vertices")),
                head_edges=tuple(_ids(e, 2, "edge") for e in _list(crowndata, "head")),
                crown_witness=tuple(_witness_pair(p)
                                    for p in _list(crowndata, "witness")))
        fields["packing_removed"] = tuple(_ids(t, 3, "triangle")
                                          for t in _list(data, "packing_removed", []))
        fields["packing_added"] = tuple(_ids(t, 3, "triangle")
                                        for t in _list(data, "packing_added", []))
        return cls(rule, k_delta, **fields)


def _vertex(x: object) -> int:
    if type(x) is not int or x < 0:
        raise ValueError(f"vertex id {x!r} is not a non-negative integer")
    return x


def _ids(x: object, arity: int, what: str) -> tuple:
    """A list of ``arity`` distinct vertex ids, as a tuple in its own order."""
    if not isinstance(x, list) or len(x) != arity:
        raise ValueError(f"{what} {x!r} is not a list of {arity} vertex ids")
    out = tuple(_vertex(v) for v in x)
    if len(set(out)) != arity:
        raise ValueError(f"{what} {x!r} repeats a vertex")
    return out


def _object(x: object, what: str) -> dict:
    if not isinstance(x, dict):
        raise ValueError(f"{what} {x!r} is not a JSON object")
    return x


def _list(data: dict, key: str, default: list | None = None) -> list:
    """The list under ``key``; only a field with a ``default`` may be absent."""
    x = data[key] if default is None else data.get(key, default)
    if not isinstance(x, list):
        raise ValueError(f"{key} {x!r} is not a list")
    return x


def _witness_pair(x: object) -> tuple[int, Edge]:
    if not isinstance(x, list) or len(x) != 2:
        raise ValueError(f"crown witness {x!r} is not a [vertex, edge] pair")
    return _vertex(x[0]), _ids(x[1], 2, "edge")


def trace_to_json(trace: Sequence[RuleEvent]) -> str:
    return json.dumps({"events": [ev.to_json() for ev in trace]}, indent=1)


def trace_from_json(text: str) -> list[RuleEvent]:
    """Parse a trace; a malformed one raises ``ValueError`` naming the event."""
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("events"), list):
        raise ValueError("a trace is a JSON object with an 'events' list")
    trace = []
    for i, item in enumerate(data["events"]):
        try:
            trace.append(RuleEvent.from_json(item))
        except KeyError as exc:
            raise ValueError(f"trace event {i}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"trace event {i}: {exc}") from None
    return trace


@dataclass
class KernelOutcome:
    verdict: str                       # "yes" | "no" | "reduced"
    instance: Instance | None          # the reduced instance when verdict == "reduced"
    packing: TrianglePacking | None    # final working packing (None for R1 verdicts)
    trace: list[RuleEvent]
    counters: dict[str, int]
    verdict_rule: str | None = None    # which rule produced a yes/no


# -- individual rule finders -------------------------------------------------


def terminal_verdict(m: int, k: int, variant: Variant) -> str | None:
    """Rule 1 on a graph with ``m`` edges.  'Empty' means edgeless: no
    edges, no triangles either way."""
    if variant is Variant.ETP:
        if k <= 0:
            return "yes"
        if m == 0:
            return "no"
    else:
        if k < 0:
            return "no"
        if m == 0:
            return "yes"
    return None


def find_prunable(g: Graph) -> tuple[list[int], list[Edge]] | None:
    """Rule 2 sweep: all vertices and edges lying in no triangle.

    One application removes the whole set (deleting triangle-free material
    never destroys a triangle, so the batch is the single-deletion fixpoint).
    Returned edges exclude those incident to returned vertices.
    """
    adj = g.adj
    live: set[int] = set()
    dead_edges: list[Edge] = []
    for u, nu in adj.items():
        for v in nu:
            if u < v:
                if nu.isdisjoint(adj[v]):
                    dead_edges.append((u, v))
                else:
                    live.add(u)
                    live.add(v)
    if not dead_edges and len(live) == len(adj):
        return None
    # a vertex is dead when no edge at it is live; its edges go with it
    return (sorted(v for v in adj if v not in live),
            sorted(e for e in dead_edges if e[0] in live and e[1] in live))


def _is_exclusive_k4(g: Graph, quad: Sequence[int]) -> bool:
    members = set(quad)
    for a, b in combinations(sorted(quad), 2):
        if not g.has_edge(a, b):
            return False
        if g.common_neighbors(a, b) != members - {a, b}:
            return False
    return True


def find_exclusive_k4(g: Graph) -> tuple[int, int, int, int] | None:
    """Rule 3: four vertices inducing a K4 whose six edges lie only in the
    four internal triangles.  Each edge of such a K4 has exactly the other
    two members as common neighbors, so edges with |common| != 2 are skipped
    immediately."""
    for u, v in g.edges():
        common = g.common_neighbors(u, v)
        if len(common) != 2:
            continue
        w, x = sorted(common)
        quad = tuple(sorted((u, v, w, x)))
        if (u, v) != quad[:2]:
            continue  # visit each quadruple once, from its smallest edge
        if g.has_edge(w, x) and _is_exclusive_k4(g, quad):
            return quad  # type: ignore[return-value]
    return None


def find_splittable(
    g: Graph, after: int | None = None,
) -> tuple[int, list[Edge], list[Edge]] | None:
    """Rule 4: smallest vertex (above ``after``, if given) whose incident
    edges separate into triangle-disconnected parts.  Triangles through
    ``v`` pair exactly the adjacent neighbors of ``v``, so the parts are the
    connected components of the graph induced on ``N(v)``; the first part
    grows from the smallest incident edge (the one to the smallest neighbor)
    and the second holds every other component.

    The driver passes ``after`` = the vertex it just split: no vertex below
    it can have become splittable (see the module docstring)."""
    adj = g.adj
    for v in sorted(v for v in adj if after is None or v > after):
        nbrs = adj[v]
        if len(nbrs) < 2:
            continue
        seed = min(nbrs)
        comp = {seed}
        queue = [seed]
        while queue:
            reached = adj[queue.pop()] & nbrs
            reached -= comp
            comp |= reached
            queue.extend(reached)
        if len(comp) != len(nbrs):
            part1 = sorted(edge_key(v, u) for u in comp)
            part2 = sorted(edge_key(v, u) for u in nbrs - comp)
            return v, part1, part2
    return None


def _strict_spanners(g: Graph, s: TrianglePacking) -> dict[Edge, list[int]]:
    """For each packed edge, the vertices spanning it through two free edges.

    These are exactly the candidate replacement triangles that use one packed
    edge and two edges outside the packing; vertices of the owning triangle
    disqualify themselves because their side edges are packed.
    """
    packed = s.edge_index
    out: dict[Edge, list[int]] = {}
    for e in packed:
        a, b = e
        ws = [w for w in sorted(g.common_neighbors(a, b))
              if edge_key(a, w) not in packed and edge_key(b, w) not in packed]
        if ws:
            out[e] = ws
    return out


def find_augment_one(
    g: Graph, s: TrianglePacking,
    spanners: dict[Edge, list[int]] | None = None,
) -> tuple[Triangle, list[Triangle]] | None:
    """Rule 6: one packed triangle replaceable by two edge-disjoint triangles
    drawn from its own edges plus free edges.

    Any candidate triangle in that spanned subgraph uses exactly one edge of
    ``t`` (all three would be ``t`` itself, and two is impossible), and two
    candidates over different edges of ``t`` are edge-disjoint exactly when
    their spanning vertices differ.
    """
    if spanners is None:
        spanners = _strict_spanners(g, s)
    for t in s.sorted_triangles():
        es = [e for e in triangle_edges(t) if e in spanners]
        if len(es) < 2:
            continue
        for e1, e2 in combinations(es, 2):
            for w1 in spanners[e1]:
                for w2 in spanners[e2]:
                    if w1 != w2:
                        return t, [triangle_key(*e1, w1), triangle_key(*e2, w2)]
    return None


def _pair_candidates(
    g: Graph, s: TrianglePacking, t1: Triangle, t2: Triangle,
    spanners: dict[Edge, list[int]],
    vertex_filter: set[int] | None = None,
) -> list[Triangle]:
    """Triangles whose edges all lie in R plus the edges of ``t1``/``t2``."""
    packed = s.edge_index
    cands = {t1, t2}
    for t in (t1, t2):
        for e in triangle_edges(t):
            for w in spanners.get(e, ()):
                if vertex_filter is None or w in vertex_filter:
                    cands.add(triangle_key(*e, w))
    shared = set(t1) & set(t2)
    for v in shared:
        for a in t1:
            if a == v:
                continue
            for b in t2:
                if b == v:
                    continue
                if g.has_edge(a, b) and edge_key(a, b) not in packed:
                    cands.add(triangle_key(v, a, b))
    return sorted(cands)


def _first_disjoint_triple(cands: list[Triangle]) -> list[Triangle] | None:
    """Lexicographically first three pairwise edge-disjoint triangles."""
    sets = [frozenset(triangle_edges(t)) for t in cands]
    for i, a in enumerate(sets):
        for j in range(i + 1, len(cands)):
            if a & sets[j]:
                continue
            ab = a | sets[j]
            for h in range(j + 1, len(cands)):
                if not ab & sets[h]:
                    return [cands[i], cands[j], cands[h]]
    return None


def _sharing_pairs(tris: list[Triangle]):
    """Index pairs ``(i, j)``, ``i < j``, of triangles in ``tris`` that share
    a vertex, in lexicographic order."""
    by_vertex: dict[int, list[int]] = {}
    for i, t in enumerate(tris):
        for v in t:
            by_vertex.setdefault(v, []).append(i)
    for i, t in enumerate(tris):
        for j in sorted({j for v in t for j in by_vertex[v] if j > i}):
            yield i, j


def find_augment_two(
    g: Graph, s: TrianglePacking,
    spanners: dict[Edge, list[int]] | None = None,
) -> tuple[Triangle, Triangle, list[Triangle]] | None:
    """Rule 7: two packed triangles replaceable by three edge-disjoint ones.

    Requires Rule 6 to be exhausted; then no two disjoint candidates exist
    over a single triangle's edges, so any witness triple needs a candidate
    touching both triangles - which exists only when they share a vertex.
    Only vertex-sharing pairs are scanned, in lexicographic pair order.
    """
    if spanners is None:
        spanners = _strict_spanners(g, s)
    tris = s.sorted_triangles()
    for i, j in _sharing_pairs(tris):
        t1, t2 = tris[i], tris[j]
        found = _first_disjoint_triple(_pair_candidates(g, s, t1, t2, spanners))
        if found is not None:
            return t1, t2, found
    return None


def find_revertex(
    g: Graph, s: TrianglePacking,
    spanners: dict[Edge, list[int]] | None = None,
) -> tuple[Triangle, Triangle, list[Triangle]] | None:
    """Rule 8: swap two packed triangles for two edge-disjoint triangles on
    the free vertices plus their own six, covering strictly more vertices.

    Replacements are restricted to edges in R plus the pair's own edges, so
    the rest of the packing stays edge-disjoint.  Growth needs a spanning
    vertex outside the packing, so pairs without one are skipped.  Two
    triangles on six distinct vertices cannot be replaced by two covering
    more than six, so only vertex-sharing pairs are scanned, in
    lexicographic pair order.
    """
    if spanners is None:
        spanners = _strict_spanners(g, s)
    free = g.vertex_set() - s.vertex_set()
    tris = s.sorted_triangles()

    def has_free_spanner(t: Triangle) -> bool:
        return any(w in free
                   for e in triangle_edges(t) for w in spanners.get(e, ()))

    flagged = [has_free_spanner(t) for t in tris]
    for i, j in _sharing_pairs(tris):
        if not (flagged[i] or flagged[j]):
            continue
        t1, t2 = tris[i], tris[j]
        base = set(t1) | set(t2)
        cands = _pair_candidates(g, s, t1, t2, spanners,
                                 vertex_filter=free | base)
        for a, b in combinations(cands, 2):
            if frozenset(triangle_edges(a)) & frozenset(triangle_edges(b)):
                continue
            if len(set(a) | set(b)) > len(base):
                return t1, t2, [a, b]
    return None


def find_crown(g: Graph, s: TrianglePacking,
               labeled: set[Edge]) -> FatHeadCrown | None:
    """Rule 9: a fat-head crown among the vertices off the labeled edges."""
    if not labeled:
        return None
    candidates = g.vertex_set() - {v for e in labeled for v in e}
    bip = build_span_bipartite(g, candidates, labeled)
    return extract_crown(bip, max_matching(bip))


# -- rule events: one builder, one mutator ------------------------------------


def threshold_verdict(packed: int, k: int, variant: Variant) -> str | None:
    """Rule 5.  More than ``k`` edge-disjoint triangles (``packed`` of them)
    are already packed."""
    if packed > k:
        return "yes" if variant is Variant.ETP else "no"
    return None


def rule_event(rule: str, g: Graph, variant: Variant,
               s: TrianglePacking | None = None,
               spanners: dict[Edge, list[int]] | None = None,
               after: int | None = None) -> RuleEvent | None:
    """The event of one application of ``rule`` to the current state, or None.

    Rules 2-4 read only ``g``; Rule 4 scans only vertices above ``after``
    when it is given.  Rules 6-9 also read the working packing ``s``, and
    Rules 6-8 reuse ``spanners`` when the caller has them.  Only ``variant``
    is needed to size Rule 3's ``k_delta``.  The finders are looked up as
    module globals at call time, so replacing one on the module changes what
    every caller sees.
    """
    if rule == "R2":
        found = find_prunable(g)
        if found is not None:
            verts, edges = found
            return RuleEvent("R2", removed_vertices=tuple(verts),
                             removed_edges=tuple(edges))
    elif rule == "R3":
        quad = find_exclusive_k4(g)
        if quad is not None:
            return RuleEvent("R3", k_delta=-1 if variant is Variant.ETP else -2,
                             quad=quad, removed_edges=tuple(
                                 edge_key(a, b) for a, b in combinations(quad, 2)))
    elif rule == "R4":
        found = find_splittable(g, after)
        if found is not None:
            v, part1, part2 = found
            # Graph.split mints the next two ids
            return RuleEvent("R4", split_vertex=v, split_part1=tuple(part1),
                             split_part2=tuple(part2),
                             split_minted=(g.next_id, g.next_id + 1))
    elif rule == "R6":
        found = find_augment_one(g, s, spanners)
        if found is not None:
            t, new = found
            return RuleEvent("R6", packing_removed=(t,), packing_added=tuple(new))
    elif rule in ("R7", "R8"):
        finder = find_augment_two if rule == "R7" else find_revertex
        found = finder(g, s, spanners)
        if found is not None:
            t1, t2, new = found
            return RuleEvent(rule, packing_removed=(t1, t2),
                             packing_added=tuple(new))
    elif rule == "R9":
        fc = find_crown(g, s, labeled_edges(g, s))
        if fc is not None:
            head = tuple(sorted(fc.head))
            return RuleEvent("R9", k_delta=-len(head),
                             crown_vertices=tuple(sorted(fc.crown)), head_edges=head,
                             crown_witness=tuple(sorted(fc.witness)))
    else:
        raise ValueError(f"{rule} yields a verdict, not an event")
    return None


def apply_event(g: Graph, ev: RuleEvent, s: TrianglePacking | None = None) -> None:
    """Perform ``ev`` in place: the only code that applies a rule's effect.

    Graph events (R2-R4, R9) change ``g``; packing events (R6-R8) swap
    triangles in ``s`` and leave ``g`` alone (without ``s`` they do nothing,
    which is how replay treats them).  The caller moves ``k`` by
    ``ev.k_delta``.  A split must mint the ids its event names.
    """
    if ev.rule in ("R2", "R3"):
        for v in ev.removed_vertices:
            g.remove_vertex(v)
        for e in ev.removed_edges:
            g.remove_edge(*e)
    elif ev.rule == "R4":
        minted = g.split(ev.split_vertex, ev.split_part1, ev.split_part2)
        if minted != ev.split_minted:
            raise GraphError(f"split minted {minted}, the event says {ev.split_minted}")
    elif ev.rule == "R9":
        for v in ev.crown_vertices:
            g.remove_vertex(v)
        for e in ev.head_edges:
            g.remove_edge(*e)
    elif s is not None:
        for t in ev.packing_removed:
            s.remove(t)
        for t in ev.packing_added:
            s.add(t)


# -- the fixpoint driver ------------------------------------------------------

_STRUCTURAL = ("R2", "R3", "R4")
# The structural rules that can apply after a graph event (module docstring);
# R3 and R9 events leave all three to be scanned again.
_RESCAN = {"R2": ("R3", "R4"), "R4": ("R4",)}


def _fixpoint(g: Graph, variant: Variant, trace: list[RuleEvent]):
    """The fixpoint loop with no ``k``: it rewrites ``g`` in place, appends
    every event to ``trace`` and yields each point where a run with some
    ``k`` could end, as ``(rule, len(trace), offset, value)`` with
    ``offset`` the sum of the ``k_delta`` so far:

    * ``("R1", ..., m)`` at a Rule 1 test;
    * ``("R5", ..., (|S|, S))`` at a Rule 5 test, ``S`` never to change;
    * ``(None, ..., (g, S))`` at the fixpoint, after which it stops.

    Rule 1 is tested only after events that move ``m`` or ``k``, so never
    after a swap or a split: the test would repeat the one before it.
    Rule 5 is recorded only at a new high of |S| since the last graph event:
    ``k`` is fixed between graph events, so a lower or equal |S| cannot stop
    a run that the earlier high let through.  Edgeless means every ``k``
    stops.
    """
    offset = 0
    s: TrianglePacking | None = None
    scan = _STRUCTURAL  # structural rules that may apply; () once all are clean
    after = None        # R4 scans only the vertices above this one
    high = -1           # the largest |S| since the last graph event
    recorded = None     # the packing the last R5 point holds
    retest = True       # m or k may have moved since the last R1 test

    while True:
        if retest:
            retest = False
            yield "R1", len(trace), offset, g.m
            if g.m == 0:
                return

        ev = None
        for rule in scan:
            ev = rule_event(rule, g, variant, after=after)
            if ev is not None:
                break
        else:
            scan = ()

        if ev is None:
            if s is None:
                s = greedy_maximal_packing(g)
                high = -1
            if len(s) > high:
                high = len(s)
                yield "R5", len(trace), offset, (high, s)
                recorded = s
            spanners = _strict_spanners(g, s)
            ev = (rule_event("R6", g, variant, s, spanners)
                  or rule_event("R7", g, variant, s, spanners)
                  or rule_event("R8", g, variant, s, spanners)
                  or rule_event("R9", g, variant, s))
            if ev is None:
                yield None, len(trace), offset, (g, s)
                return

        if ev.rule in SWAP_RULES and s is recorded:
            s = s.copy()  # the recorded packing must not change
        covered = len(s.vertex_set()) if ev.rule == "R8" else 0
        apply_event(g, ev, s)
        offset += ev.k_delta
        if ev.rule in SWAP_RULES:
            remaximalize(g, s, [e for t in ev.packing_removed
                                for e in triangle_edges(t)])
            s.validate(g)
            if ev.rule == "R8" and len(s.vertex_set()) <= covered:
                raise GraphError("packing vertex count did not grow")
        else:
            s = None
            retest = ev.rule != "R4"
            scan = _RESCAN.get(ev.rule, _STRUCTURAL)
            after = ev.split_vertex  # None after R2, R3 and R9
        trace.append(ev)


class _Run:
    """A k-free run of one input graph and variant, paused at ``stops[-1]``."""

    __slots__ = ("trace", "stops", "steps")

    def __init__(self, g: Graph, variant: Variant) -> None:
        self.trace: list[RuleEvent] = []
        self.stops: list[tuple] = []
        self.steps = _fixpoint(g.copy(), variant, self.trace)


def _rule_code() -> tuple:
    """The functions a run reaches through this module's globals.  Once one
    is rebound (an injected bug, a tracer's wrapper) the kept runs are
    stale, so :func:`rule_event`'s lookup contract holds for every call."""
    return (rule_event, apply_event, find_prunable, find_exclusive_k4,
            find_splittable, find_augment_one, find_augment_two, find_revertex,
            find_crown, greedy_maximal_packing, remaximalize, labeled_edges,
            build_span_bipartite, extract_crown, max_matching, _strict_spanners)


class _Kept:
    """The runs of one input graph, one per variant.

    ``source`` is the caller's graph itself, not a copy: ``version`` shows
    that it is unchanged, and only then can it stand for the input the runs
    began from.
    """

    __slots__ = ("source", "version", "code", "runs")

    def __init__(self, g: Graph, code: tuple) -> None:
        self.source = g
        self.version = g.version
        self.code = code
        self.runs: dict[Variant, _Run] = {}

    def holds(self, g: Graph, code: tuple) -> bool:
        """Same adjacency (isolated vertices included), same ``next_id``,
        and made by the rules as they are bound now."""
        src = self.source
        return (src.version == self.version and self.code == code
                and (g is src or (g.next_id == src.next_id and g.m == src.m
                                  and g.adj == src.adj)))


_thread = threading.local()  # .kept: this thread's _Kept for its last graph


def _outcome(verdict: str, rule: str | None, events: list[RuleEvent],
             instance: Instance | None,
             packing: TrianglePacking | None) -> KernelOutcome:
    """An outcome made of copies (events are immutable), so that no two
    outcomes share mutable state."""
    trace = list(events)
    counters = dict.fromkeys(RULE_IDS, 0)
    for ev in trace:
        counters[ev.rule] += 1
    if rule is not None:
        counters[rule] += 1
    return KernelOutcome(verdict, instance,
                         None if packing is None else packing.copy(),
                         trace, counters, rule)


def kernelize(inst: Instance) -> KernelOutcome:
    """Reduce ``inst`` to its kernel, or answer it by Rule 1 or Rule 5.

    The answer is the k-free run of ``inst.graph`` up to the first point
    where Rule 1 or Rule 5 ends it for ``inst.k``; this thread's run of the
    last graph is read back or resumed (module docstring).  ``inst.graph``
    is never mutated, and the outcome shares no mutable state.
    """
    g, k, variant = inst.graph, inst.k, inst.variant
    code = _rule_code()
    kept = getattr(_thread, "kept", None)
    if kept is None or not kept.holds(g, code):
        _thread.kept = None  # let the old runs go before the new one grows
        kept = _thread.kept = _Kept(g, code)
    run = kept.runs.get(variant)
    if run is None:
        run = kept.runs[variant] = _Run(g, variant)
    # A failure's events stay in ``trace``: perfbench's ``_partial_trace``
    # reads this frame's list local of that name from the traceback
    # (tests/test_rules.py pins it), so keep both the name and the frame.
    trace, stops = run.trace, run.stops
    i = 0
    while True:
        if i == len(stops):
            try:
                stops.append(next(run.steps))
            except BaseException:
                del kept.runs[variant]  # a run that raised cannot resume
                raise
        rule, end, offset, value = stops[i]
        if rule is None:
            kernel, packing = value
            return _outcome("reduced", None, trace,
                            Instance(kernel.copy(), k + offset, variant), packing)
        if rule == "R1":
            verdict, packing = terminal_verdict(value, k + offset, variant), None
        else:
            size, packing = value
            verdict = threshold_verdict(size, k + offset, variant)
        if verdict is not None:
            return _outcome(verdict, rule, trace[:end], None, packing)
        i += 1


# -- trace replay -------------------------------------------------------------


def replay_trace(g: Graph, trace: Sequence[RuleEvent]) -> Graph:
    """Fold :func:`apply_event` over ``trace`` on a copy of ``g``.

    An R9 event must name a fat-head crown of the graph it meets, or the
    replay raises :class:`GraphError` instead of deleting its vertices.
    """
    out = g.copy()
    for i, ev in enumerate(trace):
        if ev.rule == "R9":
            fc = FatHeadCrown(set(ev.crown_vertices),
                              {edge_key(*e) for e in ev.head_edges},
                              [(c, edge_key(*e)) for c, e in ev.crown_witness])
            if not verify_crown(out, fc):
                raise GraphError(f"trace event {i}: R9 crown {ev.crown_vertices} "
                                 "is not a fat-head crown of the graph it meets")
        apply_event(out, ev)
    return out


# -- finishing with the oracle ------------------------------------------------


def finish(outcome: KernelOutcome, variant: Variant, *,
           budget: bool = True) -> tuple[bool, list | None]:
    """The decision and a witness on the kernel, ready for lifting.

    An R1 or R5 verdict answers directly; an R5 packing verdict's witness is
    the working packing.  A reduced instance goes to :func:`oracle.decide`.
    """
    if outcome.verdict == "no":
        return False, None
    if outcome.verdict == "yes":
        if variant is Variant.ETP and outcome.verdict_rule == "R5":
            return True, list(outcome.packing.triangles)
        return True, []
    return decide(outcome.instance, budget=budget)


# -- solution lifting ---------------------------------------------------------


def lift_solution(trace: Sequence[RuleEvent], reduced_solution: Sequence,
                  variant: Variant) -> list:
    """Transform a solution of the reduced instance into one of the original.

    Walking the trace backwards: a crown event contributes its witness
    triangles (packing) or its head edges (covering); an exclusive-K4 event
    contributes one of its triangles (packing) or a perfect pair of its edges
    (covering); a split event renames the minted vertices back.
    """
    if variant is Variant.ETP:
        solution = {triangle_key(*t) for t in reduced_solution}
    else:
        solution = {edge_key(*e) for e in reduced_solution}

    for ev in reversed(trace):
        if ev.rule == "R9":
            if variant is Variant.ETP:
                solution.update(triangle_key(c, *e) for c, e in ev.crown_witness)
            else:
                solution.update(ev.head_edges)
        elif ev.rule == "R3":
            a, b, c, d = ev.quad
            if variant is Variant.ETP:
                solution.add(triangle_key(a, b, c))
            else:
                solution.add(edge_key(a, b))
                solution.add(edge_key(c, d))
        elif ev.rule == "R4":
            v = ev.split_vertex
            minted = set(ev.split_minted)
            if variant is Variant.ETP:
                solution = {
                    triangle_key(*(v if x in minted else x for x in t))
                    for t in solution
                }
            else:
                solution = {
                    edge_key(*(v if x in minted else x for x in e))
                    for e in solution
                }
    return sorted(solution)


# -- solution validation -------------------------------------------------------


def is_valid_packing_solution(g: Graph, triangles: Iterable[Triangle], k: int) -> bool:
    """At least ``k`` pairwise edge-disjoint triangles of ``g``; ``False``,
    never an exception, when a triangle is malformed."""
    try:
        canon = [triangle_key(*t) for t in triangles]
    except (GraphError, TypeError):
        return False
    return len(canon) >= k and packs(g, canon)


def is_valid_cover_solution(g: Graph, edges: Iterable[Edge], k: int) -> bool:
    """At most ``k`` distinct edges of ``g`` whose removal leaves it
    triangle-free; ``False``, never an exception, when an edge is malformed."""
    try:
        canon = [edge_key(*e) for e in edges]
    except (GraphError, TypeError):
        return False
    removed = set(canon)
    return (len(removed) == len(canon) <= k
            and all(g.has_edge(*e) for e in removed) and covers(g, removed))
