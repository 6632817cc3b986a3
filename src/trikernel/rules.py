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
those.  The packing is checked in full at its first swap, and after that
only in the triangles each swap added (:func:`_fixpoint`).

Rules 3 and 4, the greedy packing and the spanners ask common-neighbour
questions, and answer them on the working graph's neighbour masks
(:meth:`Graph.masks`), built by the run's first R3 scan and kept up to date
by every later event; a graph too large and sparse for masks is answered
on its adjacency sets, with the same answers.  Rule 2 reads only the sets
(:func:`find_prunable`): the run's first sweep deletes most of a large
sparse input, so the view is built over what it left, and its deletions
pay no mask upkeep.  R3 has one body for either format: ``&`` and a count
work on ints and sets alike.  Only R4's search and the spanners keep a
set body beside the mask one, which a shared body would slow down; the
greedy packing's set side is :func:`packing.remaximalize`'s full pass.  R3
and R4 walk the view's positions, which are one ascending vertex order per
run: the sorted vertices the view was built over, with each split's two
minted ids appended (they exceed every id so far).  Vertices that are gone
are skipped, and R4 resumes from the place of the vertex it last split, so
no scan sorts the graph's vertices.  The caller's graph never gets masks
from a run: the run works on a copy of it.

The swap phase resumes too: the graph is fixed until the next graph event,
so what a swap leaves true is kept (:func:`_after_swap`).  The spanners
(:func:`_strict_spanners`) are built once per graph state.  An entry reads
the packed status of its edge and of the two side edges at each common
neighbour, so after a swap only the entries of the edges whose status
changed (those of the removed, added and re-maximalized triangles) and of
the packed edges that share a triangle with them are recomputed.  R7 and
R8 keep nothing else: each scan walks only the vertex-sharing pairs that
hold a triangle with a spanner entry (R8: one through a free vertex), and
R7 searches only the pairs whose free cross edges can complete a witness
(:func:`find_augment_two`).

Only Rules 1 and 5 read ``k``, and they only end a run, so the runs on one
graph at every ``k`` are prefixes of one k-free run.  That run is the same
for both problems: the variant decides only the Rule 1 and Rule 5 verdicts
and how far Rule 3 lowers ``k`` (:func:`for_variant`).  :func:`kernelize`
drives the run as a generator that pauses at each Rule 1 and Rule 5 test,
and answers a ``k`` and variant at the first test that ends its run.  Each
thread keeps the run of the last graph it was given (one per graph, serving
both variants): a reference to the caller's graph (a copy of the input is
not kept; the graph's mutation count shows that it is unchanged), the
working graph and packing where the run paused, its trace as each variant
records it, and the recorded stop points with the packings an R5 stop hands
out.  A later call on an equal graph answers from the recorded points or
resumes the run; a call on another graph lets the kept run go first.
Outcomes are built from copies and events are immutable, so no outcome
shares mutable state with the kept run or with another outcome.

Rules 1 and 5 end the run with a verdict.  Every other application is a
:class:`RuleEvent`: :func:`rule_event` builds it from the rule's finder, and
:func:`apply_event` is the single mutator that performs it, on the graph
(R2-R4, R9) or on the working packing (R6-R8).  The driver and replay share
that mutator: :func:`replay_trace` is a fold of ``apply_event`` over the
original graph, so it reproduces the reduced graph exactly, and
:func:`lift_solution` reads the trace once (its splits as one vertex map) to
lift a solution of the reduced instance to the original one.
:func:`finish` completes an outcome with the exact oracle.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
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
    Masks,
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

# The keys each rule's event may hold beside "rule" and "k_delta", and how
# many of them, from the first, it cannot do without.
_EVENT_KEYS = {
    "R2": (("removed_vertices", "removed_edges"), 0),
    "R3": (("quad", "removed_edges"), 2), "R4": (("split",), 1),
    "R6": (("packing_removed", "packing_added"), 2),
    "R7": (("packing_removed", "packing_added"), 2),
    "R8": (("packing_removed", "packing_added"), 2), "R9": (("crown",), 1),
}
_SPLIT_KEYS = frozenset(("vertex", "part1", "part2", "minted"))
_CROWN_KEYS = frozenset(("vertices", "head", "witness"))


# .run: this thread's _Run of its last graph;
# .texts: the event texts of the last trace it wrote (trace_to_json)
_thread = threading.local()


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
            raise ValueError(f"event {data!r} is not a JSON object")
        rule = data.get("rule")
        if rule not in _EVENT_KEYS:
            raise ValueError(f"unknown rule {rule!r}")
        keys, required = _EVENT_KEYS[rule]
        for key in data:
            if key not in keys and key not in ("rule", "k_delta"):
                raise ValueError(f"{rule} event has unknown key {key!r}")
        missing = [f for f in keys[:required] if f not in data]
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
            split = _object(data["split"], "split", _SPLIT_KEYS)
            fields.update(
                split_vertex=_vertex(split["vertex"]),
                split_part1=tuple(_ids(e, 2, "edge") for e in _list(split, "part1")),
                split_part2=tuple(_ids(e, 2, "edge") for e in _list(split, "part2")),
                split_minted=_ids(split["minted"], 2, "minted pair"))
        if "quad" in data:
            fields["quad"] = _ids(data["quad"], 4, "quad")
        if "crown" in data:
            crowndata = _object(data["crown"], "crown", _CROWN_KEYS)
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


def _object(x: object, what: str, keys: frozenset[str]) -> dict:
    """A JSON object whose keys all lie in ``keys``."""
    if not isinstance(x, dict):
        raise ValueError(f"{what} {x!r} is not a JSON object")
    for key in x:
        if key not in keys:
            raise ValueError(f"{what} has unknown key {key!r}")
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


def _bracket(items: list[str], level: int) -> str:
    """A list of ``items`` as ``json.dumps(..., indent=1)`` writes it with
    its ``[`` at ``level``."""
    if not items:
        return "[]"
    pad = "\n" + " " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * level + "]"


def _template(shape, level: int) -> str:
    """The ``%`` template of one value of ``shape`` (``int`` or a tuple of
    shapes, written as a list) at ``level``."""
    if shape is int:
        return "%d"
    return _bracket([_template(s, level + 1) for s in shape], level)


def _items(shape, n: int, level: int) -> str:
    """The ``%`` template of a list of ``n`` values of ``shape`` at ``level``."""
    return _bracket([_template(shape, level + 1)] * n, level)


_EDGE, _TRIANGLE, _WITNESS = (int, int), (int, int, int), (int, (int, int))
# the event shapes kept (:func:`trace_to_json`), and the most ints a kept
# shape writes: a longer event builds its template for its one write
_TEMPLATES, _KEPT_INTS = 256, 64
_string = json.encoder.encode_basestring_ascii
_flat = chain.from_iterable


def _build_template(shape: tuple) -> str:
    """The ``%`` template of the events of ``shape`` (:func:`_event_text`);
    an event is at level 2 of a trace, its fields at 3, split and crown
    fields at 4."""
    rule, vertices, edges, split, quad, crown, swap = shape
    fields = ['"rule": ' + _string(rule).replace("%", "%%"), '"k_delta": %d']
    if vertices:
        fields.append('"removed_vertices": ' + _items(int, vertices, 3))
    if edges:
        fields.append('"removed_edges": ' + _items(_EDGE, edges, 3))
    if split is not None:
        part1, part2, minted = split
        fields.append(
            '"split": {\n    "vertex": %%d,\n    "part1": %s,\n    "part2": %s,'
            '\n    "minted": %s\n   }'
            % (_items(_EDGE, part1, 4), _items(_EDGE, part2, 4), _items(int, minted, 4)))
    if quad is not None:
        fields.append('"quad": ' + _items(int, quad, 3))
    if crown is not None:
        members, head, witness = crown
        fields.append(
            '"crown": {\n    "vertices": %s,\n    "head": %s,\n    "witness": %s\n   }'
            % (_items(int, members, 4), _items(_EDGE, head, 4),
               _items(_WITNESS, witness, 4)))
    if swap is not None:
        removed, added = swap
        fields.append('"packing_removed": ' + _items(_TRIANGLE, removed, 3))
        fields.append('"packing_added": ' + _items(_TRIANGLE, added, 3))
    return "{\n   " + ",\n   ".join(fields) + "\n  }"


_event_template = lru_cache(maxsize=_TEMPLATES)(_build_template)


def _event_text(ev: RuleEvent) -> str:
    """``ev.to_json()`` as ``json.dumps(..., indent=1)`` writes it at level 2:
    one ``%`` of the ints it writes over the template of its shape, the
    rule and the length of every list it writes."""
    values = [ev.k_delta, *ev.removed_vertices, *_flat(ev.removed_edges)]
    split = quad = crown = swap = None
    if ev.split_vertex is not None:
        minted = ev.split_minted or ()
        split = len(ev.split_part1), len(ev.split_part2), len(minted)
        values += (ev.split_vertex, *_flat(ev.split_part1), *_flat(ev.split_part2),
                   *minted)
    if ev.quad is not None:
        quad = len(ev.quad)
        values += ev.quad
    if ev.crown_vertices:
        crown = len(ev.crown_vertices), len(ev.head_edges), len(ev.crown_witness)
        values += (*ev.crown_vertices, *_flat(ev.head_edges),
                   *_flat((c, *e) for c, e in ev.crown_witness))
    if ev.packing_removed or ev.packing_added:
        swap = len(ev.packing_removed), len(ev.packing_added)
        values += (*_flat(ev.packing_removed), *_flat(ev.packing_added))
    shape = (ev.rule, len(ev.removed_vertices), len(ev.removed_edges),
             split, quad, crown, swap)
    build = _event_template if len(values) <= _KEPT_INTS else _build_template
    return build(shape) % tuple(values)


def trace_to_json(trace: Sequence[RuleEvent]) -> str:
    """``json.dumps({"events": [ev.to_json() for ev in trace]}, indent=1)``,
    byte for byte, for events whose fields hold ints (as every event built by
    the package or read by :func:`trace_from_json` does).

    An event is written with one ``%`` of its ints over the template of its
    shape: its rule and the length of every list it writes, ``minted``
    included.  The template places each field at its fixed place at level 2
    of the document.  An event of at most ``_KEPT_INTS`` (64) ints takes its
    template from a least-recently-used cache of ``_TEMPLATES`` (256)
    shapes, shared by all threads.  Short events repeat a few shapes: in a
    first pass over the seed-1 ops of each benchmark workload, 94% to 99%
    of them find their template kept, and 71 to 191 shapes are built.  A
    kept template is under 2 KB (267 characters and at most 21 per int), so
    the cache holds under 0.5 MB.  A longer event, such as a run's opening
    Rule 2 sweep, builds its template for its one write; a list's template
    is one ``join`` of copies of its item's.

    Each thread keeps the text of every event of the last non-empty trace it
    wrote, so a trace that shares events with it (the per-k traces of one
    graph are prefixes of one run) writes only its new events.  The memo
    holds one trace's events at most.
    """
    if not trace:
        return '{\n "events": []\n}'
    last = getattr(_thread, "texts", {})
    texts, parts = {}, []
    for ev in trace:
        entry = last.get(id(ev))
        if entry is None or entry[0] is not ev:
            entry = ev, _event_text(ev)
        texts[id(ev)] = entry
        parts.append(entry[1])
    _thread.texts = texts
    return '{\n "events": [\n  ' + ",\n  ".join(parts) + "\n ]\n}"


def trace_from_json(text: str) -> list[RuleEvent]:
    """Parse a trace; a malformed one raises ``ValueError`` naming the event."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("a trace nests deeper than the JSON reader allows") from None
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
    Returned edges exclude those incident to returned vertices.  An edge is
    dead when its ends' adjacency sets do not meet.  The sweep reads only
    the sets and never builds the neighbour view: a run's first sweep meets
    the whole input and deletes most of a large sparse one, so the view is
    first built by Rule 3, over what the sweep left.
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


def find_exclusive_k4(g: Graph) -> tuple[int, int, int, int] | None:
    """Rule 3: the lexicographically smallest four vertices inducing a K4
    whose six edges lie only in the four internal triangles.

    Each edge of such a K4 has exactly the other two members as common
    neighbours, so edges whose ends share other than two neighbours are
    skipped at once, and the K4's smallest edge alone determines it.  A quad
    qualifies when its six pairs are adjacent and each pair shares exactly
    two neighbours: in a K4 those are the other two members.  The scan walks
    ``u`` up the view's positions (ascending ids; module docstring), meets
    each quad at its smallest edge ``(u, v)`` and returns the smallest quad
    of the first ``u`` that has one: ``u`` is the quad's smallest member.
    One body serves both formats: it intersects the neighbour masks, or the
    adjacency sets where the masks do not fit.
    """
    masks = g.masks()
    adj, of = g.adj, masks.of
    nb, count, members = ((adj, len, sorted) if of is None
                          else (of, int.bit_count, masks.members))
    for u in masks.ids:
        nu = nb.get(u)
        if nu is None:  # gone
            continue
        best = None
        for v in adj[u]:
            if v > u:
                common = nu & nb[v]
                if count(common) == 2:
                    w, x = members(common)
                    quad = (u, v, w, x)
                    if (v < w and (best is None or quad < best)
                            and all(b in adj[a] and count(nb[a] & nb[b]) == 2
                                    for a, b in combinations(quad, 2))):
                        best = quad
        if best is not None:
            return best
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

    The search from the smallest neighbour keeps the reached vertices not
    yet expanded as a mask, ``todo``; it meets the mask of each one it
    expands with ``rest``, the neighbours not reached yet, and stops once
    ``rest`` is empty.  If ``todo`` runs dry first, ``rest`` is the other
    components.

    The driver passes ``after`` = the vertex it just split: no vertex below
    it can have become splittable (see the module docstring).  The scan
    walks the masks' positions from ``after``'s place on.  Where the masks
    do not fit, :func:`_splittable_on_sets` searches: unlike R2 and R3, R4
    keeps a body per format, as one body over both took twice as long."""
    masks = g.masks()
    of, ids = masks.of, masks.ids
    start = 0 if after is None else bisect_right(ids, after)
    if of is None:
        return _splittable_on_sets(g.adj, islice(ids, start, None))
    for v in islice(ids, start, None):
        nbrs = of.get(v)
        if nbrs is None or not nbrs & (nbrs - 1):  # gone, or < 2 neighbours
            continue
        todo = nbrs & -nbrs  # the smallest neighbour
        rest = nbrs ^ todo
        while todo:
            low = todo & -todo
            todo ^= low
            reached = of[ids[low.bit_length() - 1]] & rest
            if reached:
                rest ^= reached
                if not rest:
                    break
                todo |= reached
        if rest:
            # v's edges in ascending order of the other end are sorted
            part1 = [(u, v) if u < v else (v, u) for u in masks.members(nbrs ^ rest)]
            part2 = [(u, v) if u < v else (v, u) for u in masks.members(rest)]
            return v, part1, part2
    return None


def _splittable_on_sets(
    adj: dict[int, set[int]], order: Iterable[int],
) -> tuple[int, list[Edge], list[Edge]] | None:
    """:func:`find_splittable`'s search on the adjacency sets, over the
    vertices of ``order`` (gone vertices are skipped): a queue of reached
    vertices takes the place of ``todo``."""
    for v in order:
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) < 2:
            continue
        seed = min(nbrs)
        rest = nbrs - {seed}
        queue = [seed]
        while queue and rest:
            reached = adj[queue.pop()] & rest
            rest -= reached
            queue.extend(reached)
        if rest:
            part1 = [(u, v) if u < v else (v, u) for u in sorted(nbrs - rest)]
            part2 = [(u, v) if u < v else (v, u) for u in sorted(rest)]
            return v, part1, part2
    return None


def _spanning(adj: dict[int, set[int]], masks: Masks, packed: dict,
              a: int, b: int) -> list[int]:
    """The vertices spanning ``(a, b)`` through two free edges, ascending."""
    of = masks.of
    if of is None:  # masks do not fit: sets
        return [w for w in sorted(adj[a] & adj[b])
                if ((a, w) if a < w else (w, a)) not in packed
                and ((b, w) if b < w else (w, b)) not in packed]
    common = of[a] & of[b]
    if not common & (common - 1):
        return []  # a packed edge's one common neighbour is its triangle's
    ids, out = masks.ids, []
    while common:
        low = common & -common
        common ^= low
        w = ids[low.bit_length() - 1]
        if (((a, w) if a < w else (w, a)) not in packed
                and ((b, w) if b < w else (w, b)) not in packed):
            out.append(w)
    return out


def _strict_spanners(g: Graph, s: TrianglePacking) -> dict[Edge, list[int]]:
    """For each packed edge, the vertices spanning it through two free edges.

    These are exactly the candidate replacement triangles that use one packed
    edge and two edges outside the packing; vertices of the owning triangle
    disqualify themselves because their side edges are packed.  Edges with
    no such vertex have no entry.
    """
    adj, masks, packed = g.adj, g.masks(), s.edge_index
    out: dict[Edge, list[int]] = {}
    for e in packed:
        ws = _spanning(adj, masks, packed, *e)
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
    their spanning vertices differ.  So only triangles with two or more
    spanner entries are walked, in lexicographic order.
    """
    if spanners is None:
        spanners = _strict_spanners(g, s)
    packed = s.edge_index
    seen: set[Triangle] = set()
    flagged: set[Triangle] = set()
    for e in spanners:
        t = packed[e]
        if t in seen:
            flagged.add(t)
        else:
            seen.add(t)
    for t in sorted(flagged):
        es = [e for e in triangle_edges(t) if e in spanners]
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


def _sharing_pairs(tris: list[Triangle],
                   flagged: set[Triangle]) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, of the edge-disjoint triangles
    ``tris`` that share a vertex and hold a triangle of ``flagged``, in
    lexicographic order.

    Only the vertices of flagged triangles are indexed, and each flagged
    triangle meets the others at its vertices; two flagged triangles meet
    twice, so the pairs are gathered in a set."""
    at: dict[int, list[int]] = {v: [] for t in flagged for v in t}
    hot = []
    for i, t in enumerate(tris):
        if t in flagged:
            hot.append(i)
        for v in t:
            if v in at:
                at[v].append(i)
    return sorted({(i, j) if i < j else (j, i)
                   for i in hot for v in tris[i] for j in at[v] if j != i})


def find_augment_two(
    g: Graph, s: TrianglePacking,
    spanners: dict[Edge, list[int]] | None = None,
) -> tuple[Triangle, Triangle, list[Triangle]] | None:
    """Rule 7: two packed triangles replaceable by three edge-disjoint ones.

    Requires Rule 6 to be exhausted; then no two disjoint candidates exist
    over a single triangle's edges.  So a witness triple uses neither
    triangle itself (every other candidate shares an edge with it) and at
    most one spanner triangle of each, hence at least one cross triangle
    ``(v, a, b)``: ``v`` is the vertex the pair shares (pairs that share
    none have no cross triangle and are not scanned) and ``(a, b)`` a free
    cross edge.  Two cross triangles use all four packed edges at ``v``, so
    a triple holds at most two.  A pair is searched only when it has a free
    cross edge and both triangles carry a spanner entry, or two free cross
    edges and one of them does; pairs go in lexicographic order.
    """
    if spanners is None:
        spanners = _strict_spanners(g, s)
    adj, packed = g.adj, s.edge_index
    flagged = {packed[e] for e in spanners}
    tris = s.sorted_triangles()
    for i, j in _sharing_pairs(tris, flagged):
        t1, t2 = tris[i], tris[j]
        (v,) = set(t1) & set(t2)
        cross = sum(b in adj[a] and edge_key(a, b) not in packed
                    for a in t1 if a != v for b in t2 if b != v)
        if cross < 2 and not (cross and t1 in flagged and t2 in flagged):
            continue
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
    vertex outside the packing, so only pairs that hold a triangle with one
    are scanned.  Two triangles on six distinct vertices cannot be replaced
    by two covering more than six, so only vertex-sharing pairs are
    scanned, in lexicographic pair order.
    """
    if spanners is None:
        spanners = _strict_spanners(g, s)
    free = g.vertex_set() - s.vertex_set()
    packed = s.edge_index
    flagged = {packed[e] for e, ws in spanners.items() if not free.isdisjoint(ws)}
    tris = s.sorted_triangles()
    for i, j in _sharing_pairs(tris, flagged):
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
    span = build_span_bipartite(g, candidates, labeled)
    return extract_crown(g, span, max_matching(span))


# -- rule events: one builder, one mutator ------------------------------------


def threshold_verdict(packed: int, k: int, variant: Variant) -> str | None:
    """Rule 5.  More than ``k`` edge-disjoint triangles (``packed`` of them)
    are already packed."""
    if packed > k:
        return "yes" if variant is Variant.ETP else "no"
    return None


def for_variant(ev: RuleEvent, variant: Variant) -> RuleEvent:
    """``ev`` as ``variant`` records it.  Rule 3 is the one event whose
    ``k_delta`` depends on the problem: its K4 holds one packed triangle,
    and a cover needs two of its edges."""
    if ev.rule != "R3":
        return ev
    return ev._replace(k_delta=-1 if variant is Variant.ETP else -2)


def rule_event(rule: str, g: Graph, s: TrianglePacking | None = None,
               after: int | None = None,
               spanners: dict[Edge, list[int]] | None = None) -> RuleEvent | None:
    """The event of one application of ``rule`` to the current state, or None.

    Rules 2-4 read only ``g``, Rules 6-9 also read the working packing
    ``s``.  The fixpoint loop passes R4's cursor ``after`` (the vertex it
    last split) and the ``spanners`` of ``s``; a direct call scans from the
    start and builds the spanners it needs.  The event is the same for both
    problems; an R3 event gets its ``k_delta`` from :func:`for_variant`.
    The finders are looked up as module globals at call time, so replacing
    one on the module changes what every caller sees.
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
            return RuleEvent("R3", quad=quad, removed_edges=tuple(
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
        found = (find_augment_two if rule == "R7" else find_revertex)(
            g, s, spanners)
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


def _after_swap(g: Graph, s: TrianglePacking, removed: Sequence[Triangle],
                added: Sequence[Triangle], spanners: dict[Edge, list[int]]) -> None:
    """Bring ``spanners`` (:func:`_strict_spanners` of ``s``) up to date in
    place after a swap removed ``removed`` and it and the
    re-maximalization that followed it added ``added``.

    The edges whose packed status can have changed are those of these
    triangles.  An entry reads the status of its edge and of the two side
    edges at each common neighbour, so it is recomputed for those edges and
    for every packed edge that shares a triangle with one of them.
    """
    adj, packed, masks = g.adj, s.edge_index, g.masks()
    moved = {e for t in (*removed, *added) for e in triangle_edges(t)}
    redo = set(moved)
    for a, b in moved:
        for w in adj[a] & adj[b]:
            redo.add((a, w) if a < w else (w, a))
            redo.add((b, w) if b < w else (w, b))
    for e in redo:
        ws = _spanning(adj, masks, packed, *e) if e in packed else None
        if ws:
            spanners[e] = ws
        else:
            spanners.pop(e, None)


def _fixpoint(g: Graph, traces: dict[Variant, list[RuleEvent]]):
    """The fixpoint loop with no ``k`` and no variant: it rewrites ``g`` in
    place, appends every event to each variant's trace as
    :func:`for_variant` records it, and yields each point where a run with
    some ``k`` could end, as ``(rule, end, offsets, value)`` with ``end``
    the trace length and ``offsets[variant]`` the sum of that trace's
    ``k_delta`` so far:

    * ``("R1", ..., m)`` at a Rule 1 test;
    * ``("R5", ..., (|S|, S))`` at a Rule 5 test, ``S`` never to change;
    * ``(None, ..., (g, S))`` at the fixpoint, after which it stops.

    Rule 1 is tested only after events that move ``m`` or ``k``, so never
    after a swap or a split: the test would repeat the one before it.
    Rule 5 is recorded only at a new high of |S| since the last graph event:
    ``k`` is fixed between graph events, so a lower or equal |S| cannot stop
    a run that the earlier high let through.  Edgeless means every ``k``
    stops.

    Each packing is validated in full at its first swap.  A later swap
    changes neither ``g`` nor the triangles S keeps, and ``add`` refuses a
    packed edge, so it checks the triangles it and re-maximalization added
    (:func:`graph.packs`) and that the index holds three edges per triangle.
    """
    offsets = dict.fromkeys(traces, 0)
    end = 0
    s: TrianglePacking | None = None
    after = spanners = None  # R4's cursor; _strict_spanners of s
    scan = _STRUCTURAL  # structural rules that may apply; () once all are clean
    high = -1           # the largest |S| since the last graph event
    recorded = None     # the packing the last R5 point holds
    validated = False   # S has been checked in full since greedy built it
    retest = True       # m or k may have moved since the last R1 test

    while True:
        if retest:
            retest = False
            yield "R1", end, dict(offsets), g.m
            if g.m == 0:
                return

        ev = None
        for rule in scan:
            ev = rule_event(rule, g, after=after)
            if ev is not None:
                break
        else:
            scan = ()

        if ev is None:
            if s is None:
                s = greedy_maximal_packing(g)
                high = -1
                validated = False
            if len(s) > high:
                high = len(s)
                yield "R5", end, dict(offsets), (high, s)
                recorded = s
            if spanners is None:  # once per graph state
                spanners = _strict_spanners(g, s)
            ev = (rule_event("R6", g, s, spanners=spanners)
                  or rule_event("R7", g, s, spanners=spanners)
                  or rule_event("R8", g, s, spanners=spanners)
                  or rule_event("R9", g, s))
            if ev is None:
                yield None, end, dict(offsets), (g, s)
                return

        if ev.rule in SWAP_RULES:
            if s is recorded:
                s = s.copy()  # the recorded packing must not change
            covered = len(s.vertex_set()) if ev.rule == "R8" else 0
            kept = len(s) - len(ev.packing_removed)  # the swap appends after these
            apply_event(g, ev, s)
            remaximalize(g, s, [e for t in ev.packing_removed
                                for e in triangle_edges(t)])
            added = s.triangles[kept:]
            if not validated:
                s.validate(g)
                validated = True
            elif not packs(g, added) or len(s.edge_index) != 3 * len(s):
                raise GraphError("packed triangles leave the graph or share an edge")
            if ev.rule == "R8" and len(s.vertex_set()) <= covered:
                raise GraphError("packing vertex count did not grow")
            _after_swap(g, s, ev.packing_removed, added, spanners)
        else:
            apply_event(g, ev, s)
            s = spanners = None
            retest = ev.rule != "R4"
            scan = _RESCAN.get(ev.rule, _STRUCTURAL)
            after = ev.split_vertex  # None after R2, R3 and R9
        for variant, trace in traces.items():
            trace.append(for_variant(ev, variant))
            offsets[variant] += trace[-1].k_delta
        end += 1


def _rule_code() -> tuple:
    """The functions a run reaches through this module's globals.  Once one
    is rebound (an injected bug, a tracer's wrapper) the kept run is
    stale, so :func:`rule_event`'s lookup contract holds for every call."""
    return (rule_event, for_variant, apply_event, find_prunable, find_exclusive_k4,
            find_splittable, find_augment_one, find_augment_two, find_revertex,
            find_crown, greedy_maximal_packing, remaximalize, labeled_edges,
            build_span_bipartite, extract_crown, max_matching, _strict_spanners,
            _spanning, _after_swap)


class _Run:
    """The k-free run of one input graph, paused at ``stops[-1]``; it
    answers both problems.

    ``source`` is the caller's graph itself, not a copy: ``version`` shows
    that it is unchanged, and only then can it stand for the input the run
    began from.  ``code`` is the :func:`_rule_code` the run was made by.
    """

    __slots__ = ("source", "version", "code", "traces", "stops", "steps")

    def __init__(self, g: Graph, code: tuple) -> None:
        self.source = g
        self.version = g.version
        self.code = code
        self.traces: dict[Variant, list[RuleEvent]] = {Variant.ETP: [], Variant.ETC: []}
        self.stops: list[tuple] = []
        self.steps = _fixpoint(g.copy(), self.traces)

    def holds(self, g: Graph, code: tuple) -> bool:
        """Same adjacency (isolated vertices included), same ``next_id``,
        and made by the rules as they are bound now."""
        src = self.source
        return (src.version == self.version and self.code == code
                and (g is src or (g.next_id == src.next_id and g.m == src.m
                                  and g.adj == src.adj)))


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
    run = getattr(_thread, "run", None)
    if run is None or not run.holds(g, code):
        _thread.run = None  # let the old run go before the new one grows
        run = _thread.run = _Run(g, code)
    # A failure's events stay in ``trace``: perfbench's ``_partial_trace``
    # reads this frame's list local of that name from the traceback
    # (tests/test_rules.py pins it), so keep both the name and the frame.
    trace, stops = run.traces[variant], run.stops
    i = 0
    while True:
        if i == len(stops):
            try:
                stops.append(next(run.steps))
            except BaseException:
                _thread.run = None  # a run that raised cannot resume
                raise
        rule, end, offsets, value = stops[i]
        k_now = k + offsets[variant]
        if rule is None:
            kernel, packing = value
            return _outcome("reduced", None, trace,
                            Instance(kernel.copy(), k_now, variant), packing)
        if rule == "R1":
            verdict, packing = terminal_verdict(value, k_now, variant), None
        else:
            size, packing = value
            verdict = threshold_verdict(size, k_now, variant)
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


def finish(outcome: KernelOutcome, variant: Variant) -> tuple[bool, list | None]:
    """The decision and a witness on the kernel, ready for lifting.

    An R1 or R5 verdict answers directly; an R5 packing verdict's witness is
    the working packing.  A reduced instance goes to :func:`oracle.decide`.
    ``variant`` may be a ``Variant`` or its value; an unknown value raises
    ``ValueError``.
    """
    variant = Variant(variant)
    if outcome.verdict == "no":
        return False, None
    if outcome.verdict == "yes":
        if variant is Variant.ETP and outcome.verdict_rule == "R5":
            return True, list(outcome.packing.triangles)
        return True, []
    return decide(outcome.instance)


# -- solution lifting ---------------------------------------------------------


def lift_solution(trace: Sequence[RuleEvent], reduced_solution: Sequence,
                  variant: Variant) -> list:
    """Transform a solution of the reduced instance into one of the original.

    A crown event contributes its witness triangles (packing) or its head
    edges (covering); an exclusive-K4 event contributes one of its triangles
    (packing) or a perfect pair of its edges (covering).  The split events
    compose into one vertex map, from each minted vertex to the vertex of
    the original graph it came from, which renames every item once: a split
    mints fresh ids, and an event names only vertices present when it fires,
    so no split renames what an earlier event contributed.  An item of
    ``reduced_solution`` that is not a triangle (packing) or edge (covering)
    of non-negative integer vertex ids raises ``GraphError`` naming it, and
    an unknown ``variant`` value raises ``ValueError``.
    """
    etp = Variant(variant) is Variant.ETP
    items = _solution_items(reduced_solution, 3 if etp else 2)
    origin: dict[int, int] = {}
    for ev in trace:
        if ev.rule == "R4":
            v = origin.get(ev.split_vertex, ev.split_vertex)
            for x in ev.split_minted:
                origin[x] = v
        elif ev.rule == "R9":
            items.extend([(c, *e) for c, e in ev.crown_witness]
                         if etp else ev.head_edges)
        elif ev.rule == "R3":
            a, b, c, d = ev.quad
            items.extend([(a, b, c)] if etp else [(a, b), (c, d)])
    to = origin.get
    if etp:
        return sorted({triangle_key(to(a, a), to(b, b), to(c, c)) for a, b, c in items})
    return sorted({edge_key(to(u, u), to(v, v)) for u, v in items})


def _solution_items(solution: Iterable, size: int) -> list[tuple[int, ...]]:
    """The items of ``solution`` as tuples of ``size`` non-negative integer
    vertex ids; ``GraphError`` names the first item that is not one."""
    what = "triangle" if size == 3 else "edge"
    items = []
    for item in solution:
        try:
            ids = tuple(item)
        except TypeError:
            raise GraphError(f"{what} {item!r} is not a sequence of vertex ids") from None
        if len(ids) != size:
            raise GraphError(f"{what} {item!r} has {len(ids)} vertex ids, not {size}")
        for x in ids:
            if type(x) is not int or x < 0:
                raise GraphError(f"{what} {item!r} has vertex id {x!r}, "
                                 "not a non-negative integer")
        items.append(ids)
    return items


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
