"""Fat-head crown decomposition via bipartite matching.

A fat-head crown of a graph is a triple ``(C, H, X)`` with witness packing
``P``:

1. ``C`` is an independent set,
2. ``H`` is exactly the set of edges spanned by at least one vertex of ``C``,
3. no vertex of ``C`` is adjacent to a vertex of ``X`` outside ``V(H)``,
4. ``P`` matches each edge of ``H`` to a distinct vertex of ``C`` through a
   triangle, and those ``|H|`` triangles are pairwise edge-disjoint.

Detection works on an auxiliary bipartite graph whose left side holds
candidate crown vertices and whose right side holds candidate head edges,
with incidence given by the span relation.  A maximum matching either leaves
a left vertex unmatched (then alternating-path reachability yields a crown -
the case the kernel bound relies on) or saturates the left side, where a
sound closure heuristic still catches head sets perfectly matched into their
spanners.  Every candidate is verified against the four properties before it
is returned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import Edge, Graph, GraphError, edge_key, spanned_edges


@dataclass
class SpanBipartiteGraph:
    """Left: candidate crown vertices; right: candidate head edges.

    A vertex of ``source_vertices`` makes the left side only if it has no
    neighbor inside ``source_vertices``, spans at least one edge of
    ``source_edges``, and spans nothing outside ``source_edges`` (a vertex
    spanning a foreign edge can never sit in a crown whose head is restricted
    to ``source_edges``, so dropping it loses no decomposition).
    """

    graph: Graph
    source_vertices: set[int]
    source_edges: set[Edge]
    left: list[int]
    right: list[Edge]
    adj: dict[int, list[Edge]]


def build_span_bipartite(g: Graph, vertices: set[int],
                         edges: set[Edge]) -> SpanBipartiteGraph:
    edges = {edge_key(*e) for e in edges}
    endpoint = {v for e in edges for v in e}
    if vertices & endpoint:
        raise GraphError("candidate crown vertices intersect head edge endpoints")
    left: list[int] = []
    adj: dict[int, list[Edge]] = {}
    for a in sorted(vertices):
        if g.adj[a] & vertices:
            continue
        spanned = spanned_edges(g, a)
        if not spanned or any(e not in edges for e in spanned):
            continue
        left.append(a)
        adj[a] = spanned
    right = sorted({e for sp in adj.values() for e in sp})
    return SpanBipartiteGraph(g, set(vertices), edges, left, right, adj)


def max_matching(b: SpanBipartiteGraph) -> dict[int, Edge]:
    """Maximum matching, left vertex -> head edge (Hopcroft-Karp layering)."""
    INF = float("inf")
    pair_left: dict[int, Edge] = {}
    pair_right: dict[Edge, int] = {}
    dist: dict[int, float] = {}

    def bfs() -> bool:
        queue: deque[int] = deque()
        for a in b.left:
            if a not in pair_left:
                dist[a] = 0
                queue.append(a)
            else:
                dist[a] = INF
        found = INF
        while queue:
            a = queue.popleft()
            if dist[a] >= found:
                continue
            for e in b.adj[a]:
                other = pair_right.get(e)
                if other is None:
                    found = min(found, dist[a] + 1)
                elif dist[other] == INF:
                    dist[other] = dist[a] + 1
                    queue.append(other)
        return found != INF

    def dfs(a: int) -> bool:
        for e in b.adj[a]:
            other = pair_right.get(e)
            if other is None or (dist[other] == dist[a] + 1 and dfs(other)):
                pair_left[a] = e
                pair_right[e] = a
                return True
        dist[a] = INF
        return False

    while bfs():
        for a in b.left:
            if a not in pair_left:
                dfs(a)
    return pair_left


@dataclass
class FatHeadCrown:
    crown: set[int]           # C
    head: set[Edge]           # H
    rest: set[int]            # X = V minus C
    witness: list[tuple[int, Edge]]  # P: (crown vertex, head edge) pairs


def _assemble(b: SpanBipartiteGraph, crown: set[int],
              pair_right: dict[Edge, int]) -> FatHeadCrown | None:
    head = {e for c in crown for e in b.adj[c]}
    witness = []
    for e in sorted(head):
        c = pair_right.get(e)
        if c is None or c not in crown:
            return None
        witness.append((c, e))
    rest = b.graph.vertex_set() - crown
    return FatHeadCrown(set(crown), head, rest, witness)


def extract_crown(b: SpanBipartiteGraph,
                  matching: dict[int, Edge]) -> FatHeadCrown | None:
    """A verified crown from the matching structure, or None.

    Unmatched left vertices seed alternating-path reachability (complete
    whenever the left side outnumbers its spanned head edges).  If the left
    side is saturated, per-vertex closures are tried instead: starting from
    one left vertex, repeatedly absorb the matching partners of all spanned
    head edges, failing on any unmatched head edge.
    """
    if not b.left:
        return None
    pair_right = {e: a for a, e in matching.items()}

    unmatched = [a for a in b.left if a not in matching]
    if unmatched:
        crown: set[int] = set(unmatched)
        queue = deque(unmatched)
        seen_right: set[Edge] = set()
        while queue:
            a = queue.popleft()
            for e in b.adj[a]:
                if e in seen_right:
                    continue
                seen_right.add(e)
                partner = pair_right.get(e)
                if partner is not None and partner not in crown:
                    crown.add(partner)
                    queue.append(partner)
        fc = _assemble(b, crown, pair_right)
        if fc is not None and verify_crown(b.graph, fc):
            return fc

    for a in b.left:
        crown = {a}
        queue = deque([a])
        ok = True
        while queue and ok:
            c = queue.popleft()
            for e in b.adj[c]:
                partner = pair_right.get(e)
                if partner is None:
                    ok = False
                    break
                if partner not in crown:
                    crown.add(partner)
                    queue.append(partner)
        if not ok:
            continue
        fc = _assemble(b, crown, pair_right)
        if fc is not None and verify_crown(b.graph, fc):
            return fc
    return None


def verify_crown(g: Graph, fc: FatHeadCrown) -> bool:
    """Check all four crown properties (plus nonemptiness) against ``g``."""
    if not fc.crown or not fc.head:
        return False
    if any(not g.has_vertex(c) for c in fc.crown):
        return False
    # 1: independence
    for c in fc.crown:
        if g.adj[c] & fc.crown:
            return False
    # 2: head is exactly the span set of the crown
    spanned: set[Edge] = set()
    for c in fc.crown:
        spanned.update(spanned_edges(g, c))
    if spanned != fc.head:
        return False
    # 3: crown neighbors stay inside V(H)
    head_vertices = {v for e in fc.head for v in e}
    for c in fc.crown:
        if g.adj[c] - head_vertices:
            return False
    # 4: witness packing saturates the head with edge-disjoint triangles
    if len(fc.witness) != len(fc.head):
        return False
    used_heads: set[Edge] = set()
    used_edges: set[Edge] = set()
    for c, e in fc.witness:
        u, w = e
        if c not in fc.crown or e not in fc.head or e in used_heads:
            return False
        if not (g.has_edge(u, w) and c in g.adj[u] and c in g.adj[w]):
            return False
        tri = {e, edge_key(c, u), edge_key(c, w)}
        if tri & used_edges:
            return False
        used_heads.add(e)
        used_edges.update(tri)
        # exactly one crown vertex and one head edge per witness triangle
        if u in fc.crown or w in fc.crown:
            return False
        if edge_key(c, u) in fc.head or edge_key(c, w) in fc.head:
            return False
    return True

