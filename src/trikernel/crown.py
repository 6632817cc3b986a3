"""Fat-head crown decomposition via bipartite matching.

A fat-head crown of a graph is a triple ``(C, H, X)`` with witness packing
``P``:

1. ``C`` is an independent set,
2. ``H`` is exactly the set of edges spanned by at least one vertex of ``C``,
3. no vertex of ``C`` is adjacent to a vertex of ``X`` outside ``V(H)``,
4. ``P`` matches each edge of ``H`` to a distinct vertex of ``C`` through a
   triangle, and those ``|H|`` triangles are pairwise edge-disjoint.

Detection works on the span map ``{candidate crown vertex: the head edges
it spans}``, read as a bipartite graph: its keys, ascending, are the left
side, and the edges they span the right.  A maximum matching either leaves
a left vertex unmatched (then alternating-path reachability yields a crown -
the case the kernel bound relies on) or saturates the left side, where a
sound closure heuristic still catches head sets perfectly matched into their
spanners.  Every candidate is verified against the four properties before it
is returned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import (Edge, Graph, GraphError, edge_key, iter_spanned_edges, packs,
                    spanned_edges, triangle_key)


def build_span_bipartite(g: Graph, vertices: set[int],
                         edges: set[Edge]) -> dict[int, list[Edge]]:
    """The span map ``{a: the edges a spans}``, keys ascending, over the
    vertices ``a`` of ``vertices`` that have no neighbor inside
    ``vertices``, span at least one edge of ``edges``, and span nothing
    outside ``edges`` (a vertex spanning a foreign edge can never sit in a
    crown whose head is restricted to ``edges``, so dropping it loses no
    decomposition).  Each list is in :func:`graph.spanned_edges` order, and
    a candidate is dropped at the first foreign edge it spans.
    """
    edges = {edge_key(*e) for e in edges}
    endpoint = {v for e in edges for v in e}
    if not vertices.isdisjoint(endpoint):
        raise GraphError("candidate crown vertices intersect head edge endpoints")
    span: dict[int, list[Edge]] = {}
    for a in sorted(vertices):
        if g.adj[a].isdisjoint(vertices):
            spanned = []
            for e in iter_spanned_edges(g, a):
                if e not in edges:
                    break
                spanned.append(e)
            else:
                if spanned:
                    span[a] = spanned
    return span


def max_matching(span: dict[int, list[Edge]]) -> dict[int, Edge]:
    """Maximum matching of the span map, left vertex -> head edge
    (Hopcroft-Karp layering)."""
    INF = float("inf")
    pair_left: dict[int, Edge] = {}
    pair_right: dict[Edge, int] = {}
    dist: dict[int, float] = {}

    def bfs() -> bool:
        queue: deque[int] = deque()
        for a in span:
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
            for e in span[a]:
                other = pair_right.get(e)
                if other is None:
                    found = min(found, dist[a] + 1)
                elif dist[other] == INF:
                    dist[other] = dist[a] + 1
                    queue.append(other)
        return found != INF

    def augment(root: int) -> None:
        # Depth-first search for an augmenting path along the BFS layers,
        # kept on an explicit stack: ``frames`` holds each vertex on the path
        # with its edges still to try, ``via`` the edge taken out of each.
        frames = [(root, iter(span[root]))]
        via: list[Edge] = []
        while frames:
            a, edges = frames[-1]
            for e in edges:
                other = pair_right.get(e)
                if other is None:
                    via.append(e)
                    for (x, _), f in zip(frames, via):
                        pair_left[x] = f
                        pair_right[f] = x
                    return
                if dist[other] == dist[a] + 1:
                    via.append(e)
                    frames.append((other, iter(span[other])))
                    break
            else:
                dist[a] = INF
                frames.pop()
                if via:
                    via.pop()

    while bfs():
        for a in span:
            if a not in pair_left:
                augment(a)
    return pair_left


@dataclass
class FatHeadCrown:
    crown: set[int]           # C
    head: set[Edge]           # H
    witness: list[tuple[int, Edge]]  # P: (crown vertex, head edge) pairs


def _closed_crown(g: Graph, span: dict[int, list[Edge]], seeds: list[int],
                  pair_right: dict[Edge, int]) -> FatHeadCrown | None:
    """The crown closed from ``seeds``: absorb the matching partner of every
    head edge a member spans until none is new, each head edge witnessed by
    its partner.  None when a spanned edge is unmatched (no crown of these
    vertices can hold it) or the result fails :func:`verify_crown`."""
    crown = set(seeds)
    head: set[Edge] = set()
    queue = deque(seeds)
    while queue:
        for e in span[queue.popleft()]:
            partner = pair_right.get(e)
            if partner is None:
                return None
            head.add(e)
            if partner not in crown:
                crown.add(partner)
                queue.append(partner)
    fc = FatHeadCrown(crown, head, [(pair_right[e], e) for e in sorted(head)])
    return fc if verify_crown(g, fc) else None


def extract_crown(g: Graph, span: dict[int, list[Edge]],
                  matching: dict[int, Edge]) -> FatHeadCrown | None:
    """A verified crown from the span map and its maximum matching, or None.

    The closure from the unmatched left vertices is alternating-path
    reachability (complete whenever the left side outnumbers its spanned
    head edges).  If it fails, or the left side is saturated, the closure
    from each single left vertex is tried instead.
    """
    pair_right = {e: a for a, e in matching.items()}
    unmatched = [a for a in span if a not in matching]
    for seeds in ([unmatched] if unmatched else []) + [[a] for a in span]:
        fc = _closed_crown(g, span, seeds, pair_right)
        if fc is not None:
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
    # 4: the witness takes each head edge once, through a crown vertex, and
    # its triangles pack.  By 1 and 2 no triangle holds a second crown vertex
    # or head edge: either would make two crown vertices adjacent.
    if (len(fc.witness) != len(fc.head)
            or {e for _, e in fc.witness} != fc.head
            or any(c not in fc.crown for c, _ in fc.witness)):
        return False
    return packs(g, [triangle_key(c, *e) for c, e in fc.witness])
