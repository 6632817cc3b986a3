"""Maximal edge-disjoint triangle packings and their derived structures.

Everything downstream of the four structural rules is driven by one working
packing ``S``: the free vertices ``F`` (not in any packed triangle), the free
edges ``R``, the labeled edges (packed edges spanned from ``F``), the
excellent / pretty-good / bad triangle classification, and the connected
components of the subgraph carrying the packed edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graph import (
    Edge,
    Graph,
    GraphError,
    Triangle,
    edge_key,
    triangle_edges,
    triangle_key,
)


class TrianglePacking:
    """An edge-disjoint set of triangles with an edge -> triangle index."""

    __slots__ = ("triangles", "edge_index")

    def __init__(self) -> None:
        self.triangles: list[Triangle] = []
        self.edge_index: dict[Edge, Triangle] = {}

    def __len__(self) -> int:
        return len(self.triangles)

    def __contains__(self, t: Triangle) -> bool:
        return self.edge_index.get(triangle_edges(t)[0]) == t

    def copy(self) -> "TrianglePacking":
        s = TrianglePacking()
        s.triangles = list(self.triangles)
        s.edge_index = dict(self.edge_index)
        return s

    def add(self, t: Triangle) -> None:
        es = triangle_edges(t)
        for e in es:
            if e in self.edge_index:
                raise GraphError(f"edge {e} already packed by {self.edge_index[e]}")
        for e in es:
            self.edge_index[e] = t
        self.triangles.append(t)

    def remove(self, t: Triangle) -> None:
        self.triangles.remove(t)
        for e in triangle_edges(t):
            del self.edge_index[e]

    def edge_set(self) -> set[Edge]:
        return set(self.edge_index)

    def vertex_set(self) -> set[int]:
        return {v for t in self.triangles for v in t}

    def sorted_triangles(self) -> list[Triangle]:
        return sorted(self.triangles)

    def validate(self, g: Graph) -> None:
        """Raise unless this is a well-formed packing on ``g``."""
        seen: set[Edge] = set()
        for t in self.triangles:
            for e in triangle_edges(t):
                if not g.has_edge(*e):
                    raise GraphError(f"packed edge {e} missing from graph")
                if e in seen:
                    raise GraphError(f"edge {e} shared by two packed triangles")
                seen.add(e)
        if seen != set(self.edge_index):
            raise GraphError("edge index out of sync with triangle list")

    def is_maximal(self, g: Graph) -> bool:
        packed = self.edge_index
        for u, v in g.iter_edges():
            if (u, v) in packed:
                continue
            for w in g.common_neighbors(u, v):
                if (edge_key(u, w) not in packed
                        and edge_key(v, w) not in packed):
                    return False
        return True


def greedy_maximal_packing(g: Graph) -> TrianglePacking:
    """Greedy packing over the lexicographic triangle order (deterministic)."""
    s = TrianglePacking()
    _extend_greedily(g, s)
    return s


def remaximalize(g: Graph, s: TrianglePacking,
                 freed: Iterable[Edge]) -> TrianglePacking:
    """Grow ``s`` in place by the triangles through ``freed``; never removes.

    ``s`` was maximal before some of its triangles were swapped out, and
    ``freed`` holds the edges the swap released.  Every triangle that was
    blocked before is still blocked unless one of its packed edges was
    freed, so only triangles through a freed edge can enter; they are tried
    in lexicographic order, which gives the packing a full greedy pass
    gives.  With ``freed = g.edges()`` this is that full pass, and ``s``
    need not have been maximal.
    """
    packed = s.edge_index
    adj = g.adj
    candidates = set()
    for u, v in freed:
        if (u, v) not in packed:
            for w in adj[u] & adj[v]:
                candidates.add(triangle_key(u, v, w))
    for t in sorted(candidates):
        a, b, c = t
        if (a, b) not in packed and (a, c) not in packed and (b, c) not in packed:
            s.add(t)
    return s


def _extend_greedily(g: Graph, s: TrianglePacking) -> None:
    """Add every triangle that fits, in lexicographic order.

    One sorted ``u < v < w`` walk: a packed ``(u, v)`` blocks every ``w``,
    and once ``(u, v, w)`` is added, ``(u, v)`` is packed, so the walk moves
    on to the next ``v``.
    """
    packed = s.edge_index
    adj = g.adj
    for u in sorted(adj):
        au = adj[u]
        for v in sorted(x for x in au if x > u):
            if (u, v) in packed:
                continue
            for w in sorted(x for x in au & adj[v] if x > v):
                if (u, w) not in packed and (v, w) not in packed:
                    s.add((u, v, w))
                    break


def labeled_edges(g: Graph, s: TrianglePacking) -> set[Edge]:
    """Packed edges spanned by at least one vertex outside the packing."""
    free = g.vertex_set() - s.vertex_set()
    out = set()
    for u, v in s.edge_index:
        if g.common_neighbors(u, v) & free:
            out.add((u, v))
    return out


@dataclass
class TriangleClassification:
    """Split of the packing into excellent / pretty-good / bad triangles.

    A packed triangle is good when it carries a labeled edge; on a fully
    reduced instance it carries exactly one (triangles with two or more are
    reported in ``multi_label_violations`` instead of raising, so audits can
    observe partially reduced graphs).  A good triangle is excellent when its
    two unlabeled edges lie in no triangle of the graph with all labeled
    edges removed, pretty-good otherwise.
    """

    labeled: set[Edge]
    excellent: list[Triangle] = field(default_factory=list)
    pretty_good: list[Triangle] = field(default_factory=list)
    bad: list[Triangle] = field(default_factory=list)
    v1: set[int] = field(default_factory=set)
    v2: set[int] = field(default_factory=set)
    multi_label_violations: list[Triangle] = field(default_factory=list)

    @property
    def k1(self) -> int:
        return len(self.excellent)

    @property
    def k2(self) -> int:
        return len(self.pretty_good)

    @property
    def k3(self) -> int:
        return len(self.bad)

    def labeled_edge_of(self, t: Triangle) -> Edge | None:
        for e in triangle_edges(t):
            if e in self.labeled:
                return e
        return None


def _edge_in_triangle_without(g: Graph, e: Edge, removed: set[Edge]) -> bool:
    """Does ``e`` lie in a triangle of ``g`` minus the ``removed`` edges?"""
    u, v = e
    for w in g.common_neighbors(u, v):
        if edge_key(u, w) not in removed and edge_key(v, w) not in removed:
            return True
    return False


def classify_triangles(g: Graph, s: TrianglePacking,
                       labeled: set[Edge]) -> TriangleClassification:
    cls = TriangleClassification(labeled=set(labeled))
    for t in s.sorted_triangles():
        tagged = [e for e in triangle_edges(t) if e in labeled]
        if not tagged:
            cls.bad.append(t)
            continue
        if len(tagged) > 1:
            cls.multi_label_violations.append(t)
        plain = [e for e in triangle_edges(t) if e not in labeled]
        if any(_edge_in_triangle_without(g, e, labeled) for e in plain):
            cls.pretty_good.append(t)
        else:
            cls.excellent.append(t)

    v_of = lambda ts: {v for t in ts for v in t}
    v_labeled = {v for e in labeled for v in e}
    cls.v1 = (v_of(cls.excellent)
              - (v_labeled | v_of(cls.pretty_good) | v_of(cls.bad)))
    cls.v2 = v_of(cls.pretty_good) - v_labeled
    return cls


@dataclass
class ComponentIndex:
    """Connected components of the subgraph (V(S), E(S))."""

    component_of: dict[int, int]
    members: dict[int, list[int]]

    def of(self, v: int) -> int:
        return self.component_of[v]

    def component_vertices(self, v: int) -> list[int]:
        return self.members[self.component_of[v]]

    def __len__(self) -> int:
        return len(self.members)


def triangle_components(s: TrianglePacking) -> ComponentIndex:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for t in s.triangles:
        for v in t:
            parent.setdefault(v, v)
        a = find(t[0])
        for v in t[1:]:
            parent[find(v)] = a

    groups: dict[int, list[int]] = {}
    for v in sorted(parent):
        groups.setdefault(find(v), []).append(v)
    # Stable small ids, assigned by smallest member vertex.
    component_of: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    for cid, (_, verts) in enumerate(sorted((vs[0], vs) for vs in groups.values())):
        members[cid] = verts
        for v in verts:
            component_of[v] = cid
    return ComponentIndex(component_of, members)
