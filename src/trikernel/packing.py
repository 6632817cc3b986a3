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
    in_triangle_avoiding,
    packs,
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
        es = triangle_edges(t)
        if (any(self.edge_index.get(e) != t for e in es)
                or t not in self.triangles):
            raise GraphError(f"triangle {t} is not packed")
        self.triangles.remove(t)
        for e in es:
            del self.edge_index[e]

    def vertex_set(self) -> set[int]:
        return {v for t in self.triangles for v in t}

    def sorted_triangles(self) -> list[Triangle]:
        return sorted(self.triangles)

    def validate(self, g: Graph) -> None:
        """Raise unless this is a well-formed packing on ``g``."""
        if not packs(g, self.triangles):
            raise GraphError("packed triangles leave the graph or share an edge")
        if set(self.edge_index) != {e for t in self.triangles
                                    for e in triangle_edges(t)}:
            raise GraphError("edge index out of sync with triangle list")


def greedy_maximal_packing(g: Graph) -> TrianglePacking:
    """Greedy packing over the lexicographic triangle order (deterministic).

    A ``u < v < w`` walk over the neighbour masks (:meth:`Graph.masks`),
    whose bits ascend with the ids; ``avail`` masks each vertex's neighbours
    through an edge not yet packed.  ``free`` holds ``u``'s free neighbours
    above ``u`` not yet visited as ``v``, so ``free & avail[v]`` is every
    ``w > v`` that completes a fitting triangle; its lowest bit is the one
    the lexicographic order tries first, and packing it blocks ``(u, v)``
    for every other ``w``.  A packed ``(u, v, w)`` leaves ``avail`` of
    ``v`` and ``w`` without each other; the bits of ``u`` it leaves, since
    only vertices above ``u`` are read from here on.  Extra memory is a
    copy of the masks, at most the size of the adjacency sets.  The walk
    fills the triangle list and edge index as :meth:`TrianglePacking.add`
    would, and checks disjointness once: three index entries per triangle.
    A graph
    whose masks do not fit gets :func:`remaximalize`'s full pass instead,
    which tries every triangle in the same lexicographic order on the
    adjacency sets and so packs the same triangles; its extra memory is the
    list of all triangles.
    """
    masks = g.masks()
    if masks.of is None:
        return remaximalize(g, TrianglePacking(), g.edges())
    s = TrianglePacking()
    triangles, index = s.triangles, s.edge_index
    ids, pos = masks.ids, masks.pos
    avail = dict(masks.of)
    for u in ids:
        au = avail.get(u)
        if au is None:  # gone
            continue
        free = au & -(2 << pos[u])  # the bits above u's
        while free:
            bv = free & -free
            free ^= bv
            v = ids[bv.bit_length() - 1]
            cand = free & avail[v]
            if cand:
                bw = cand & -cand
                w = ids[bw.bit_length() - 1]
                t = (u, v, w)
                triangles.append(t)
                index[u, v] = index[u, w] = index[v, w] = t
                free ^= bw
                avail[v] ^= bw
                avail[w] ^= bv
    if len(index) != 3 * len(triangles):
        raise GraphError("greedy packing put an edge in two triangles")
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


def labeled_edges(g: Graph, s: TrianglePacking) -> set[Edge]:
    """Packed edges spanned by at least one vertex outside the packing.

    One question per packed edge, asked on the adjacency sets: it builds no
    masks."""
    adj = g.adj
    free = g.vertex_set() - s.vertex_set()
    return {(u, v) for u, v in s.edge_index if not free.isdisjoint(adj[u] & adj[v])}


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
        if any(in_triangle_avoiding(g, e, labeled) for e in plain):
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

    def component_vertices(self, v: int) -> list[int]:
        return self.members[self.component_of[v]]


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

    # Stable small ids, in the order of each component's smallest member:
    # the ascending walk meets a component first there.
    cid_of: dict[int, int] = {}
    component_of: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    for v in sorted(parent):
        cid = component_of[v] = cid_of.setdefault(find(v), len(cid_of))
        members.setdefault(cid, []).append(v)
    return ComponentIndex(component_of, members)
