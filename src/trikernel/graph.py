"""Simple undirected graphs with stable integer vertex identities.

Vertex ids are non-negative integers and are never reused: deleting a vertex
retires its id, and splitting a vertex mints two fresh ids from a monotone
counter, so transformation traces can name every vertex they ever touched.

Edges are canonical ``(u, v)`` tuples with ``u < v``; triangles are canonical
sorted 3-tuples.  Every helper that returns a list of vertices, edges or
triangles returns it sorted, so that every algorithm built on top of this
module is deterministic; callers that walk ``adj`` sets unsorted (the Rule 2
and Rule 3 scans) do so only where the answer does not depend on the order.

Beside its adjacency sets a graph can hold a second, derived view of them
(:class:`Masks`): its vertices ranked by id and, where they fit, one int
mask of neighbours per vertex, so that a common-neighbour question is one
``&`` of two ints.  Bits stand for vertex ranks, never raw ids, so any
non-negative id works.  The view is built by the first query that asks for
it (:meth:`Graph.masks`; in a kernelization run, Rule 3's scan); that
build is the one write a query makes, and it is idempotent: the view
follows from ``adj`` alone and no answer depends on whether it was built
before.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterable, Iterator

Edge = tuple[int, int]
Triangle = tuple[int, int, int]


class GraphError(ValueError):
    """A structural contract was violated (self-loop, bad split, ...)."""


class ParseError(ValueError):
    """Malformed graph input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def edge_key(u: int, v: int) -> Edge:
    """Canonical form of the undirected edge between ``u`` and ``v``."""
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def triangle_key(a: int, b: int, c: int) -> Triangle:
    t = tuple(sorted((a, b, c)))
    if len(set(t)) != 3:
        raise GraphError(f"degenerate triangle {t}")
    return t  # type: ignore[return-value]


def triangle_edges(t: Triangle) -> tuple[Edge, Edge, Edge]:
    a, b, c = t
    return (a, b), (a, c), (b, c)


# A mask is as wide as the highest position it holds, so the masks of n
# vertices over w positions take up to n * w bits (n * n when built), while
# the adjacency sets take about 570 bits (Python 3.11, 64-bit) per vertex
# and per edge end.  Masks are built and kept only where n * w is at most
# this many bits per vertex and per edge end: they then hold at most about
# two thirds of what the sets hold, and one ``&`` costs O(1 + average
# degree) machine words.  Every graph with up to 256 vertices qualifies; a
# random graph of average degree 6 stops qualifying at n = 1,792.
MASK_BITS_PER_ENTRY = 256


def _masks_fit(n: int, m: int, width: int) -> bool:
    """Do ``n`` masks of at most ``width`` bits fit a graph with ``n``
    vertices and ``m`` edges?"""
    return n * width <= MASK_BITS_PER_ENTRY * (n + 2 * m)


class Masks:
    """The vertices by rank and, where they fit, one int per vertex: bit
    ``i`` of ``of[v]`` is set when ``v`` is adjacent to ``ids[i]``.

    ``ids`` holds the vertex ids by position and ascends: a build ranks the
    vertices by id, and a split's minted pair (ids above every id so far)
    takes the next two positions.  ``pos[v]`` is the position of a present
    vertex ``v``.  A vertex that is gone keeps its place in ``ids`` (walks
    skip it, as it has no ``pos`` entry), so no position moves until the
    view is built again.

    ``of`` is None when the masks would not fit (see
    ``MASK_BITS_PER_ENTRY``: a large sparse graph); the callers then answer
    on the adjacency sets, and walk ``ids`` all the same.  Once the
    positions outgrow that limit (each split appends two and retires one),
    the graph drops the view, and the next query builds it again over the
    present vertices alone.
    """

    __slots__ = ("ids", "pos", "of")

    def __init__(self, adj: dict[int, set[int]], m: int) -> None:
        self.ids = ids = sorted(adj)
        self.pos = pos = dict(zip(ids, range(len(ids))))
        if not _masks_fit(len(ids), m, len(ids)):
            self.of = None
            return
        bit = dict(zip(ids, map((1).__lshift__, range(len(ids)))))
        # distinct powers of two: their sum is their union
        self.of = dict(zip(adj, map(sum, map(map, repeat(bit.__getitem__),
                                             adj.values()))))

    def members(self, mask: int) -> list[int]:
        """The ids of the bits of ``mask``, ascending."""
        ids, out = self.ids, []
        while mask:
            low = mask & -mask
            out.append(ids[low.bit_length() - 1])
            mask ^= low
        return out


class Graph:
    """Mutable simple undirected graph.

    Mutators operate in place; the owner of a ``Graph`` is responsible for
    copying before handing it to anyone else.  Change a graph only through
    its mutators: they keep ``m`` and ``version``, the count of changes made
    to this object (a copy starts again at 0), which lets a reader tell that
    a graph it saw before is still the same.  Once a query has built the
    neighbour view (:meth:`masks`), the mutators a run makes (removals and
    splits) keep it up to date; every other mutator (``add_vertex``,
    ``add_edge``) drops it until next use, and a copy starts without it.
    That build is the only write a query makes; it changes neither ``adj``
    nor ``version``, so concurrent readers see the same answers whichever
    of them builds the masks.
    """

    __slots__ = ("adj", "next_id", "_m", "version", "_masks")

    def __init__(self) -> None:
        self.adj: dict[int, set[int]] = {}
        self.next_id = 0
        self._m = 0
        self.version = 0
        self._masks: Masks | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple[int, int]],
                   vertices: Iterable[int] = ()) -> "Graph":
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        for u, v in pairs:
            g.add_edge(u, v)
        return g

    def copy(self) -> "Graph":
        g = Graph()
        g.adj = {v: set(nbrs) for v, nbrs in self.adj.items()}
        g.next_id = self.next_id
        g._m = self._m
        return g

    # -- queries -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return self._m

    def vertices(self) -> list[int]:
        return sorted(self.adj)

    def vertex_set(self) -> set[int]:
        return set(self.adj)

    def edges(self) -> list[Edge]:
        out = [(u, v) for u, nbrs in self.adj.items() for v in nbrs if u < v]
        out.sort()
        return out

    def has_vertex(self, v: int) -> bool:
        return v in self.adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self.adj and v in self.adj[u]

    def common_neighbors(self, u: int, v: int) -> set[int]:
        return self.adj[u] & self.adj[v]

    def masks(self) -> Masks:
        """The ranks and neighbour masks, built from ``adj`` on first use.

        In a kernelization run the first use is Rule 3's scan: Rule 2 reads
        only the adjacency sets, so the view is built over what the run's
        first Rule 2 sweep left and that sweep's deletions pay no upkeep."""
        if self._masks is None:
            self._masks = Masks(self.adj, self._m)
        return self._masks

    # -- mutation ----------------------------------------------------------

    def add_vertex(self, v: int | None = None) -> int:
        if v is None:
            v = self.next_id
        if v < 0:
            raise GraphError(f"negative vertex id {v}")
        if v not in self.adj:
            self.adj[v] = set()
            self.version += 1
            self._masks = None  # built again on use
        if v >= self.next_id:
            self.next_id = v + 1
        return v

    def add_edge(self, u: int, v: int) -> None:
        edge_key(u, v)  # rejects self-loops
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self.adj[u]:
            self.adj[u].add(v)
            self.adj[v].add(u)
            self._m += 1
            self.version += 1
            self._masks = None  # built again on use

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"no edge {edge_key(u, v)}")
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self._m -= 1
        self.version += 1
        masks = self._masks
        if masks is not None and masks.of is not None:
            of, pos = masks.of, masks.pos
            of[u] ^= 1 << pos[v]
            of[v] ^= 1 << pos[u]

    def remove_vertex(self, v: int) -> None:
        """Delete ``v`` and its incident edges."""
        if v not in self.adj:
            raise GraphError(f"no vertex {v}")
        nbrs = self.adj.pop(v)
        for u in nbrs:
            self.adj[u].discard(v)
        self._m -= len(nbrs)
        self.version += 1
        masks = self._masks
        if masks is not None:
            b = 1 << masks.pos.pop(v)
            if masks.of is not None:
                del masks.of[v]
                for u in nbrs:
                    masks.of[u] ^= b

    def split(self, v: int, part1: Iterable[Edge], part2: Iterable[Edge]) -> tuple[int, int]:
        """Split ``v`` in place, attaching ``part1`` to a fresh vertex and
        ``part2`` to another.  The parts must partition the edges incident to
        ``v`` and both be nonempty, each edge written either way round;
        returns the two minted ids.  Each neighbour trades ``v`` for a fresh
        vertex, so ``m`` does not change.  The check is O(deg v): a part is
        read as the far ends of its edges (``v`` itself, no neighbour, for
        an edge that does not meet ``v`` once), and the second must hold
        exactly the neighbours the first, all neighbours, leaves out.
        """
        adj = self.adj
        nbrs = adj.get(v)
        if nbrs is None:
            raise GraphError(f"no vertex {v}")
        ends1 = {b if a == v else a if b == v else v for a, b in part1}
        ends2 = {b if a == v else a if b == v else v for a, b in part2}
        if not ends1 or not ends2:
            raise GraphError("both split parts must be nonempty")
        if not ends1 <= nbrs or ends2 != nbrs - ends1:
            raise GraphError(f"split parts do not partition edges at {v}")
        f1, f2 = minted = self.next_id, self.next_id + 1
        self.next_id += 2
        masks = self._masks  # the minted ids exceed every id, so it has room
        if masks is not None:
            ids, pos, of = masks.ids, masks.pos, masks.of
            if of is not None and not _masks_fit(len(adj) + 2, self._m, len(ids) + 2):
                masks = self._masks = None  # too wide; built again, without gaps
            else:
                pos[f1], pos[f2] = len(ids), len(ids) + 1
                ids += minted
        for fresh, ends in ((f1, ends1), (f2, ends2)):
            for u in ends:
                nb = adj[u]
                nb.remove(v)
                nb.add(fresh)
            adj[fresh] = ends
        del adj[v]
        if masks is not None:
            bv = 1 << pos.pop(v)
            if of is not None:
                part = sum(map((1).__lshift__, map(pos.__getitem__, ends1)))
                of[f1], of[f2] = part, of.pop(v) ^ part
                for fresh, ends in ((f1, ends1), (f2, ends2)):
                    swap = bv | (1 << pos[fresh])
                    for u in ends:
                        of[u] ^= swap
        self.version += 1
        return minted


# -- problem instances -----------------------------------------------------


class Variant(str, Enum):
    """The two decision problems handled by the kernelization."""

    ETP = "etp"  # pack at least k edge-disjoint triangles
    ETC = "etc"  # delete at most k edges to destroy all triangles


@dataclass
class Instance:
    graph: Graph
    k: int
    variant: Variant

    def __post_init__(self) -> None:
        # every verdict test reads ``variant is Variant.ETP``; a plain string
        # would hash like its member but read as ETC; an unknown value
        # raises ValueError
        self.variant = Variant(self.variant)


# -- span queries ------------------------------------------------------------


def spanned_edges(g: Graph, v: int) -> list[Edge]:
    """All edges spanned by ``v``, i.e. edges between pairs of its neighbors."""
    return list(iter_spanned_edges(g, v))


def iter_spanned_edges(g: Graph, v: int) -> Iterator[Edge]:
    """The edges spanned by ``v`` in :func:`spanned_edges` order, one at a
    time, so that a caller can stop at the first one it rejects."""
    nbrs = sorted(g.adj[v])
    for i, u in enumerate(nbrs):
        au = g.adj[u]
        for w in nbrs[i + 1:]:
            if w in au:
                yield u, w


def enumerate_triangles(g: Graph) -> list[Triangle]:
    """Every triangle of ``g`` once, in lexicographic order."""
    out: list[Triangle] = []
    for u in sorted(g.adj):
        au = g.adj[u]
        for v in sorted(au):
            if v <= u:
                continue
            for w in sorted(au & g.adj[v]):
                if w > v:
                    out.append((u, v, w))
    return out


# -- packing and cover validity ----------------------------------------------
#
# The two problems rest on these two facts; every packing, witness and
# crown in the package is judged by them.


def in_triangle_avoiding(g: Graph, e: Edge, avoid) -> bool:
    """Does ``e`` lie in a triangle of ``g`` whose two other edges are
    outside ``avoid`` (a set or dict of canonical edges)?"""
    u, v = e
    for w in g.adj[u] & g.adj[v]:
        if edge_key(u, w) not in avoid and edge_key(v, w) not in avoid:
            return True
    return False


def packs(g: Graph, triangles: Iterable[Triangle]) -> bool:
    """The canonical ``triangles`` are triangles of ``g`` and share no edge."""
    adj = g.adj
    used: set[Edge] = set()
    for t in triangles:
        for e in triangle_edges(t):
            u, v = e
            if e in used or u not in adj or v not in adj[u]:
                return False
            used.add(e)
    return True


def covers(g: Graph, edges) -> bool:
    """Every triangle of ``g`` has an edge in ``edges`` (a set or dict of
    canonical edges; any other pair of vertex ids counts for nothing): once
    they are deleted, the ends of no remaining edge share a neighbour."""
    cut: dict[int, set[int]] = {}
    for u, v in edges:
        if u < v:
            cut.setdefault(u, set()).add(v)
            cut.setdefault(v, set()).add(u)
    rest = {u: nbrs - cut[u] if u in cut else nbrs for u, nbrs in g.adj.items()}
    for u, nbrs in rest.items():
        for v in nbrs:
            if u < v and not nbrs.isdisjoint(rest[v]):
                return False
    return True


# -- parsing / serialization -------------------------------------------------


def load_graph(text: str, fmt: str = "edgelist") -> Graph:
    """Parse ``text`` as an edge list or a DIMACS-like description.

    Edge list: one ``u v`` pair per line, whitespace separated, ``#`` starts a
    comment, except that a line starting ``# isolated:`` lists vertices with
    no edges (as :func:`dump_edgelist` writes them).  DIMACS: a ``p edge n m``
    header followed by ``e u v`` lines, ``c`` comments allowed.  Duplicate edges collapse; self-loops are errors.
    """
    if fmt == "edgelist":
        return _load_edgelist(text)
    if fmt == "dimacs":
        return _load_dimacs(text)
    raise ValueError(f"unknown graph format {fmt!r}")


_ISOLATED = "# isolated:"


def _parse_int(token: str, lineno: int, what: str = "vertex id") -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected integer, got {token!r}", lineno) from None
    if value < 0:
        raise ParseError(f"negative {what} {value}", lineno)
    return value


def _load_edgelist(text: str) -> Graph:
    g = Graph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith(_ISOLATED):
            for token in raw[len(_ISOLATED):].split():
                g.add_vertex(_parse_int(token, lineno))
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'u v', got {raw.strip()!r}", lineno)
        u, v = (_parse_int(t, lineno) for t in tokens)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        g.add_edge(u, v)
    return g


# A DIMACS header makes the reader add vertices 1..n before any edge line, so
# a few bytes of input could ask for any amount of memory (``p edge 200000 0``
# already takes about 60 MB).  A header above this is refused.
MAX_DIMACS_VERTICES = 100_000


def _load_dimacs(text: str) -> Graph:
    g = Graph()
    declared: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if declared is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"expected 'p edge n m', got {raw.strip()!r}", lineno)
            declared = _parse_int(tokens[2], lineno, "vertex count")
            _parse_int(tokens[3], lineno, "edge count")
            if declared > MAX_DIMACS_VERTICES:
                raise ParseError(f"header declares {declared} vertices, more than "
                                 f"the {MAX_DIMACS_VERTICES} this reader accepts",
                                 lineno)
            for v in range(1, declared + 1):
                g.add_vertex(v)
        elif tokens[0] == "e":
            if declared is None:
                raise ParseError("edge line before problem line", lineno)
            if len(tokens) != 3:
                raise ParseError(f"expected 'e u v', got {raw.strip()!r}", lineno)
            u, v = (_parse_int(t, lineno) for t in tokens[1:])
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            if not (1 <= u <= declared and 1 <= v <= declared):
                raise ParseError(f"vertex out of declared range: {raw.strip()!r}", lineno)
            g.add_edge(u, v)
        else:
            raise ParseError(f"unknown line type {tokens[0]!r}", lineno)
    if declared is None:
        raise ParseError("missing 'p edge' header", len(text.splitlines()) or 1)
    return g


def dump_edgelist(g: Graph) -> str:
    """Serialize; isolated vertices ride along on an ``# isolated:`` line,
    which other readers skip as a comment and :func:`load_graph` restores."""
    lines = [f"{u} {v}" for u, v in g.edges()]
    isolated = [v for v in g.vertices() if not g.adj[v]]
    if isolated:
        lines.append(_ISOLATED + " " + " ".join(str(v) for v in isolated))
    return "\n".join(lines) + ("\n" if lines else "")
