"""Simple undirected graphs with stable integer vertex identities.

Vertex ids are non-negative integers and are never reused: deleting a vertex
retires its id, and splitting a vertex mints two fresh ids from a monotone
counter, so transformation traces can name every vertex they ever touched.

Edges are canonical ``(u, v)`` tuples with ``u < v``; triangles are canonical
sorted 3-tuples.  All scanning helpers iterate in sorted order so that every
algorithm built on top of this module is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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


class Graph:
    """Mutable simple undirected graph.

    Mutators operate in place; the owner of a ``Graph`` is responsible for
    copying before handing it to anyone else (query methods never mutate, so
    concurrent readers are safe).
    """

    __slots__ = ("adj", "next_id", "_m")

    def __init__(self) -> None:
        self.adj: dict[int, set[int]] = {}
        self.next_id = 0
        self._m = 0

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

    def iter_edges(self) -> Iterator[Edge]:
        for u, nbrs in self.adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def has_vertex(self, v: int) -> bool:
        return v in self.adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self.adj and v in self.adj[u]

    def neighbors(self, v: int) -> set[int]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def common_neighbors(self, u: int, v: int) -> set[int]:
        return self.adj[u] & self.adj[v]

    def incident_edges(self, v: int) -> list[Edge]:
        return sorted(edge_key(v, u) for u in self.adj[v])

    # -- mutation ----------------------------------------------------------

    def add_vertex(self, v: int | None = None) -> int:
        if v is None:
            v = self.next_id
        if v < 0:
            raise GraphError(f"negative vertex id {v}")
        if v not in self.adj:
            self.adj[v] = set()
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

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"no edge {edge_key(u, v)}")
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self._m -= 1

    def remove_vertex(self, v: int) -> list[Edge]:
        """Delete ``v`` and its incident edges; returns the removed edges."""
        if v not in self.adj:
            raise GraphError(f"no vertex {v}")
        removed = self.incident_edges(v)
        for u in self.adj[v]:
            self.adj[u].discard(v)
        self._m -= len(removed)
        del self.adj[v]
        return removed

    def split(self, v: int, part1: Iterable[Edge], part2: Iterable[Edge]) -> tuple[int, int]:
        """Split ``v`` in place, attaching ``part1`` to a fresh vertex and
        ``part2`` to another.  The parts must partition the edges incident to
        ``v`` and both be nonempty; returns the two minted ids.
        """
        e1 = {edge_key(*e) for e in part1}
        e2 = {edge_key(*e) for e in part2}
        incident = set(self.incident_edges(v))
        if not e1 or not e2:
            raise GraphError("both split parts must be nonempty")
        if e1 & e2 or e1 | e2 != incident:
            raise GraphError(f"split parts do not partition edges at {v}")
        v1 = self.add_vertex()
        v2 = self.add_vertex()
        for part, fresh in ((e1, v1), (e2, v2)):
            for a, b in part:
                other = b if a == v else a
                self.remove_edge(v, other)
                self.add_edge(fresh, other)
        del self.adj[v]
        return v1, v2


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


# -- span queries ------------------------------------------------------------


def spanned_edges(g: Graph, v: int) -> list[Edge]:
    """All edges spanned by ``v``, i.e. edges between pairs of its neighbors."""
    nbrs = sorted(g.adj[v])
    out = []
    for i, u in enumerate(nbrs):
        au = g.adj[u]
        for w in nbrs[i + 1:]:
            if w in au:
                out.append((u, w))
    return out


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


def _parse_int(token: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected integer, got {token!r}", lineno) from None
    if value < 0:
        raise ParseError(f"negative vertex id {value}", lineno)
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
            declared = _parse_int(tokens[2], lineno)
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
