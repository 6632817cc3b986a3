"""Shared builders and hypothesis strategies."""

from __future__ import annotations

from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import strategies as st

import trikernel.graph as graph_mod
from trikernel.graph import Graph


@contextmanager
def _mask_limit(bits_per_entry: int):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_mod, "MASK_BITS_PER_ENTRY", bits_per_entry)
        yield


def masks_never_fit():
    """Within it, a graph's neighbour view is built without masks, as for a
    large sparse graph (``graph.MASK_BITS_PER_ENTRY``), so every finder
    answers on the adjacency sets."""
    return _mask_limit(0)


def masks_always_fit():
    """Within it, a graph's neighbour view is built with masks and keeps
    them through every split, however large and sparse the graph grows, so
    every finder answers on the masks."""
    return _mask_limit(10**9)


def on_sets(g: Graph) -> Graph:
    """A copy of ``g`` whose neighbour view holds no masks."""
    h = g.copy()
    with masks_never_fit():
        assert h.masks().of is None or not h.adj
    return h


def complete_graph(n: int, offset: int = 0) -> Graph:
    g = Graph()
    for v in range(offset, offset + n):
        g.add_vertex(v)
    for u, v in combinations(range(offset, offset + n), 2):
        g.add_edge(u, v)
    return g


def cycle_graph(n: int) -> Graph:
    g = Graph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def petersen_graph() -> Graph:
    g = Graph()
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)          # outer cycle
        g.add_edge(i, i + 5)                # spokes
        g.add_edge(5 + i, 5 + (i + 2) % 5)  # inner pentagram
    return g


def disjoint_triangles(count: int) -> Graph:
    g = Graph()
    for i in range(count):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        g.add_edge(a, b)
        g.add_edge(a, c)
        g.add_edge(b, c)
    return g


def bowtie() -> Graph:
    """Two triangles sharing the cut vertex 0."""
    return Graph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def spanned_triangle(fans: int) -> Graph:
    """Triangle (0,1,2) plus ``fans`` outside vertices adjacent to 0 and 1."""
    g = Graph.from_edges([(0, 1), (0, 2), (1, 2)])
    for j in range(fans):
        g.add_edge(3 + j, 0)
        g.add_edge(3 + j, 1)
    return g


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    pairs = list(combinations(range(n), 2))
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                               max_size=len(pairs)))
        for u, v in chosen:
            g.add_edge(u, v)
    return g


@st.composite
def reshaped(draw, base):
    """A graph drawn from ``base``, perhaps renamed in a drawn order onto
    sparse ids near 10**9, then split at up to three vertices along drawn
    partitions of their edges: ids far apart, inserted out of id order, and
    minted by splits."""
    g = draw(base)
    if draw(st.booleans()):
        order = draw(st.permutations(sorted(g.adj)))
        name = {v: 10**9 + 7 * i for i, v in enumerate(order)}
        g = Graph.from_edges(((name[u], name[v]) for u, v in g.edges()),
                             vertices=[name[v] for v in sorted(g.adj)])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        candidates = [v for v in g.vertices() if len(g.adj[v]) >= 2]
        if not candidates:
            break
        v = draw(st.sampled_from(candidates))
        nbrs = sorted(g.adj[v])
        side = draw(st.sets(st.sampled_from(nbrs), min_size=1,
                            max_size=len(nbrs) - 1))
        g.split(v, [(v, u) for u in nbrs if u in side],
                [(v, u) for u in nbrs if u not in side])
    return g
