"""Exact desk-scale solvers for both triangle problems.

Both solvers run branch-and-bound over the enumerated triangle list with
edges packed into bitmasks; no external solver is involved, and results are
deterministic.  Every node of either search is bounded, and the nodes wait
on an explicit stack, so no input can exhaust the recursion limit:

* packing includes or excludes the next triangle of the lexicographic list
  and bounds each node by a per-vertex degree bound over the edges its
  candidates still use and by a greedy edge cover of its candidates (any
  edge set meeting every candidate caps the packing, since packed
  triangles need distinct edges: ``nu <= tau``);
* covering is 3-Hitting Set branching that partitions the covers: delete
  one allowed edge of the live triangle with the fewest, forbidding the
  edges tried before it, and bound each node below by live triangles whose
  allowed edges are pairwise disjoint, counted again from a kept packing's
  live triangles where that count falls one short.  Its nodes hold
  triangle bitsets.

Both count the nodes they expand in ``OracleResult.nodes``.

They exist to ground-truth the reduction rules, so they refuse (rather than
approximate) an instance over their size budget: one with more than
``MAX_VERTICES`` vertices *and* more than ``MAX_TRIANGLES`` triangles.  An
instance within either limit is always searched.

``limit`` trades exactness above a threshold for speed: a packing search
stops once it holds more than ``limit`` triangles (``exact=False``), and a
covering search explores only covers of at most ``limit + 1`` edges,
reporting ``limit + 1`` with ``exact=False`` and no witness when the true
optimum lies above.  Decisions for any ``k <= limit`` are unaffected.

Each thread keeps its last triangle list and both solvers' results on it,
each with the ``limit`` it ran under, and a copy of the last graph served,
so a caller that asks about the same triangles again -- both problems of
one graph, every reduced k of one input (they share one kernel), a kernel
that keeps the input's triangles -- is answered without a search.  The
searches read only the triangle list: an edge in no triangle never reaches
a mask and leaves the order of the others alone, so two graphs with one
list get the same search.  A call first compares ``adj`` with the kept
copy; if that differs, it lists the triangles and compares them with the
kept list, and a match moves the memo onto a copy of the caller's graph;
a search on any other list starts a fresh memo, which replaces the kept
one once a result is kept.  A call is answered from the memo only when a
cold call would return exactly the same optimum, witness and ``exact``
flag:

* packing: an exact optimum ``p`` answers ``limit=None`` and every
  ``limit >= p``;
* covering: an exact optimum ``t`` answers every limit, with the optimum
  and its witness when ``limit`` is ``None`` or at least ``t - 1``, and
  with ``(limit + 1, None, False)`` below that; a lower bound reached under
  ``limit=L`` answers every ``limit <= L``.

Anything else is searched, and its result is kept, except that an inexact
result never replaces an exact one; a triangle-free graph is answered from
its listing and not kept.  A hit still applies the size budget (to the
caller's graph and its triangle count), re-checks the witness against the
caller's graph and hands out a fresh list.  The memo is read inside each
solver, not by a wrapper, so no search runs a frame deeper.

The kept results bound both searches, since a packing's triangles need
distinct cover edges (``nu <= tau``):

* covering takes ``L``, the largest lower bound on ``tau`` kept: the size
  of a kept packing (exact or not: it was found and checked), a kept cover
  optimum, or the ``limit + 1`` an inexact cover search reported.  With
  ``limit + 1 < L`` it answers ``(limit + 1, None, False)`` unsearched; a
  greedy cover of ``L`` edges is not searched past, and the search stops at
  the first cover of ``L`` edges;
* packing takes ``U``, the least exact optimum kept of either problem (an
  inexact one is no upper bound).  A greedy packing of ``U`` triangles is
  not searched past, and the search stops at the first packing of ``U``
  after the ``limit`` test.

A cold search keeps the first incumbent of each size it reaches in DFS
order and only a larger packing (a smaller cover) replaces it.  None exists
past a bound, so the incumbent a bounded search stops at is the cold
search's witness.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import NamedTuple

from .graph import (
    Edge,
    Graph,
    GraphError,
    Instance,
    Triangle,
    Variant,
    covers,
    enumerate_triangles,
    packs,
    triangle_edges,
)

MAX_VERTICES = 16
MAX_TRIANGLES = 60


class OracleBudgetError(RuntimeError):
    """Instance exceeds the exact-solver size budget."""


def _check_budget(g: Graph, triangles: int, budget: bool) -> None:
    if budget and g.n > MAX_VERTICES and triangles > MAX_TRIANGLES:
        raise OracleBudgetError(
            f"instance too large for exact solving: n={g.n} > {MAX_VERTICES} "
            f"and {triangles} triangles > {MAX_TRIANGLES}")


@dataclass
class OracleResult:
    """A solve's answer; ``nodes`` counts the search nodes it expanded (0
    when no search ran) and takes no part in equality."""

    optimum: int
    witness: list | None
    exact: bool = True
    nodes: int = field(default=0, compare=False)


def _edge_bits(g: Graph) -> dict[Edge, int]:
    """Each edge's bit position: its place in sorted order."""
    return {e: i for i, e in enumerate(g.edges())}


def _incidence(g: Graph, triangles: list[Triangle]) -> tuple[
        dict[Edge, int], list[tuple[int, int, int]], list[int], list[int]]:
    """The edges' bit positions, each triangle's three positions, for each
    position the bitset of the triangles (by list index) through it, and
    for each triangle the bitset of those sharing an edge with it (itself
    included)."""
    pos = _edge_bits(g)
    corners = [(pos[e1], pos[e2], pos[e3])
               for e1, e2, e3 in map(triangle_edges, triangles)]
    hit = [0] * len(pos)
    for i, (a, b, c) in enumerate(corners):
        t = 1 << i
        hit[a] |= t
        hit[b] |= t
        hit[c] |= t
    return pos, corners, hit, [hit[a] | hit[b] | hit[c] for a, b, c in corners]


class _Kept(NamedTuple):
    limit: int | None
    optimum: int
    witness: tuple | None  # a tuple, so no caller can change it
    exact: bool


class _Memo:
    """This thread's last triangle list and both solvers' results on it
    (module docstring): ``graph`` is a private copy of the last graph
    served (``None`` until a result is kept) and ``etp`` and ``etc`` each
    hold a :class:`_Kept` or ``None``.  The search never reads ``budget``,
    so a result found without the budget serves calls with it."""

    __slots__ = ("graph", "triangles", "etp", "etc")

    def __init__(self, triangles: list[Triangle]) -> None:
        self.graph = None
        self.triangles = triangles
        self.etp = self.etc = None


_thread = threading.local()  # .memo: this thread's _Memo


def _recall(g: Graph) -> _Memo:
    """This thread's memo if it was made on ``g``'s triangle list, else a
    fresh one on that list, kept only once a result is.  Equal adjacency
    needs no listing; a match on the listed triangles moves the memo onto
    a copy of ``g``, so the next call on ``g`` matches on adjacency."""
    memo = getattr(_thread, "memo", None)
    if memo is not None:
        h = memo.graph
        if h.m == g.m and h.n == g.n and h.adj == g.adj:
            return memo
    triangles = enumerate_triangles(g)
    if memo is not None and memo.triangles == triangles:
        memo.graph = g.copy()
        return memo
    return _Memo(triangles)


def _bounds(memo: _Memo) -> tuple[int, int | None]:
    """A lower bound on the cover optimum of ``memo``'s list and an upper
    bound on its packing optimum (``None`` if none is known), from its
    kept results; ``nu <= tau`` lets each optimum bound the other
    problem."""
    lower, upper = 0, None
    for kept in (memo.etp, memo.etc):
        if kept is None:
            continue
        # a packing found, a cover optimum, or the ``limit + 1`` that an
        # inexact cover search proved: each is at most tau
        lower = max(lower, kept.optimum)
        if kept.exact and (upper is None or kept.optimum < upper):
            upper = kept.optimum
    return lower, upper


def _keep(memo: _Memo, solver: str, g: Graph, limit: int | None,
          res: OracleResult) -> None:
    """Keep ``res`` of a search of ``g`` in ``memo`` unless an exact result
    of ``solver`` is kept there; a fresh memo replaces this thread's."""
    kept = getattr(memo, solver)
    if kept is None or res.exact or not kept.exact:
        witness = None if res.witness is None else tuple(res.witness)
        setattr(memo, solver, _Kept(limit, res.optimum, witness, res.exact))
    if memo.graph is None:
        memo.graph = g.copy()
        _thread.memo = memo


def solve_etp_exact(g: Graph, *, limit: int | None = None,
                    budget: bool = True) -> OracleResult:
    """Maximum edge-disjoint triangle packing.

    Branch-and-bound over the lexicographic triangle list from the greedy
    lexicographic packing as incumbent: a node takes its first candidate
    (include) before it drops it (exclude).  Every node is bounded by the
    least of its candidate count, ``floor(free/3)``, the per-vertex degree
    bound ``sum_v floor(|union & star[v]|/2) // 3``, where ``union`` holds
    the edges of its candidates and ``star[v]`` those at ``v`` (a packed
    triangle uses two edges at each corner), and the size of a greedy edge
    cover of its candidates: take the lowest candidate left and drop the
    candidates through whichever of its three edges meets the most of them,
    until none is left (packed triangles need distinct edges, so no packing
    of the candidates is larger); it stops once it is too large to cut the
    node.  A node holds its candidates both as a list of edge masks and as
    a triangle bitset, on which each cover step and the include child's
    candidates take a few ``&`` of ``hit`` sets.  A bound only cuts
    subtrees that cannot beat the incumbent, so it changes neither the
    incumbents nor the witness.  The nodes wait on an explicit stack.  The
    memo may answer instead, and a kept optimum may end the search (module
    docstring).
    """
    memo = _recall(g)
    triangles, kept = memo.triangles, memo.etp
    _check_budget(g, len(triangles), budget)
    if kept is not None and kept.exact and (limit is None or limit >= kept.optimum):
        witness = list(kept.witness)
        if not packs(g, witness):
            raise GraphError(f"kept packing witness {witness} is not a packing")
        return OracleResult(kept.optimum, witness, True)
    if not triangles:
        return OracleResult(0, [])
    upper = _bounds(memo)[1]

    pos, corners, hit, near = _incidence(g, triangles)
    masks = [1 << a | 1 << b | 1 << c for a, b, c in corners]
    hits = [(hit[a], hit[b], hit[c]) for a, b, c in corners]
    star: dict[int, int] = {}
    for (u, v), i in pos.items():
        star[u] = star.get(u, 0) | 1 << i
        star[v] = star.get(v, 0) | 1 << i
    stars = [s for s in star.values() if s & (s - 1)]  # one edge adds 0

    # Greedy incumbent: the lexicographic maximal packing.
    incumbent: list[int] = []
    used = 0
    for m in masks:
        if not used & m:
            incumbent.append(m)
            used |= m
    best, best_set, exact = len(incumbent), tuple(incumbent), True

    nodes = 0
    if limit is not None and best > limit:
        exact = False
    elif best != upper:
        # A node: (candidate masks, the same candidates as a triangle
        # bitset, depth, chosen masks).
        stack: list[tuple[list[int], int, int, tuple[int, ...]]] = [
            (masks, (1 << len(masks)) - 1, 0, ())]
        while stack:
            cand, live, depth, chosen = stack.pop()
            nodes += 1
            if depth > best:
                best, best_set = depth, chosen
                if limit is not None and depth > limit:
                    exact = False
                    break
                if depth == upper:
                    break
            room = best - depth
            if len(cand) <= room:
                continue
            union = reduce(or_, cand)
            # The edge count is cheaper; the degree bound is never weaker.
            if union.bit_count() // 3 <= room or sum([
                    (union & s).bit_count() >> 1 for s in stars]) // 3 <= room:
                continue
            # Greedy cover: an edge of the lowest live candidate that meets
            # the most of them, until none is left or ``room`` are taken.
            rest = live
            for _ in range(room):
                x, y, z = hits[(rest & -rest).bit_length() - 1]
                x &= rest
                y &= rest
                z &= rest
                if y.bit_count() > x.bit_count():
                    x = y
                if z.bit_count() > x.bit_count():
                    x = z
                rest ^= x
                if not rest:
                    break
            if not rest:
                continue
            head, tail = cand[0], cand[1:]
            low = live & -live
            stack.append((tail, live ^ low, depth, chosen))
            stack.append(([m for m in tail if not m & head],
                          live & ~near[low.bit_length() - 1], depth + 1,
                          chosen + (head,)))

    triangle_of = dict(zip(masks, triangles))
    witness = sorted(triangle_of[m] for m in best_set)
    if len(witness) != best or not packs(g, witness):
        raise GraphError(f"packing witness {witness} is not {best} "
                         "edge-disjoint triangles")
    res = OracleResult(best, witness, exact, nodes)
    _keep(memo, "etp", g, limit, res)
    return res


def solve_etc_exact(g: Graph, *, limit: int | None = None,
                    budget: bool = True) -> OracleResult:
    """Minimum edge set meeting every triangle.

    3-Hitting Set branching that partitions the covers (Niedermeier &
    Rossmanith, J. Discrete Algorithms 2003): each node holds the live
    (unhit) triangles, the deleted edges and a set of forbidden edges.  It
    picks the live triangle with the fewest allowed edges; branch ``i``
    deletes that triangle's ``i``-th allowed edge and forbids the ones tried
    before it, so no cover is searched twice.  The edges are tried in order
    of how many live triangles each hits.  Every live triangle keeps an
    allowed edge: a branch forbids edges only when its pick has two or more
    allowed edges, so then every live triangle has two or more, and each
    other triangle shares at most one edge with the pick.  The node is
    bounded below by a greedy count of live triangles whose allowed edges
    are pairwise disjoint (each needs its own deleted edge), taken fewest
    allowed edges first.  When
    that count falls one short of closing the node and a packing of these
    triangles is kept, the count is taken again from the packing's live
    triangles, which are edge-disjoint.  The nodes wait on an explicit
    stack.

    A node's sets are bitsets over the triangle list: ``hit[j]`` holds the
    triangles through edge ``j``, so a child's live triangles are ``live &
    ~hit[j]``, and two bit-sliced counters hold the triangles with at
    least one and two forbidden edges, which forbidding an edge updates in
    O(1).  The memo may answer instead, and a kept packing may
    end the search (module docstring).
    """
    memo = _recall(g)
    triangles, kept = memo.triangles, memo.etc
    _check_budget(g, len(triangles), budget)
    if kept is not None and (kept.exact or limit is not None and limit <= kept.limit):
        if not kept.exact or limit is not None and limit < kept.optimum - 1:
            return OracleResult(limit + 1, None, False)
        witness = list(kept.witness)
        if not covers(g, set(witness)):
            raise GraphError(f"kept cover witness {witness} is not a cover")
        return OracleResult(kept.optimum, witness, True)
    if not triangles:
        return OracleResult(0, [])
    lower = _bounds(memo)[0]
    if limit is not None and lower > limit + 1:
        res = OracleResult(limit + 1, None, False)
        _keep(memo, "etc", g, limit, res)
        return res

    pos, corners, hit, near = _incidence(g, triangles)
    packed = 0
    if memo.etp is not None:
        index = {t: i for i, t in enumerate(triangles)}
        for t in memo.etp.witness:
            packed |= 1 << index[t]

    greedy = _greedy_cover(hit, corners)
    # ``cap`` is exclusive: only covers smaller than it are searched.  With
    # a limit and a greedy cover above ``limit + 1``, covers up to
    # ``limit + 1`` are searched and no witness is held until one is found.
    best: int | None
    if limit is None or len(greedy) <= limit + 1:
        cap, best = len(greedy), sum(1 << j for j in greedy)
    else:
        cap, best = limit + 2, None

    # A node: (live, deleted, count, forbidden, and the live-or-not
    # triangles with at least one and two forbidden edges).  A cover of
    # ``lower`` edges is optimal, so none is searched past.
    full = (1 << len(triangles)) - 1
    stack = [(full, 0, 0, 0, 0, 0)] if cap > lower else []
    nodes = 0
    while stack:
        live, deleted, count, forbidden, one, two = stack.pop()
        if count >= cap:
            continue
        nodes += 1
        if not live:
            cap, best = count, deleted
            if count == lower:
                break
            continue
        # Fewest allowed edges first, then triangle order: the pick is the
        # first triangle the bound counts.
        classes = (live & two, live & one & ~two, live & ~one)
        first = classes[0] or classes[1] or classes[2]
        i = (first & -first).bit_length() - 1
        room = cap - count
        bound, blocked, seeded = 0, 0, False
        while True:
            for cls in classes:
                cls &= ~blocked
                while cls and bound < room:
                    j = (cls & -cls).bit_length() - 1
                    bound += 1
                    if one >> j & 1:
                        for e in corners[j]:
                            if not forbidden >> e & 1:
                                blocked |= hit[e]
                    else:
                        blocked |= near[j]
                    cls &= ~blocked
            if bound != room - 1 or seeded or not live & packed:
                break
            # One short: count again from the kept packing's live triangles.
            seeded, rest = True, live & packed
            bound, blocked = rest.bit_count(), 0
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                for e in corners[j]:
                    if not forbidden >> e & 1:
                        blocked |= hit[e]
        if bound >= room:
            continue
        branch = sorted((-(hit[e] & live).bit_count(), e) for e in corners[i]
                        if not forbidden >> e & 1)
        children = []
        for _, e in branch:
            h = hit[e]
            children.append((live & ~h, deleted | 1 << e, count + 1, forbidden,
                             one, two))
            forbidden |= 1 << e
            two |= one & h
            one |= h
        stack.extend(reversed(children))

    if best is None:
        # Nothing of size <= limit + 1 exists; only a lower bound is known.
        res = OracleResult(cap - 1, None, False, nodes)
    else:
        edges = list(pos)
        witness = [edges[j] for j in range(len(edges)) if best >> j & 1]
        if len(witness) != cap or not covers(g, set(witness)):
            raise GraphError(f"cover witness {witness} is not {cap} edges "
                             "meeting every triangle")
        res = OracleResult(cap, witness, True, nodes)
    _keep(memo, "etc", g, limit, res)
    return res


def _greedy_cover(hit: list[int], corners: list[tuple[int, int, int]]) -> list[int]:
    """Deterministic greedy hitting set over edge positions: the smallest
    of those that hit the most live triangles, until none is live."""
    counts = [h.bit_count() for h in hit]
    live = (1 << len(corners)) - 1
    chosen: list[int] = []
    while live:
        pick = counts.index(max(counts))
        chosen.append(pick)
        gone = hit[pick] & live
        live ^= gone
        while gone:
            a, b, c = corners[(gone & -gone).bit_length() - 1]
            gone &= gone - 1
            counts[a] -= 1
            counts[b] -= 1
            counts[c] -= 1
    return chosen


def decide(inst: Instance) -> tuple[bool, list | None]:
    """Exact decision plus a yes-witness (triangles or edges), else ``None``.

    The one place that answers ``k <= 0`` packing and ``k < 0`` covering
    without a search and otherwise runs a capped solve (``limit=k``).  The
    solvers' per-thread memo makes a run of calls on one graph (every k of
    a kernel) cost about one search per variant; a call answered from it
    returns exactly what a cold search would (module docstring).
    """
    if inst.variant is Variant.ETP:
        if inst.k <= 0:
            return True, []
        res = solve_etp_exact(inst.graph, limit=inst.k)
        return (True, res.witness) if res.optimum >= inst.k else (False, None)
    if inst.k < 0:
        return False, None
    res = solve_etc_exact(inst.graph, limit=inst.k)
    return (True, res.witness) if res.optimum <= inst.k else (False, None)
