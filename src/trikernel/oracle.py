"""Exact desk-scale solvers for both triangle problems.

Both solvers run branch-and-bound over the enumerated triangle list with
edges packed into bitmasks; no external solver is involved, and results are
deterministic.  Every node of either search is bounded, and the nodes wait
on an explicit stack, so no input can exhaust the recursion limit:

* packing includes or excludes the next triangle of the lexicographic list
  and bounds each node by a per-vertex degree bound over the edges its
  candidates still use;
* covering is 3-Hitting Set branching that partitions the covers: delete
  one allowed edge of the live triangle with the fewest, forbidding the
  edges tried before it, and bound each node below by live triangles whose
  allowed edges are pairwise disjoint.

They exist to ground-truth the reduction rules, so they refuse (rather than
approximate) an instance over their size budget: one with more than
``MAX_VERTICES`` vertices *and* more than ``MAX_TRIANGLES`` triangles.  An
instance within either limit is always searched.

``limit`` trades exactness above a threshold for speed: a packing search
stops once it holds more than ``limit`` triangles (``exact=False``), and a
covering search explores only covers of at most ``limit + 1`` edges,
reporting ``limit + 1`` with ``exact=False`` and no witness when the true
optimum lies above.  Decisions for any ``k <= limit`` are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _check_budget(g: Graph, triangles: list[Triangle], budget: bool) -> None:
    if budget and g.n > MAX_VERTICES and len(triangles) > MAX_TRIANGLES:
        raise OracleBudgetError(
            f"instance too large for exact solving: n={g.n} > {MAX_VERTICES} "
            f"and {len(triangles)} triangles > {MAX_TRIANGLES}")


@dataclass
class OracleResult:
    optimum: int
    witness: list | None
    exact: bool = True


def _edge_bits(g: Graph) -> dict[Edge, int]:
    return {e: 1 << i for i, e in enumerate(g.edges())}


def solve_etp_exact(g: Graph, *, limit: int | None = None,
                    budget: bool = True) -> OracleResult:
    """Maximum edge-disjoint triangle packing.

    Branch-and-bound over the lexicographic triangle list from the greedy
    lexicographic packing as incumbent: a node takes its first candidate
    (include) before it drops it (exclude).  Every node is bounded by the
    least of its candidate count, ``floor(free/3)`` and the per-vertex degree
    bound ``sum_v floor(|union & star[v]|/2) // 3``, where ``union`` holds
    the edges of its candidates and ``star[v]`` those at ``v`` (a packed
    triangle uses two edges at each corner).  A bound only cuts subtrees that
    cannot beat the incumbent, so it changes neither the incumbents nor the
    witness.  The nodes wait on an explicit stack.
    """
    triangles = enumerate_triangles(g)
    _check_budget(g, triangles, budget)
    if not triangles:
        return OracleResult(0, [])

    bit = _edge_bits(g)
    masks = [bit[e1] | bit[e2] | bit[e3]
             for e1, e2, e3 in map(triangle_edges, triangles)]
    star: dict[int, int] = {}
    for (u, v), b in bit.items():
        star[u] = star.get(u, 0) | b
        star[v] = star.get(v, 0) | b
    stars = [s for s in star.values() if s & (s - 1)]  # one edge adds 0

    # Greedy incumbent: the lexicographic maximal packing.
    incumbent: list[int] = []
    used = 0
    for m in masks:
        if not used & m:
            incumbent.append(m)
            used |= m
    best, best_set, exact = len(incumbent), tuple(incumbent), True

    if limit is not None and best > limit:
        exact = False
    else:
        # A node: (candidate masks, depth, chosen masks).
        stack: list[tuple[list[int], int, tuple[int, ...]]] = [(masks, 0, ())]
        while stack:
            cand, depth, chosen = stack.pop()
            if depth > best:
                best, best_set = depth, chosen
                if limit is not None and depth > limit:
                    exact = False
                    break
            room = best - depth
            if len(cand) <= room:
                continue
            union = 0
            for m in cand:
                union |= m
            # The edge count is cheaper; the degree bound is never weaker.
            if union.bit_count() // 3 <= room or sum(
                    (union & s).bit_count() >> 1 for s in stars) // 3 <= room:
                continue
            head, tail = cand[0], cand[1:]
            stack.append((tail, depth, chosen))
            stack.append(([m for m in tail if not m & head], depth + 1,
                          chosen + (head,)))

    triangle_of = dict(zip(masks, triangles))
    witness = sorted(triangle_of[m] for m in best_set)
    if len(witness) != best or not packs(g, witness):
        raise GraphError(f"packing witness {witness} is not {best} "
                         "edge-disjoint triangles")
    return OracleResult(best, witness, exact)


def solve_etc_exact(g: Graph, *, limit: int | None = None,
                    budget: bool = True) -> OracleResult:
    """Minimum edge set meeting every triangle.

    3-Hitting Set branching that partitions the covers (Niedermeier &
    Rossmanith, J. Discrete Algorithms 2003): each node holds the live
    (unhit) triangles, the deleted edges and a set of forbidden edges.  It
    picks the live triangle with the fewest allowed edges; branch ``i``
    deletes that triangle's ``i``-th allowed edge and forbids the ones tried
    before it, so no cover is searched twice.  The edges are tried in order
    of how many live triangles each hits.  A live triangle with no allowed
    edge closes the node; otherwise the node is bounded below by a greedy
    count of live triangles whose allowed edges are pairwise disjoint (each
    needs its own deleted edge), taken fewest allowed edges first.  The
    nodes wait on an explicit stack.
    """
    triangles = enumerate_triangles(g)
    _check_budget(g, triangles, budget)
    if not triangles:
        return OracleResult(0, [])

    bit = _edge_bits(g)
    edge_of_bit = {b: e for e, b in bit.items()}
    masks = [bit[e1] | bit[e2] | bit[e3]
             for e1, e2, e3 in map(triangle_edges, triangles)]

    greedy = _greedy_cover(masks)
    # ``cap`` is exclusive: only covers smaller than it are searched.  With
    # a limit and a greedy cover above ``limit + 1``, covers up to
    # ``limit + 1`` are searched and no witness is held until one is found.
    best: int | None
    if limit is None or len(greedy) <= limit + 1:
        cap, best = len(greedy), _or_all(greedy)
    else:
        cap, best = limit + 2, None

    # A node: (parent's live masks, edge it deletes, deleted, count,
    # forbidden); the live list is filtered when the node is popped.
    stack = [(masks, 0, 0, 0, 0)]
    while stack:
        parent_live, edge, deleted, count, forbidden = stack.pop()
        if count >= cap:
            continue
        live = [m for m in parent_live if not m & edge]
        if not live:
            cap, best = count, deleted
            continue
        allows = sorted((m & ~forbidden for m in live), key=int.bit_count)
        pick = allows[0]
        if not pick:
            continue
        blocked = lower = 0
        for allowed in allows:
            if not allowed & blocked:
                blocked |= allowed
                lower += 1
        if count + lower >= cap:
            continue
        branch = []
        while pick:
            b = pick & -pick
            pick ^= b
            branch.append(b)
        branch.sort(key=lambda b: -sum(1 for m in live if m & b))
        children = []
        for b in branch:
            children.append((live, b, deleted | b, count + 1, forbidden))
            forbidden |= b
        stack.extend(reversed(children))

    if best is None:
        # Nothing of size <= limit + 1 exists; only a lower bound is known.
        return OracleResult(cap - 1, None, False)
    witness = sorted(edge_of_bit[1 << i] for i in range(len(bit)) if best >> i & 1)
    if len(witness) != cap or not covers(g, set(witness)):
        raise GraphError(f"cover witness {witness} is not {cap} edges "
                         "meeting every triangle")
    return OracleResult(cap, witness, True)


def _greedy_cover(masks: list[int]) -> list[int]:
    """Deterministic greedy hitting set over edge bits (max coverage first)."""
    chosen: list[int] = []
    deleted = 0
    while True:
        live = [m for m in masks if not m & deleted]
        if not live:
            return chosen
        counts: dict[int, int] = {}
        for m in live:
            rest = m
            while rest:
                b = rest & -rest
                rest ^= b
                counts[b] = counts.get(b, 0) + 1
        pick = max(sorted(counts), key=lambda b: counts[b])
        chosen.append(pick)
        deleted |= pick


def _or_all(bits: list[int]) -> int:
    out = 0
    for b in bits:
        out |= b
    return out


def decide(inst: Instance, *, budget: bool = True) -> tuple[bool, list | None]:
    """Exact decision plus a yes-witness (triangles or edges), else ``None``.

    The one place that answers ``k <= 0`` packing and ``k < 0`` covering
    without a search and otherwise runs a capped solve (``limit=k``).
    """
    if inst.variant is Variant.ETP:
        if inst.k <= 0:
            return True, []
        res = solve_etp_exact(inst.graph, limit=inst.k, budget=budget)
        return (True, res.witness) if res.optimum >= inst.k else (False, None)
    if inst.k < 0:
        return False, None
    res = solve_etc_exact(inst.graph, limit=inst.k, budget=budget)
    return (True, res.witness) if res.optimum <= inst.k else (False, None)
