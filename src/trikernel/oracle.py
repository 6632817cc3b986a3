"""Exact desk-scale solvers for both triangle problems.

Both solvers run branch-and-bound over the enumerated triangle list with
edges packed into bitmasks; no external solver is involved, and results are
deterministic.  They exist to ground-truth the reduction rules, so they
refuse (rather than approximate) an instance over their size budget: one
with more than ``MAX_VERTICES`` vertices *and* more than ``MAX_TRIANGLES``
triangles.  An instance within either limit is always searched.

``limit`` trades exactness above a threshold for speed: a packing search may
stop once it holds more than ``limit`` triangles, and a covering search only
explores covers of at most ``limit`` edges, reporting ``limit + 1`` with
``exact=False`` when the true optimum lies above.  Decisions for any
``k <= limit`` are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Edge,
    Graph,
    Instance,
    Triangle,
    Variant,
    enumerate_triangles,
    triangle_edges,
)

MAX_VERTICES = 16
MAX_TRIANGLES = 60
_MEMO_CAP = 1_000_000


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


class _EarlyStop(Exception):
    pass


def _edge_bits(g: Graph) -> dict[Edge, int]:
    return {e: 1 << i for i, e in enumerate(g.edges())}


def solve_etp_exact(g: Graph, *, limit: int | None = None,
                    budget: bool = True) -> OracleResult:
    """Maximum edge-disjoint triangle packing.

    Branch-and-bound over the lexicographic triangle list (include/exclude),
    pruned by the free-edge bound ``floor(free/3)`` and, at the root, by the
    per-vertex degree bound ``floor(sum(floor(deg/2))/3)``.
    """
    triangles = enumerate_triangles(g)
    _check_budget(g, triangles, budget)
    if not triangles:
        return OracleResult(0, [])

    bit = _edge_bits(g)
    masks = [bit[e1] | bit[e2] | bit[e3]
             for e1, e2, e3 in map(triangle_edges, triangles)]

    # Greedy incumbent: the lexicographic maximal packing.
    incumbent: list[int] = []
    used = 0
    for i, m in enumerate(masks):
        if not used & m:
            incumbent.append(i)
            used |= m

    state = {"best": len(incumbent), "set": list(incumbent), "exact": True}
    if limit is not None and state["best"] > limit:
        return OracleResult(len(incumbent),
                            sorted(triangles[i] for i in incumbent), False)

    degree_pool = sum(g.degree(v) // 2 for v in g.adj) // 3
    root_ub = min(len(masks), len(bit) // 3, degree_pool)
    chosen: list[int] = []

    def descend(cand: list[int], depth: int) -> None:
        if depth > state["best"]:
            state["best"] = depth
            state["set"] = list(chosen)
            if limit is not None and depth > limit:
                state["exact"] = False
                raise _EarlyStop
        if not cand:
            return
        union = 0
        for i in cand:
            union |= masks[i]
        if depth + min(len(cand), union.bit_count() // 3) <= state["best"]:
            return
        head, tail = cand[0], cand[1:]
        chosen.append(head)
        descend([i for i in tail if not masks[i] & masks[head]], depth + 1)
        chosen.pop()
        descend(tail, depth)

    if state["best"] < root_ub:
        try:
            descend(list(range(len(masks))), 0)
        except _EarlyStop:
            pass

    witness = sorted(triangles[i] for i in state["set"])
    _assert_valid_packing(g, witness, state["best"])
    return OracleResult(state["best"], witness, state["exact"])


def solve_etc_exact(g: Graph, *, limit: int | None = None,
                    budget: bool = True) -> OracleResult:
    """Minimum edge set meeting every triangle.

    Branches on the three edges of the first uncovered triangle, pruned by an
    edge-disjoint-packing lower bound (each packed triangle needs its own
    deleted edge) and a memo of dominated deletion states.
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
    # ``best`` is exclusive once a real incumbent exists; with a limit it also
    # acts as the exploration cap (covers of size > limit are uninteresting).
    if limit is not None and len(greedy) > limit + 1:
        state: dict[str, int | None] = {"best": limit + 1, "mask": None}
    else:
        state = {"best": len(greedy), "mask": _or_all(greedy)}

    def packing_lb(deleted: int) -> int:
        blocked = deleted
        count = 0
        for m in masks:
            if not m & blocked:
                blocked |= m
                count += 1
        return count

    seen: dict[int, int] = {}

    def descend(deleted: int, count: int) -> None:
        live = next((m for m in masks if not m & deleted), None)
        if live is None:
            if count < state["best"] or state["mask"] is None:
                state["best"] = count
                state["mask"] = deleted
            return
        if count + max(packing_lb(deleted), 1) >= state["best"] + (
                1 if state["mask"] is None else 0):
            return
        prior = seen.get(deleted)
        if prior is not None and prior <= count:
            return
        if len(seen) < _MEMO_CAP:
            seen[deleted] = count
        rest = live
        while rest:
            b = rest & -rest
            rest ^= b
            descend(deleted | b, count + 1)

    descend(0, 0)
    if state["mask"] is None:
        # Nothing of size <= limit exists; only a lower bound is known.
        return OracleResult(int(state["best"]), None, False)
    optimum = int(state["best"])
    mask = int(state["mask"])
    witness = sorted(edge_of_bit[1 << i] for i in range(len(bit)) if mask >> i & 1)
    _assert_valid_cover(g, witness, optimum)
    return OracleResult(optimum, witness, True)


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


def _assert_valid_packing(g: Graph, triangles: list[Triangle], count: int) -> None:
    assert len(triangles) == count
    seen: set[Edge] = set()
    for t in triangles:
        for e in triangle_edges(t):
            assert g.has_edge(*e) and e not in seen
            seen.add(e)


def _assert_valid_cover(g: Graph, edges: list[Edge], count: int) -> None:
    assert len(edges) == count
    removed = set(edges)
    for e in removed:
        assert g.has_edge(*e)
    for u, v in g.iter_edges():
        if (u, v) in removed:
            continue
        for w in g.common_neighbors(u, v):
            uw = (u, w) if u < w else (w, u)
            vw = (v, w) if v < w else (w, v)
            assert uw in removed or vw in removed, "cover misses a triangle"
