import inspect
import random
import sys
import threading
from functools import partial

import pytest
from hypothesis import given, settings

from trikernel.cli import _verify_one
from trikernel.gen import GenSpec, corpus_specs, generate
from trikernel.graph import Graph, Instance, Variant, enumerate_triangles, triangle_edges
from trikernel.oracle import (
    OracleBudgetError,
    decide,
    solve_etc_exact,
    solve_etp_exact,
)

from conftest import complete_graph, disjoint_triangles, graphs, petersen_graph


def exhaustive_max_packing(g: Graph) -> int:
    """Independent oracle: the largest of all edge-disjoint triangle subsets,
    each reached once by an include/exclude walk with no bounding.  (Trying
    every subset largest first would enumerate ~2^35 of them on K7.)"""
    tris = [frozenset(triangle_edges(t)) for t in enumerate_triangles(g)]

    def best(i: int, used: frozenset) -> int:
        if i == len(tris):
            return 0
        skip = best(i + 1, used)
        if used & tris[i]:
            return skip
        return max(skip, 1 + best(i + 1, used | tris[i]))

    return best(0, frozenset())


def exhaustive_min_cover(g: Graph) -> int:
    """Independent oracle: unbounded iterative deepening.  For size 0, 1,
    2, ... branch on each edge of the first unhit triangle, with no bound;
    every cover holds an edge of every triangle, so the first size that
    succeeds is the minimum.  (Trying every edge subset smallest first takes
    seconds on K7, whose cover needs 9 of 21 edges.)"""
    tris = [triangle_edges(t) for t in enumerate_triangles(g)]

    def covers(size: int, removed: frozenset) -> bool:
        unhit = next((t for t in tris if removed.isdisjoint(t)), None)
        if unhit is None:
            return True
        return size > 0 and any(covers(size - 1, removed | {e}) for e in unhit)

    size = 0
    while not covers(size, frozenset()):
        size += 1
    return size


class TestPackingSolver:
    def test_k4_is_one(self):
        assert solve_etp_exact(complete_graph(4)).optimum == 1
        assert exhaustive_max_packing(complete_graph(4)) == 1

    def test_k5_is_two(self):
        assert exhaustive_max_packing(complete_graph(5)) == 2
        res = solve_etp_exact(complete_graph(5))
        assert res.optimum == 2 and res.exact

    def test_triangle_free_is_zero(self):
        assert solve_etp_exact(petersen_graph()).optimum == 0

    @given(graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_matches_exhaustive(self, g):
        assert solve_etp_exact(g, budget=False).optimum == exhaustive_max_packing(g)

    def test_limit_stops_early_but_soundly(self):
        g = disjoint_triangles(5)
        res = solve_etp_exact(g, limit=2)
        assert res.optimum >= 3 and not res.exact
        full = solve_etp_exact(g)
        assert full.optimum == 5 and full.exact


class TestCoverSolver:
    def test_k3_is_one(self):
        assert solve_etc_exact(complete_graph(3)).optimum == 1

    def test_k4_is_two(self):
        # each edge covers only two of the four triangles
        assert exhaustive_min_cover(complete_graph(4)) == 2
        res = solve_etc_exact(complete_graph(4))
        assert res.optimum == 2
        assert sorted(res.witness) == [(0, 1), (2, 3)] or len(res.witness) == 2

    def test_triangle_free_is_zero(self):
        res = solve_etc_exact(petersen_graph())
        assert res.optimum == 0 and res.witness == []

    @given(graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_matches_exhaustive(self, g):
        assert solve_etc_exact(g, budget=False).optimum == exhaustive_min_cover(g)

    def test_limit_reports_lower_bound(self):
        g = disjoint_triangles(4)
        res = solve_etc_exact(g, limit=2)
        assert res.optimum == 3 and not res.exact and res.witness is None
        assert solve_etc_exact(g).optimum == 4


class TestLimitContract:
    """The capped-solve contract ``decide`` relies on, for every ``limit``."""

    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_every_limit(self, g):
        packing, cover = exhaustive_max_packing(g), exhaustive_min_cover(g)
        for limit in range(g.m + 1):
            res = solve_etp_exact(g, limit=limit, budget=False)
            assert (res.optimum > limit) == (packing > limit)
            assert res.exact == (packing <= limit)
            assert res.optimum <= packing and len(res.witness) == res.optimum
            if res.exact:
                assert res.optimum == packing

            res = solve_etc_exact(g, limit=limit, budget=False)
            assert (res.optimum <= limit) == (cover <= limit)
            if cover <= limit + 1:
                # a cover of exactly limit + 1 is reported once found
                assert (res.optimum, res.exact) == (cover, True)
                removed = set(res.witness)
                assert len(removed) == cover
                assert all(removed.intersection(triangle_edges(t))
                           for t in enumerate_triangles(g))
            else:
                assert (res.optimum, res.exact, res.witness) == (
                    limit + 1, False, None)


class TestDenseGraphs:
    """16-vertex Erdős–Rényi graphs on which the recursive searches ran for
    20 s to minutes; each solve here takes well under 2 s."""

    def test_no_recursion_limit(self):
        g = generate(GenSpec("erdos_renyi", 1, n=16, p=0.6))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 12)
        try:
            packing = solve_etp_exact(g, budget=False).optimum
            cover = solve_etc_exact(g, budget=False).optimum
        finally:
            sys.setrecursionlimit(old)
        assert (packing, cover) == (20, 22)

    def test_p06(self):
        g = generate(GenSpec("erdos_renyi", 0, n=16, p=0.6))
        assert solve_etp_exact(g, budget=False).optimum == 25
        assert solve_etc_exact(g, budget=False).optimum == 29

    def test_p08_packing_meets_its_degree_bound(self):
        g = generate(GenSpec("erdos_renyi", 0, n=16, p=0.8))
        res = solve_etp_exact(g, budget=False)
        assert res.optimum == 33 == sum(len(g.adj[v]) // 2 for v in g.adj) // 3
        assert res.exact


class TestDecide:
    def test_examples(self):
        k4 = complete_graph(4)
        assert decide(Instance(k4, 1, Variant.ETP)) == (True, [(0, 1, 2)])
        answer, cover = decide(Instance(k4, 2, Variant.ETC))
        assert answer is True and len(cover) == 2
        assert decide(Instance(k4, 1, Variant.ETC)) == (False, None)
        assert decide(Instance(complete_graph(5), 3, Variant.ETP)) == (False, None)

    def test_degenerate_k(self):
        g = complete_graph(3)
        assert decide(Instance(g, 0, Variant.ETP)) == (True, [])
        assert decide(Instance(g, -1, Variant.ETP)) == (True, [])
        assert decide(Instance(g, -1, Variant.ETC)) == (False, None)

    def test_budget_refusal(self):
        big = disjoint_triangles(61)  # 183 vertices, 61 triangles
        with pytest.raises(OracleBudgetError):
            decide(Instance(big, 3, Variant.ETP))
        answer, witness = decide(Instance(big, 61, Variant.ETP), budget=False)
        assert answer is True and len(witness) == 61

    def test_small_vertex_count_is_always_accepted(self):
        assert decide(Instance(complete_graph(6), 1, Variant.ETP))[0] is True


class TestCrossProperties:
    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_cover_at_least_packing(self, g):
        # every packed triangle consumes a distinct cover edge
        packing = solve_etp_exact(g, budget=False).optimum
        cover = solve_etc_exact(g, budget=False).optimum
        assert cover >= packing

    @given(graphs(max_n=7, min_n=2))
    @settings(max_examples=40, deadline=None)
    def test_edge_deletion_is_monotone(self, g):
        if g.m == 0:
            return
        e = g.edges()[0]
        smaller = g.copy()
        smaller.remove_edge(*e)
        assert solve_etp_exact(smaller, budget=False).optimum \
            <= solve_etp_exact(g, budget=False).optimum
        assert solve_etc_exact(smaller, budget=False).optimum \
            <= solve_etc_exact(g, budget=False).optimum

    def test_witnesses_are_valid(self):
        g = complete_graph(6)
        pack = solve_etp_exact(g)
        used = set()
        for t in pack.witness:
            for e in triangle_edges(t):
                assert g.has_edge(*e) and e not in used
                used.add(e)
        cover = solve_etc_exact(g)
        removed = set(cover.witness)
        for t in enumerate_triangles(g):
            assert any(e in removed for e in triangle_edges(t))


SOLVERS = {"etp": solve_etp_exact, "etc": solve_etc_exact}


def _answer(solver: str, g: Graph, limit, budget: bool = True):
    """``(optimum, witness, exact)`` of one solve, or ``"refused"``."""
    try:
        res = SOLVERS[solver](g, limit=limit, budget=budget)
    except OracleBudgetError:
        return "refused"
    return res.optimum, res.witness, res.exact


def _in_fresh_thread(fn):
    """``fn()`` in a new thread, whose solvers keep nothing yet: a cold call."""
    box = []
    t = threading.Thread(target=lambda: box.append(fn()))
    t.start()
    t.join(timeout=120)
    assert not t.is_alive() and len(box) == 1
    return box[0]


class TestMemo:
    """Each solver's per-thread memo of its last search answers a call only
    with what a cold search of the same call returns."""

    def test_answers_equal_a_cold_call(self):
        rng = random.Random(29)
        graphs = [generate(spec) for spec in corpus_specs(29, 16, "small")]
        graphs += [generate(GenSpec("erdos_renyi", seed, n=11, p=0.5))
                   for seed in (1, 2)]
        graphs += [complete_graph(6), disjoint_triangles(4), petersen_graph()]
        for i, g in enumerate(graphs):
            # the previous graph, and ``g`` with its labels reversed (same
            # n, m and optima, other witnesses)
            top = max(g.adj)
            others = (graphs[i - 1],
                      Graph.from_edges([(top - u, top - v) for u, v in g.edges()],
                                       [top - v for v in g.adj]))
            limits = [None, *range(-1, g.n + 2)]
            cold = {(solver, limit): _in_fresh_thread(partial(_answer, solver, g, limit))
                    for solver in SOLVERS for limit in limits}
            calls = [(solver, limit, copy) for solver in SOLVERS
                     for limit in limits for copy in (False, True)]
            rng.shuffle(calls)
            for j, (solver, limit, copy) in enumerate(calls):
                if j % 5 == 2:  # another graph in between
                    _answer(rng.choice(list(SOLVERS)), rng.choice(others),
                            rng.choice(limits))
                got = _answer(solver, g.copy() if copy else g, limit)
                assert got == cold[solver, limit], (i, solver, limit, copy)

    def test_a_kept_result_is_still_refused_over_budget(self):
        big = disjoint_triangles(61)  # 183 vertices, 61 triangles
        assert solve_etp_exact(big, budget=False).optimum == 61
        assert solve_etc_exact(big, budget=False).optimum == 61
        for g in (big, big.copy()):
            for solver in SOLVERS:
                for limit in (None, 3, 61):
                    with pytest.raises(OracleBudgetError):
                        SOLVERS[solver](g, limit=limit)
        assert solve_etc_exact(big, budget=False).optimum == 61

    def test_a_changed_result_does_not_change_a_later_answer(self):
        g = complete_graph(6)
        for solver in SOLVERS:
            cold = _in_fresh_thread(partial(_answer, solver, g, None))
            for src in (g, g, g.copy()):
                res = SOLVERS[solver](src)
                assert (res.optimum, res.witness, res.exact) == cold
                res.witness.append(res.witness.pop(0))
                res.witness.pop()
                res.optimum, res.exact = -1, False

    def test_threads_get_the_serial_results(self):
        graphs = [generate(GenSpec("erdos_renyi", seed, n=10, p=0.5))
                  for seed in range(6)]
        calls = [(solver, limit) for solver in SOLVERS
                 for limit in (None, *range(-1, 12))]
        serial = {(i, solver, limit): _in_fresh_thread(partial(_answer, solver, g, limit))
                  for i, g in enumerate(graphs) for solver, limit in calls}
        got: dict = {}
        rounds = 10

        def worker(i: int) -> None:
            rng = random.Random(i)
            for _ in range(rounds):
                for solver, limit in rng.sample(calls, len(calls)):
                    try:
                        answer = _answer(solver, graphs[i].copy(), limit)
                    except Exception as exc:  # a thread must report, not die
                        answer = repr(exc)
                    got.setdefault((i, solver, limit), []).append(answer)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(graphs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert got == {key: [want] * rounds for key, want in serial.items()}

    def test_a_kept_answer_needs_no_more_frames(self):
        g, again = complete_graph(7), complete_graph(7)
        cold = (solve_etp_exact(g).optimum, solve_etc_exact(g).optimum)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 12)
        try:
            warm = (solve_etp_exact(again).optimum, solve_etc_exact(again).optimum)
        finally:
            sys.setrecursionlimit(old)
        assert warm == cold == (7, 9)

    def test_verify_searches_each_kernel_once_per_variant(self, monkeypatch):
        """``cli._verify_one`` on one graph: the two input solves and one
        search per variant of the kernel that all 26 reduced outcomes share
        (a cold search per call lists triangles 26 times).  A hit lists no
        triangles, so the listings count the searches."""
        import trikernel.oracle as oracle_mod
        listed = []
        real = oracle_mod.enumerate_triangles

        def counting(g):
            listed.append(g.n)
            return real(g)

        monkeypatch.setattr(oracle_mod, "enumerate_triangles", counting)
        spec = GenSpec("erdos_renyi", 3, n=14, p=0.4)
        result = _in_fresh_thread(partial(_verify_one, (spec.to_json(), 16)))
        assert result["checked"] == 30 and not result["mismatches"]
        assert len(listed) <= 4
