import hashlib
import inspect
import itertools
import random
import sys
import threading
from functools import partial

import pytest
from hypothesis import given, settings

from trikernel.cli import _verify_one
from trikernel.gen import GenSpec, corpus_specs, generate
from trikernel.graph import Graph, Instance, Variant, enumerate_triangles, triangle_edges
import trikernel.oracle as oracle_mod
from trikernel.oracle import (
    OracleBudgetError,
    decide,
    solve_etc_exact,
    solve_etp_exact,
)
from trikernel.rules import find_splittable, kernelize

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
        res = solve_etp_exact(big, limit=61, budget=False)
        assert res.optimum >= 61 and len(res.witness) == 61

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


def _count_searches(monkeypatch) -> list:
    """The graphs the exact solvers search from now on; each search numbers
    its graph's edges once, with ``oracle._edge_bits``."""
    searched = []
    real = oracle_mod._edge_bits

    def counting(g):
        searched.append(g.n)
        return real(g)

    monkeypatch.setattr(oracle_mod, "_edge_bits", counting)
    return searched


def with_pendant_path(g: Graph, length: int) -> Graph:
    """``g`` with a path of ``length`` new edges hung off its smallest
    vertex: other edges, the same triangle list."""
    twin = g.copy()
    end = min(twin.adj)
    for _ in range(length):
        step = twin.add_vertex()
        twin.add_edge(end, step)
        end = step
    return twin


def split_twin(g: Graph) -> Graph:
    """``g`` with each vertex ``find_splittable`` reports split, until none
    is left: a triangle list that renames ``g``'s, on other vertex ids."""
    twin = g.copy()
    while (found := find_splittable(twin)) is not None:
        twin.split(*found)
    return twin


class TestMemo:
    """The per-thread memo of the last triangle list and both solvers'
    results on it answers a call only with what a cold search of the same
    call returns.  A graph with the kept graph's triangle list is answered
    from it too, and each problem's kept result bounds the other's
    search."""

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

    def test_an_inexact_search_keeps_the_exact_result(self, monkeypatch):
        """Packing under a limit below the kept exact optimum is searched,
        and its inexact result does not replace the exact one: the next
        uncapped call is answered without a search."""
        g = complete_graph(6)
        searched = _count_searches(monkeypatch)

        def calls():
            exact = solve_etp_exact(g)
            return exact, solve_etp_exact(g, limit=exact.optimum - 2), solve_etp_exact(g)

        exact, below, again = _in_fresh_thread(calls)
        assert exact.exact and not below.exact and again == exact
        assert len(searched) == 2

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
        (a cold search per call searches 26 times).  Every search, and no
        answer from a memo, numbers the graph's edges once."""
        searched = _count_searches(monkeypatch)
        spec = GenSpec("erdos_renyi", 3, n=14, p=0.4)
        result = _in_fresh_thread(partial(_verify_one, (spec.to_json(), 16)))
        assert result["checked"] == 30 and not result["mismatches"]
        assert len(searched) <= 4

    def test_verify_does_not_search_a_kernel_with_the_inputs_triangles(
            self, monkeypatch):
        """On a graph whose every kernel drops edges but keeps the input's
        triangle list, ``cli._verify_one`` makes only the two input
        searches: each kernel is answered from the memo of its list."""
        spec = GenSpec("erdos_renyi", 5, n=14, p=0.3)
        g = generate(spec)
        kernels = set()
        for k in range(g.n + 1):
            for variant in Variant:
                out = kernelize(Instance(g, k, variant))
                if out.verdict == "reduced":
                    kernels.add(tuple(out.instance.graph.edges()))
        assert kernels and all(
            len(edges) < g.m and enumerate_triangles(Graph.from_edges(edges))
            == enumerate_triangles(g) for edges in kernels)
        searched = _count_searches(monkeypatch)
        result = _in_fresh_thread(partial(_verify_one, (spec.to_json(), 16)))
        assert result["checked"] == 30 and not result["mismatches"]
        assert len(searched) == 2

    def test_verify_lists_each_triangle_list_once(self, monkeypatch):
        """On a graph whose kernel has another triangle list,
        ``cli._verify_one`` lists the input's triangles once and the
        kernel's once: each listing serves both solvers."""
        spec = GenSpec("erdos_renyi", 3, n=14, p=0.4)
        g = generate(spec)
        kernels = set()
        for k in range(g.n + 1):
            for variant in Variant:
                out = kernelize(Instance(g, k, variant))
                if out.verdict == "reduced":
                    kernels.add(tuple(out.instance.graph.edges()))
        assert len(kernels) == 1 and enumerate_triangles(
            Graph.from_edges(*kernels)) != enumerate_triangles(g)
        listed = []
        real = oracle_mod.enumerate_triangles

        def counting(h):
            listed.append(h.n)
            return real(h)

        monkeypatch.setattr(oracle_mod, "enumerate_triangles", counting)
        searched = _count_searches(monkeypatch)
        result = _in_fresh_thread(partial(_verify_one, (spec.to_json(), 16)))
        assert result["checked"] == 30 and not result["mismatches"]
        assert len(listed) == 2 and len(searched) <= 4

    def test_a_kept_packing_ends_the_cover_search_at_its_size(self):
        """Here nu = tau, and the greedy cover is larger, so the cover
        search runs.  With the packing kept, it stops at its first cover of
        nu edges: it expands fewer nodes than a cold search and returns the
        same cover.  Nodes are read from ``OracleResult.nodes``."""
        g = generate(GenSpec("erdos_renyi", 11, n=11, p=0.5))

        def cover_search(pack_first: bool):
            def run():
                nu = solve_etp_exact(g, budget=False).optimum if pack_first else None
                res = solve_etc_exact(g, budget=False)
                return nu, res.nodes, (res.optimum, res.witness, res.exact)
            return _in_fresh_thread(run)

        _, cold_nodes, cold = cover_search(False)
        nu, warm_nodes, warm = cover_search(True)
        assert warm == cold and cold[0] == nu
        assert warm_nodes < cold_nodes

    def test_packing_again_after_covering_another_list(self):
        """Packing on ``a``, covering on ``b`` (another triangle list, which
        replaces the memo), packing on ``a`` again: each answer is a cold
        call's, at every combination of limits."""
        graphs = [generate(GenSpec("erdos_renyi", seed, n=10, p=0.5))
                  for seed in range(4)]
        limits = (None, 1, 3, 5)
        cold: dict = {}
        for a, b in zip(graphs, graphs[1:] + graphs[:1]):
            assert enumerate_triangles(a) != enumerate_triangles(b)
            for first, middle, last in itertools.product(limits, repeat=3):
                calls = (("etp", a, first), ("etc", b, middle), ("etp", a, last))
                want = []
                for call in calls:
                    if call not in cold:
                        cold[call] = _in_fresh_thread(partial(_answer, *call))
                    want.append(cold[call])

                def warm():
                    return [_answer(*call) for call in calls]

                assert _in_fresh_thread(warm) == want, (first, middle, last)

    def test_the_other_solver_first_on_a_twin(self):
        graphs = [generate(GenSpec("erdos_renyi", seed, n=n, p=p))
                  for seed, (n, p) in enumerate(
                      [(8, 0.5), (10, 0.5), (11, 0.4), (12, 0.5), (9, 0.7)])]
        graphs += [complete_graph(6), disjoint_triangles(4), petersen_graph()]
        for i, g in enumerate(graphs):
            twin = with_pendant_path(g, 1 + i % 3)
            first = {"etp": solve_etp_exact(g, budget=False),
                     "etc": solve_etc_exact(g, budget=False)}
            limits = [None, *range(-1, g.n + 2)]
            for solver, other in (("etp", "etc"), ("etc", "etp")):
                # the other solver first, on ``g``: exact at ``None`` and
                # at its optimum, inexact two below it; one below is exact
                # for covering and inexact for packing
                top = first[other].optimum
                for before in (None, top - 2, top - 1, top):
                    for limit in limits:
                        cold = _in_fresh_thread(partial(_answer, solver, twin, limit))

                        def warm():
                            _answer(other, g, before)
                            return _answer(solver, twin, limit)

                        assert _in_fresh_thread(warm) == cold, (i, solver, before, limit)

    def test_a_hit_checks_the_witness_on_the_callers_graph(self, monkeypatch):
        g = generate(GenSpec("erdos_renyi", 2, n=11, p=0.5))
        twin, again = with_pendant_path(g, 2), g.copy()
        checked = []
        for name in ("packs", "covers"):
            def check(h, witness, real=getattr(oracle_mod, name)):
                checked.append(h)
                return real(h, witness)
            monkeypatch.setattr(oracle_mod, name, check)

        def calls():  # a search, a hit through the list, through adj, the list
            for src in (g, twin, twin, again):
                solve_etp_exact(src)
                solve_etc_exact(src)

        _in_fresh_thread(calls)
        assert [id(h) for h in checked] == [
            id(src) for src in (g, twin, twin, again) for _ in SOLVERS]

    def test_a_frozen_stream_of_calls_answers_as_before(self):
        """Every answer of a seeded stream of interleaved calls, pinned by
        value: 250 ER graphs, each with a pendant-path twin and a copy, and
        40 calls per graph at random limits, with and without the budget
        (41 of them refused).  A memo or a bound that changed any optimum,
        witness or ``exact`` flag would move the digest."""
        def stream() -> str:
            rng = random.Random(12)
            h = hashlib.sha256()
            for seed in range(250):
                n = rng.randint(5, 13)
                g = generate(GenSpec("erdos_renyi", seed, n=n,
                                     p=rng.choice((0.3, 0.4, 0.5, 0.7))))
                family = (g, with_pendant_path(g, rng.randint(1, 5)), g.copy())
                limits = [None, *range(-1, n + 2)]
                for _ in range(40):
                    solver, src = rng.choice(("etp", "etc")), rng.choice(family)
                    limit, budget = rng.choice(limits), rng.random() < 0.5
                    answer = _answer(solver, src, limit, budget)
                    h.update(repr((solver, limit, answer)).encode())
            return h.hexdigest()

        assert _in_fresh_thread(stream) == (
            "b6a988504d04e24d7ff3c3dc55ad925e743873a9a68d80d1b06bfac1eb1dbc4e")


def _etp_then_etc(g: Graph) -> None:
    solve_etp_exact(g, budget=False)
    solve_etc_exact(g, budget=False)


class TestRenamedLists:
    """A triangle list that renames the kept one (Rule 4 splits) gets a
    fresh memo; each answer is still a cold call's."""

    def test_a_split_twin_answers_as_a_cold_call(self):
        graphs = [generate(GenSpec("erdos_renyi", seed, n=n, p=p))
                  for seed, n, p in ((0, 12, 0.4), (4, 12, 0.4), (4, 12, 0.5),
                                     (1, 12, 0.5), (2, 10, 0.5), (6, 12, 0.5))]
        for i, g in enumerate(graphs):
            twin = split_twin(g)
            assert enumerate_triangles(twin) != enumerate_triangles(g)
            for solver in SOLVERS:
                for limit in [None, *range(-1, twin.n + 2)]:
                    cold = _in_fresh_thread(partial(_answer, solver, twin, limit))

                    def warm():
                        _etp_then_etc(g)
                        return _answer(solver, twin, limit)

                    assert _in_fresh_thread(warm) == cold, (i, solver, limit)

    def test_as_many_triangles_that_are_no_renaming_get_the_cold_answer(self):
        """Four disjoint triangles, then a K4 on higher ids; a central
        triangle with one more on each side (nu = tau = 3) against a strip
        of four (nu = tau = 2), which has as many edges too; and the
        central one beside a diamond (nu = 4, its greedy packing 2), then
        beside two triangles whose new corners 15 and 16 both map onto the
        diamond's vertex 11: the triangles map one-to-one but the edges do
        not, and nu = 5."""
        k4 = Graph.from_edges([(u + 20, v + 20) for u, v in complete_graph(4).edges()])
        flower = Graph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3),
                                   (1, 4), (2, 4), (0, 5), (2, 5)])
        diamond = Graph.from_edges(flower.edges() + [
            (10, 11), (10, 12), (11, 12), (10, 13), (11, 13)])
        bowtie = Graph.from_edges(flower.edges() + [
            (10, 15), (10, 12), (12, 15), (10, 16), (10, 13), (13, 16)])
        strip = Graph.from_edges([(u + 10, v + 10) for u, v in (
            (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5))])
        pairs = ((disjoint_triangles(4), k4), (flower, strip), (strip, flower),
                 (diamond, bowtie))
        for first, second in pairs:
            assert len(enumerate_triangles(first)) == len(enumerate_triangles(second))
            for solver in SOLVERS:
                for limit in (None, *range(-1, 6)):
                    cold = _in_fresh_thread(partial(_answer, solver, second, limit))

                    def warm():
                        _etp_then_etc(first)
                        return _answer(solver, second, limit)

                    assert _in_fresh_thread(warm) == cold, (solver, limit)

    def test_covering_after_packing_where_tau_exceeds_nu(self):
        """The kept packing bounds the cover search where the disjoint count
        falls one short; with tau > nu no cover stops the search early, so
        each node saved is the packing bound's, and no optimum is cut."""
        graphs = [generate(GenSpec("erdos_renyi", seed, n=n, p=p))
                  for seed, n, p in ((1, 10, 0.5), (4, 12, 0.4), (4, 12, 0.5),
                                     (5, 10, 0.5), (5, 12, 0.5), (9, 10, 0.5))]
        graphs.append(complete_graph(5))
        cold_nodes = warm_nodes = 0
        for i, g in enumerate(graphs):
            nu = _in_fresh_thread(partial(solve_etp_exact, g)).optimum
            tau = _in_fresh_thread(partial(solve_etc_exact, g))
            assert tau.optimum > nu, i
            for before in (None, nu - 1):
                for limit in (None, *range(-1, tau.optimum + 2)):
                    cold = _in_fresh_thread(partial(_answer, "etc", g, limit))

                    def warm():
                        solve_etp_exact(g, limit=before)
                        return _answer("etc", g, limit)

                    assert _in_fresh_thread(warm) == cold, (i, before, limit)

            def after_packing():
                solve_etp_exact(g)
                return solve_etc_exact(g).nodes

            cold_nodes += tau.nodes
            warm_nodes += _in_fresh_thread(after_packing)
        assert warm_nodes < cold_nodes


def reference_packing(g: Graph, limit) -> tuple:
    """``(optimum, witness, exact)`` of a cold ``solve_etp_exact`` call, and
    the nodes expanded, from its search with no bound but the candidate
    count: the same lexicographic list, greedy incumbent and include-first
    order, so the same first incumbent of each size, the same stop past
    ``limit`` and the same answer."""
    triangles = enumerate_triangles(g)
    pos = {e: i for i, e in enumerate(g.edges())}
    masks = [sum(1 << pos[e] for e in triangle_edges(t)) for t in triangles]
    best, used = [], 0
    for i, m in enumerate(masks):
        if not used & m:
            best.append(i)
            used |= m
    exact = limit is None or len(best) <= limit
    stack = [(list(range(len(masks))), [])] if exact else []
    nodes = 0
    while stack:
        cand, chosen = stack.pop()
        nodes += 1
        if len(chosen) > len(best):
            best = chosen
            if limit is not None and len(chosen) > limit:
                exact = False
                break
        if len(cand) <= len(best) - len(chosen):
            continue
        head, tail = cand[0], cand[1:]
        stack.append((tail, chosen))
        stack.append(([j for j in tail if not masks[j] & masks[head]],
                      chosen + [head]))
    return (len(best), [triangles[i] for i in best], exact), nodes


class TestPackingBounds:
    """The packing search's node bounds (candidate count, edge count,
    per-vertex degrees, a greedy cover of the candidates) cut only subtrees
    that cannot beat the incumbent, so no answer moves."""

    def test_equals_a_search_with_no_bound_but_the_count(self):
        """40 seeded ER graphs, n 14-18, with up to 48 triangles, at five
        limits each, the budget off; the bounds cut all but a five
        hundredth of the nodes."""
        def search(g: Graph, limit):
            res = solve_etp_exact(g, limit=limit, budget=False)
            return (res.optimum, res.witness, res.exact), res.nodes

        rng = random.Random(2)
        nodes = [0, 0]
        for _ in range(40):
            n, p = rng.randint(14, 18), rng.choice((0.25, 0.3, 0.35))
            g = generate(GenSpec("erdos_renyi", rng.randrange(10**6), n=n, p=p))
            for limit in (None, 0, 2, 4, 7):
                cold, bounded = _in_fresh_thread(partial(search, g, limit))
                reference, free = reference_packing(g, limit)
                assert cold == reference, (g.edges(), limit)
                nodes[0] += bounded
                nodes[1] += free
        assert 100 * nodes[0] < nodes[1], nodes  # 1,539 against 803,339

    def test_calibration_node_counts(self):
        """Nodes expanded on the calibration graphs, cold and after the
        other solver, wherever both runs take under a second: a change to
        a bound shows as a changed count."""
        expected = {
            ((0, 16, 0.8), "etp", False): 339,
            ((0, 20, 0.5), "etp", False): 31449,
            ((0, 20, 0.5), "etp", True): 31449,
            ((0, 20, 0.5), "etc", False): 11533,
            ((0, 20, 0.5), "etc", True): 5636,
            ((2, 20, 0.5), "etp", False): 1389,
            ((2, 20, 0.5), "etp", True): 1125,
            ((2, 20, 0.5), "etc", False): 876,
            ((2, 20, 0.5), "etc", True): 62,
            ((0, 24, 0.3), "etp", False): 11137,
            ((0, 24, 0.3), "etp", True): 11137,
            ((0, 24, 0.3), "etc", False): 3401,
            ((0, 24, 0.3), "etc", True): 675,
        }

        def nodes(g: Graph, solver: str, after: bool) -> int:
            if after:
                SOLVERS["etc" if solver == "etp" else "etp"](g, budget=False)
            return SOLVERS[solver](g, budget=False).nodes

        got = {}
        for (seed, n, p), solver, after in expected:
            g = generate(GenSpec("erdos_renyi", seed, n=n, p=p))
            got[(seed, n, p), solver, after] = _in_fresh_thread(
                partial(nodes, g, solver, after))
        assert got == expected
