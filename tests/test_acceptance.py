"""Acceptance suite: corpus-scale checks of every promised property.

Each test prints one pass/fail line.  The two corpora are deterministic and
shared across tests: a 1000-instance mixed corpus at kernelization scale
(Erdos-Renyi n in [6,40] over p in {0.2..0.8}, planted packings, exclusive-K4
/ crown / splittable gadget mixes) and a 1000-instance corpus at oracle scale
(every graph at most 12 vertices).

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

from __future__ import annotations

import time

import pytest

from trikernel.audit import audit_instance
from trikernel.gen import GenSpec, corpus_specs, generate
from trikernel.graph import Graph, Instance, Variant
from trikernel.oracle import solve_etc_exact, solve_etp_exact
from trikernel.rules import (
    finish,
    is_valid_cover_solution,
    is_valid_packing_solution,
    kernelize,
    lift_solution,
    replay_trace,
)

from test_oracle import exhaustive_max_packing, exhaustive_min_cover

CORPUS_SIZE = 1000
RULE_BUDGET_FACTOR = 30  # fixed constant c for the combined R6-R8 bound


def _report(criterion: str, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert not failures, f"{criterion}: {len(failures)} failures, "\
                         f"first: {failures[:3]}"


# --------------------------------------------------------------------------
# Corpus sweeps (shared, computed once)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def kernel_sweep():
    """Kernelize the full mixed corpus for every k in [1, n], both problems.

    Collects kernel-bound violations, audit failures, counter-budget
    violations, and aggregate statistics.
    """
    specs = corpus_specs(101, CORPUS_SIZE, "kernel")
    data = {
        "instances": 0, "runs": 0, "reduced": 0, "audits": 0,
        "bound_failures": [], "audit_failures": [], "counter_failures": [],
        "max_wall": 0.0,
    }
    for spec in specs:
        g = generate(spec)
        data["instances"] += 1
        m0 = g.m
        for k in range(1, g.n + 1):
            for variant in (Variant.ETP, Variant.ETC):
                start = time.perf_counter()
                out = kernelize(Instance(g, k, variant))
                data["max_wall"] = max(data["max_wall"],
                                       time.perf_counter() - start)
                data["runs"] += 1
                c = out.counters
                if (c["R2"] > m0 or c["R3"] > k or c["R9"] > k
                        or c["R4"] > 2 * m0
                        or c["R6"] + c["R7"] + c["R8"] > RULE_BUDGET_FACTOR * k * k):
                    data["counter_failures"].append(
                        (spec, k, variant.value, dict(c)))
                if out.verdict != "reduced":
                    continue
                data["reduced"] += 1
                red = out.instance
                size = len(out.packing)
                if not (red.graph.n <= 3 * k and red.graph.n <= 3 * size
                        and size <= k):
                    data["bound_failures"].append(
                        (spec, k, variant.value, red.graph.n, size))
                report = audit_instance(red.graph, out.packing, k=red.k)
                data["audits"] += 1
                if not report.passed:
                    data["audit_failures"].append(
                        (spec, k, variant.value,
                         [chk.name for chk in report.failures()]))
    return data


@pytest.fixture(scope="module")
def oracle_sweep():
    """Oracle-vs-kernelization sweep over the small corpus.

    For every instance (n <= 12), every k in [0, n], both problems: the
    kernelized decision (finished by the oracle on reduced outputs) against
    the exact decision on the original graph; lifted witnesses for every
    yes-instance; duality of the two optima; per-rule single-application
    transitions harvested from the traces.
    """
    specs = corpus_specs(202, CORPUS_SIZE, "small")
    data = {
        "instances": 0, "decisions": 0, "mismatches": [],
        "yes_instances": 0, "lift_failures": [],
        "duality_failures": [], "transitions": {}, "swap_events": {
            "R6": 0, "R7": 0, "R8": 0},
        "swap_failures": [],
    }
    for spec in specs:
        g = generate(spec)
        if g.n > 12:
            continue
        data["instances"] += 1
        etp = solve_etp_exact(g, limit=g.n, budget=False)
        etc = solve_etc_exact(g, limit=g.n, budget=False)
        if etc.optimum < min(etp.optimum, g.n + 1):
            data["duality_failures"].append((spec, etp.optimum, etc.optimum))
        for k in range(g.n + 1):
            for variant in (Variant.ETP, Variant.ETC):
                truth = (etp.optimum >= k if variant is Variant.ETP
                         else etc.optimum <= k)
                out = kernelize(Instance(g, k, variant))
                got, witness_base = finish(out, variant, budget=False)
                data["decisions"] += 1
                if got != truth:
                    data["mismatches"].append((spec, k, variant.value,
                                               truth, got))
                    continue
                _harvest_transitions(g, out, data)
                if got:
                    data["yes_instances"] += 1
                    lifted = lift_solution(out.trace, witness_base, variant)
                    valid = (is_valid_packing_solution(g, lifted, k)
                             if variant is Variant.ETP
                             else is_valid_cover_solution(g, lifted, k))
                    if not valid:
                        data["lift_failures"].append((spec, k, variant.value))
    return data


def _graph_key(g: Graph):
    return (tuple(g.edges()), tuple(g.vertices()))


def _harvest_transitions(g0: Graph, out, data) -> None:
    """Record each graph-mutating rule application as a before/after pair."""
    current = g0
    for ev in out.trace:
        if ev.rule in ("R6", "R7", "R8"):
            data["swap_events"][ev.rule] += 1
            if (ev.k_delta != 0 or ev.removed_vertices or ev.removed_edges
                    or not ev.packing_added):
                data["swap_failures"].append(ev.rule)
            continue
        after = replay_trace(current, [ev])
        key = (ev.rule, _graph_key(current), _graph_key(after))
        if key not in data["transitions"]:
            data["transitions"][key] = (current, after, ev.k_delta, ev.rule)
        current = after


# --------------------------------------------------------------------------
# Criteria
# --------------------------------------------------------------------------


def test_criterion_1_kernel_bound(kernel_sweep):
    d = kernel_sweep
    assert d["instances"] >= CORPUS_SIZE
    _report("criterion 1 (3k kernel bound)", d["bound_failures"],
            f"{d['reduced']} reduced outcomes over {d['runs']} runs on "
            f"{d['instances']} instances all satisfy n' <= 3|S| <= 3k")


def test_criterion_2_decision_equivalence(oracle_sweep):
    d = oracle_sweep
    assert d["instances"] >= CORPUS_SIZE
    _report("criterion 2 (decision equivalence)", d["mismatches"],
            f"{d['decisions']} kernel decisions match the exact oracle on "
            f"{d['instances']} instances, both problems, every k")


def test_criterion_3_per_rule_equivalence(oracle_sweep):
    d = oracle_sweep
    failures = list(d["swap_failures"])
    solve_cache: dict = {}

    def optima(g: Graph, cap: int):
        key = _graph_key(g)
        if key not in solve_cache:
            solve_cache[key] = (
                solve_etp_exact(g, limit=cap, budget=False).optimum,
                solve_etc_exact(g, limit=cap, budget=False).optimum)
        return solve_cache[key]

    per_rule = {r: 0 for r in ("R2", "R3", "R4", "R9")}
    for (rule, _, _), (before, after, k_delta, _) in d["transitions"].items():
        per_rule[rule] += 1
        cap = before.n + 2
        p0, c0 = optima(before, cap)
        p1, c1 = optima(after, cap)
        deltas = {"R2": (0, 0), "R3": (1, 2), "R4": (0, 0)}
        dp, dc = deltas.get(rule, (-k_delta, -k_delta))  # R9: |H| for both
        for k in range(before.n + 1):
            etp_before = k <= 0 or p0 >= k
            etp_after = (k - dp) <= 0 or p1 >= (k - dp)
            etc_before = c0 <= k
            etc_after = (k - dc) >= 0 and c1 <= (k - dc)
            if etp_before != etp_after or etc_before != etc_after:
                failures.append((rule, k, (p0, c0), (p1, c1)))
                break
    # non-vacuity: every rule observed
    for rule, count in {**per_rule, **d["swap_events"]}.items():
        if count == 0:
            failures.append(f"{rule} never exercised by the corpus")
    _report("criterion 3 (per-rule equivalence)", failures,
            "single applications preserve decisions for all k: "
            + " ".join(f"{r}={c}" for r, c in sorted({**per_rule,
                                                      **d['swap_events']}.items())))


def test_criterion_4_discharging_audit(kernel_sweep):
    d = kernel_sweep
    _report("criterion 4 (discharging audit)", d["audit_failures"],
            f"all {d['audits']} reduced outcomes pass every lemma check")


def test_criterion_5_effort_bounds(kernel_sweep):
    d = kernel_sweep
    failures = list(d["counter_failures"])
    # polynomial wall-time at n <= 200: a spread of large instances
    big = [
        GenSpec("erdos_renyi", 301, n=200, p=0.02),
        GenSpec("erdos_renyi", 302, n=200, p=0.05),
        GenSpec("erdos_renyi", 303, n=150, p=0.1),
        GenSpec("erdos_renyi", 304, n=100, p=0.3),
        GenSpec("planted_packing", 305, count=60, noise=45),
        GenSpec("crown_gadgets", 306, count=20, fans=6, noise=12),
        GenSpec("splittable_mix", 307, count=30, noise=12),
        GenSpec("k4_gadgets", 308, count=35, noise=18),
    ]
    slowest = d["max_wall"]
    for spec in big:
        g = generate(spec)
        assert g.n <= 200
        for k in sorted({1, g.n // 4, g.n // 2, g.n}):
            if k < 1:
                continue
            for variant in (Variant.ETP, Variant.ETC):
                start = time.perf_counter()
                kernelize(Instance(g, k, variant))
                wall = time.perf_counter() - start
                slowest = max(slowest, wall)
                if wall > 10.0:
                    failures.append((spec, k, variant.value, wall))
    _report("criterion 5 (effort bounds)", failures,
            f"R2<=m, R3<=k, R9<=k, R4<=2m, R6-R8<={RULE_BUDGET_FACTOR}k^2 on "
            f"every run; slowest kernelization {slowest:.2f}s (limit 10s)")


def test_criterion_6_solution_lifting(oracle_sweep):
    d = oracle_sweep
    _report("criterion 6 (solution lifting)", d["lift_failures"],
            f"all {d['yes_instances']} yes-instances lift to valid witnesses")


def test_criterion_7_oracle_self_checks(oracle_sweep):
    failures = []
    k4 = Graph.from_edges((u, v) for u in range(4) for v in range(u + 1, 4))
    k5 = Graph.from_edges((u, v) for u in range(5) for v in range(u + 1, 5))
    checks = [
        ("etp(K4)", solve_etp_exact(k4).optimum, exhaustive_max_packing(k4), 1),
        ("etp(K5)", solve_etp_exact(k5).optimum, exhaustive_max_packing(k5), 2),
        ("etc(K4)", solve_etc_exact(k4).optimum, exhaustive_min_cover(k4), 2),
    ]
    for name, got, brute, expected in checks:
        if not (got == brute == expected):
            failures.append((name, got, brute, expected))
    failures.extend(oracle_sweep["duality_failures"])
    _report("criterion 7 (oracle self-checks)", failures,
            "etp(K4)=1 etp(K5)=2 etc(K4)=2 vs exhaustive search; "
            f"cover >= packing on all {oracle_sweep['instances']} instances")
