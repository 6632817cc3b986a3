"""Command-line front end binding the kernelization pipeline together.

Subcommands: ``kernelize`` (reduce one instance and dump trace/stats),
``solve`` (kernelize, finish with the exact solver, lift a witness back),
``verify`` (corpus equivalence between kernelized and exact decisions), and
``audit`` (discharging certificate for the reduced instance).

Exit codes: 0 success, 1 property failure (mismatch, failed audit or a
broken internal invariant), 2 input error, 3 exact-solver budget refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from .audit import audit_instance
from .gen import GenSpec, corpus_specs, generate, vertex_count
from .graph import (
    Graph,
    GraphError,
    Instance,
    ParseError,
    Variant,
    dump_edgelist,
    load_graph,
)
from .oracle import OracleBudgetError, solve_etc_exact, solve_etp_exact
from .rules import (
    KernelOutcome,
    finish,
    is_valid_cover_solution,
    is_valid_packing_solution,
    kernelize,
    lift_solution,
    trace_to_json,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


@dataclass
class RunManifest:
    """Everything that determines a run's outputs."""

    command: str
    source: str                 # input path or generator spec, human readable
    problem: str | None = None
    k: int | None = None
    seed: int | None = None
    out: str | None = None


def _read_instance(args) -> Instance:
    path = Path(args.graph)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(_fail(f"cannot read {path}: {exc}", EXIT_INPUT))
    try:
        g = load_graph(text, args.format)
    except (ParseError, GraphError, ValueError) as exc:
        raise SystemExit(_fail(f"{path}: {exc}", EXIT_INPUT))
    return Instance(g, args.k, Variant(args.problem))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_outputs(outdir: str, manifest: RunManifest, outcome: KernelOutcome,
                   reduced: Graph | None, extra: dict,
                   audit: str | None = None) -> None:
    """Write the run directory: ``trace.json`` and ``stats.json``, with
    ``reduced.edgelist`` for a kernel and ``audit.json`` for an audit.  A
    directory that cannot be made or written is an input error."""
    stats = {
        "manifest": asdict(manifest),
        "verdict": outcome.verdict,
        "verdict_rule": outcome.verdict_rule,
        "counters": outcome.counters,
        **extra,
    }
    files = {"trace.json": trace_to_json(outcome.trace),
             "stats.json": json.dumps(stats, indent=1)}
    if reduced is not None:
        files["reduced.edgelist"] = dump_edgelist(reduced)
    if audit is not None:
        files["audit.json"] = audit
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
    except OSError as exc:
        raise SystemExit(_fail(f"cannot write {out}: {exc}", EXIT_INPUT))


def cmd_kernelize(args) -> int:
    inst = _read_instance(args)
    outcome = kernelize(inst)
    manifest = RunManifest("kernelize", str(args.graph), args.problem, args.k,
                           out=args.out)
    extra: dict = {"k": args.k}
    if outcome.verdict == "reduced":
        red = outcome.instance
        extra.update({
            "k_reduced": red.k,
            "n_reduced": red.graph.n,
            "m_reduced": red.graph.m,
            "packing_size": len(outcome.packing),
            "bound_3k": 3 * args.k,
        })
        print(f"reduced: n'={red.graph.n} m'={red.graph.m} k'={red.k} "
              f"|S|={len(outcome.packing)} (3k={3 * args.k})")
    else:
        print(f"verdict: {outcome.verdict} (via {outcome.verdict_rule})")
    print("rule applications: "
          + " ".join(f"{r}={c}" for r, c in outcome.counters.items() if c))
    if args.out:
        reduced = outcome.instance.graph if outcome.verdict == "reduced" else None
        _write_outputs(args.out, manifest, outcome, reduced, extra)
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = _read_instance(args)
    outcome = kernelize(inst)
    answer, reduced_witness = finish(outcome, inst.variant)
    if not answer:
        print("no")
        return EXIT_OK
    witness = lift_solution(outcome.trace, reduced_witness, inst.variant)
    if inst.variant is Variant.ETP:
        ok = is_valid_packing_solution(inst.graph, witness, inst.k)
        kind = "triangles"
    else:
        ok = is_valid_cover_solution(inst.graph, witness, inst.k)
        kind = "edges"
    if not ok:
        return _fail("lifted witness failed validation", EXIT_PROPERTY)
    print("yes")
    print(f"witness ({len(witness)} {kind}):")
    for item in witness:
        print("  " + " ".join(str(x) for x in item))
    return EXIT_OK


def _verify_one(payload: tuple[dict, int]) -> dict:
    """Worker: compare kernelized and exact decisions on one instance."""
    spec_data, max_n = payload
    spec = GenSpec.from_json(spec_data)
    result = {"spec": spec_data, "checked": 0, "mismatches": []}
    n = vertex_count(spec)  # before drawing: a skipped spec may be huge
    if n > max_n:
        result["skipped"] = f"n={n} beyond oracle scale {max_n}"
        return result
    g = generate(spec)
    etp_opt = solve_etp_exact(g, limit=g.n, budget=False)
    etc_opt = solve_etc_exact(g, limit=g.n, budget=False)
    for k in range(g.n + 1):
        truth = {
            Variant.ETP: etp_opt.optimum >= k,
            Variant.ETC: etc_opt.optimum <= k,
        }
        for variant in (Variant.ETP, Variant.ETC):
            try:
                got = finish(kernelize(Instance(g, k, variant)), variant)[0]
            except OracleBudgetError:
                got = None
            result["checked"] += 1
            if got != truth[variant]:
                result["mismatches"].append({
                    "variant": variant.value, "k": k,
                    "expected": truth[variant], "got": got,
                    "edges": [list(e) for e in g.edges()],
                })
    return result


def _corpus_from_args(args) -> list[GenSpec]:
    """The corpus to verify; a spec no generator can draw is an input error."""
    try:
        if args.manifest:
            data = json.loads(Path(args.manifest).read_text())
            if not isinstance(data, list):
                raise ValueError("a corpus is a JSON list of specs")
            return [GenSpec.from_json(item) for item in data]
        if args.kind:
            return [GenSpec(kind=args.kind, seed=args.seed + i, n=args.n,
                            p=args.p, count=args.count, noise=args.noise,
                            fans=args.fans)
                    for i in range(args.instances)]
    # a JSONDecodeError is a ValueError; deep nesting is a RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        source = "manifest" if args.manifest else "corpus"
        raise SystemExit(_fail(f"{source}: {exc}", EXIT_INPUT))
    return corpus_specs(args.seed, args.instances, "small")


def cmd_verify(args) -> int:
    if args.jobs < 1:
        return _fail(f"--jobs {args.jobs} is not a positive count", EXIT_INPUT)
    if args.instances < 0:
        return _fail(f"--instances {args.instances} is negative", EXIT_INPUT)
    if args.max_n < 0:
        return _fail(f"--max-n {args.max_n} is negative", EXIT_INPUT)
    specs = _corpus_from_args(args)
    if not specs:
        print("warning: empty corpus, nothing to verify")
        return EXIT_OK
    payloads = [(spec.to_json(), args.max_n) for spec in specs]
    # the pool starts every worker at once, so start no more than can be busy
    workers = min(args.jobs, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_one, payloads))
    else:
        results = [_verify_one(p) for p in payloads]
    checked = sum(r["checked"] for r in results)
    skipped = sum(1 for r in results if r.get("skipped"))
    mismatches = [(r["spec"], m) for r in results for m in r["mismatches"]]
    for spec_data, mismatch in mismatches:
        print(f"MISMATCH spec={spec_data} {mismatch}")
    print(f"verified {checked} decisions over {len(specs)} instances "
          f"({skipped} skipped): {len(mismatches)} mismatches")
    return EXIT_OK if not mismatches else EXIT_PROPERTY


def cmd_audit(args) -> int:
    inst = _read_instance(args)
    outcome = kernelize(inst)
    if outcome.verdict != "reduced":
        print(f"no residual graph to audit (verdict: {outcome.verdict} "
              f"via {outcome.verdict_rule})")
        return EXIT_OK
    red = outcome.instance
    report = audit_instance(red.graph, outcome.packing, k=red.k)
    for check in report.checks:
        mark = "pass" if check.passed else "FAIL"
        print(f"[{mark}] {check.name}")
    print(f"n'={report.counters['n']} vs 3|S|={3 * report.counters['packing']}"
          f" (3k'={3 * red.k})")
    if args.out:
        manifest = RunManifest("audit", str(args.graph), args.problem, args.k,
                               out=args.out)
        _write_outputs(args.out, manifest, outcome, red.graph,
                       {"audit_passed": report.passed}, report.to_json())
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _add_instance_args(sub) -> None:
    sub.add_argument("--problem", required=True, choices=["etp", "etc"])
    sub.add_argument("--k", required=True, type=int)
    sub.add_argument("--format", default="edgelist",
                     choices=["edgelist", "dimacs"])
    sub.add_argument("graph", help="path to the input graph")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trikernel",
        description="Kernelize, solve, verify, and audit edge triangle "
                    "packing/covering instances.")
    subs = parser.add_subparsers(dest="command", required=True)

    ker = subs.add_parser("kernelize", help="reduce an instance to its kernel")
    _add_instance_args(ker)
    ker.set_defaults(func=cmd_kernelize)

    sol = subs.add_parser("solve", help="kernelize then solve exactly")
    _add_instance_args(sol)
    sol.set_defaults(func=cmd_solve)

    ver = subs.add_parser("verify", help="corpus equivalence check")
    ver.add_argument("--manifest", default=None,
                     help="JSON file with a list of generator specs")
    ver.add_argument("--kind", default=None,
                     help="single generator kind for an inline corpus")
    ver.add_argument("--n", type=int, default=8)
    ver.add_argument("--p", type=float, default=0.5)
    ver.add_argument("--count", type=int, default=1)
    ver.add_argument("--noise", type=int, default=0)
    ver.add_argument("--fans", type=int, default=2)
    ver.add_argument("--instances", type=int, default=50)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--max-n", type=int, default=12,
                     help="skip generated instances above this size")
    ver.add_argument("--jobs", type=int, default=1)
    ver.set_defaults(func=cmd_verify)

    aud = subs.add_parser("audit", help="discharging audit of the kernel")
    _add_instance_args(aud)
    aud.set_defaults(func=cmd_audit)
    for sub in (ker, aud):
        sub.add_argument("--out", default=None,
                         help="directory for output files")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_INPUT
    except OracleBudgetError as exc:
        return _fail(str(exc), EXIT_BUDGET)
    except GraphError as exc:
        # input errors were reported by _read_instance; this one is a check
        # the program made on itself (a packing, a split, a replay)
        return _fail(f"internal invariant failed: {exc}", EXIT_PROPERTY)


if __name__ == "__main__":
    sys.exit(main())
