"""trikernel benchmark: one workload per invocation, one result line.

    python3 perfbench/run.py --workload corpus_allk --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It imports trikernel from ``src/`` of
that checkout, never from an installed copy, and exits with code 2 when
there is none.  Load is a closed loop from this one process: the next op
starts when the previous one has returned.

A run builds the workload's inputs from ``--seed`` and warms up (set-up),
then repeats whole passes over the seeded op list, at least two, until
``--seconds`` have elapsed and at least ``MIN_OPS`` ops are done.  Every
pass must produce the same behaviour digest.  Times are scaled to a
reference machine speed by ``speed.SpeedProbe``; the unscaled figures are
printed beside them.
``--trace 1`` adds one traced pass after the untraced ones and reports
per-layer metrics instead of end-to-end ones.  Human-readable lines go
first; the last line of standard output is the JSON result.  Full results,
spans and failure reproducers are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedProbe
from tracing import OP, LayerStats, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_OPS = 100        # at least ten latency samples beyond p90
SETUP_REPS = 5       # setup_s is the median of this many set-ups
WARMUP_OPS = 8
MAX_REPRODUCERS = 20

FINDERS = ("rules.find_prunable", "rules.find_exclusive_k4", "rules.find_splittable",
           "rules.find_augment_one", "rules.find_augment_two", "rules.find_revertex",
           "rules.find_crown")
LAYERS = ("packing.greedy_maximal_packing", "packing.remaximalize",
          "packing.labeled_edges", "graph.enumerate_triangles", "crown.max_matching",
          "audit.audit_instance", "oracle.solve_etp_exact", "oracle.solve_etc_exact",
          "rules.lift_solution", "rules.replay_trace", "gen.generate")
R2_R4 = FINDERS[:3]
ORACLES = ("oracle.solve_etp_exact", "oracle.solve_etc_exact")


def _import_package() -> float:
    """Import trikernel from this checkout; returns the import seconds."""
    src = ROOT / "src"
    if not (src / "trikernel" / "__init__.py").is_file():
        print(f"error: no trikernel sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import trikernel
    from trikernel import audit, gen, oracle, packing, rules  # noqa: F401
    seconds = time.perf_counter() - start
    if Path(trikernel.__file__).resolve().parent != (src / "trikernel").resolve():
        print(f"error: imported trikernel from {trikernel.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return seconds


def _partial_trace(exc: BaseException) -> list | None:
    """The events ``kernelize`` had recorded when ``exc`` escaped it."""
    tb = exc.__traceback__
    found = None
    while tb is not None:
        frame = tb.tb_frame
        if frame.f_code.co_name == "kernelize" and isinstance(frame.f_locals.get("trace"), list):
            found = frame.f_locals["trace"]
        tb = tb.tb_next
    return None if found is None else [ev.to_json() for ev in found]


@dataclass
class Pass:
    """One pass over the op list."""

    raw: list[float]       # op seconds as measured
    scaled: list[float]    # op seconds at reference machine speed
    fills: list[float]     # n'/(3k) of every reduced outcome
    digest: str            # behaviour digest


class Runner:
    """Runs the ops of one workload and keeps the run's counts."""

    def __init__(self, workload, seed: int, tiny: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.probe = SpeedProbe()
        self.attempted = 0
        self.failed = 0
        self.reproducers: list[str] = []

    def build(self):
        """Generate the graphs and the op list, in a seeded shuffled order so
        that each input family is spread over the whole pass."""
        from trikernel import gen
        graphs = [(group, spec, gen.generate(spec))
                  for group, spec in self.workload.inputs(self.seed, self.tiny)]
        ops = self.workload.ops(graphs)
        random.Random(f"{self.workload.name}:{self.seed}").shuffle(ops)
        return ops

    def setup(self, import_s: float):
        """Build the inputs and warm up SETUP_REPS times.  Returns the ops and
        setup_s: import seconds plus the median set-up, both speed-scaled."""
        from workloads import OpOutput
        times = []
        for _ in range(SETUP_REPS):
            self.probe.probe()
            start = time.perf_counter()
            ops = self.build()
            smallest = min(ops, key=lambda op: (op.graph.m, op.graph.n)).graph
            for op in [op for op in ops if op.graph is smallest][:WARMUP_OPS]:
                self.workload.run(op, OpOutput(hashlib.sha256()))
            end = time.perf_counter()
            self.probe.probe()
            times.append((end - start) * self.probe.scale(start, end))
        first = self.probe.starts[0]
        return ops, import_s * self.probe.scale(first, first) + statistics.median(times)

    def run_pass(self, ops, call=None) -> Pass:
        digest = hashlib.sha256()
        starts, raw, fills = [], [], []
        for index, op in enumerate(ops):
            self.probe.tick()
            start, elapsed, op_fills = self._run_op(index, op, digest, call)
            starts.append(start)
            raw.append(elapsed)
            fills.extend(op_fills)
        self.probe.probe()  # so that the last ops have a probe after them
        return Pass(raw, self.probe.normalize(starts, raw), fills, digest.hexdigest())

    def _run_op(self, index: int, op, digest, call):
        from workloads import OpOutput
        out = OpOutput(digest)
        start = time.perf_counter()
        try:
            if call is None:
                self.workload.run(op, out)
            else:
                call(index, self.workload.run, op, out)
        except Exception as exc:  # an op failure is data, never the end of the run
            out.trace = None
            out.fail("exception", "".join(traceback.format_exception(exc)))
            out.failures[-1]["trace"] = _partial_trace(exc)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if out.failures:
            self.failed += 1
            self._reproducer(index, op, out.failures)
        return start, elapsed, out.fills

    def _reproducer(self, index: int, op, failures: list[dict]) -> None:
        for f in failures:
            print(f"FAIL {self.workload.name} op={index} {op.spec.to_json()} "
                  f"k={f['k']} variant={f['variant']} check={f['check']}")
        if len(self.reproducers) >= MAX_REPRODUCERS:
            return
        path = OUT / "repro" / f"{self.workload.name}-seed{self.seed}-op{index}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": self.workload.name, "seed": self.seed, "op": index,
            "group": op.group, "spec": op.spec.to_json(), "k": op.k,
            "variant": op.variant.value if op.variant else None,
            "failures": failures}, indent=1, default=repr))
        self.reproducers.append(str(path.relative_to(ROOT)))
        print(f"reproducer written to {path.relative_to(ROOT)}")


def _untraced(runner: Runner, ops, seconds: float, min_ops: int) -> list[Pass]:
    """Whole passes, at least two so that their digests can be compared, until
    at least ``min_ops`` ops are done and the run is as close to ``seconds``
    long as whole passes allow."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(ops))
        elapsed = time.perf_counter() - start
        if (len(passes) >= 2 and len(ops) * len(passes) >= min_ops
                and elapsed + elapsed / len(passes) / 2 >= seconds):
            return passes


def _traced(runner: Runner, ops):
    tracer = Tracer()
    tracer.install()
    try:
        runner.build()  # one traced input build, for the gen.generate layer
        traced = runner.run_pass(ops, call=tracer.run_op)
    finally:
        tracer.uninstall()
    return tracer, traced


def _per_layer(tracer, ops, scale: float, overhead: float) -> dict:
    """Per-layer metrics from the spans; seconds are scaled by ``scale``."""
    st = LayerStats(tracer, {i: op.group for i, op in enumerate(ops)})
    m: dict[str, tuple[float, str]] = {}
    for name in FINDERS:
        calls = st.calls[name]
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.s"] = (st.self_s[name] * scale, "s")
        m[f"{name}.hit_ratio"] = (st.hits[name] / calls if calls else 0.0, "ratio")
    for name in LAYERS:
        m[f"{name}.calls"] = (st.calls[name], "count")
        m[f"{name}.s"] = (st.self_s[name] * scale, "s")
    m["rules.kernelize.calls"] = (st.calls["rules.kernelize"], "count")
    m["rules.kernelize.self_s"] = (st.self_s["rules.kernelize"] * scale, "s")
    m["oracle.refusals"] = (sum(st.refusals[n] for n in ORACLES), "count")
    m["op.self_s"] = (st.self_s[OP] * scale, "s")
    m["trace.op_s"] = (st.op_s * scale, "s")
    m["trace.accounted_ratio"] = (1 - st.self_s[OP] / st.op_s if st.op_s else 0.0, "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["share.r2_r4_finders"] = (st.share(R2_R4), "ratio")
    m["share.greedy_packing"] = (st.share(("packing.greedy_maximal_packing",
                                           "packing.remaximalize")), "ratio")
    m["share.oracle"] = (st.share(ORACLES), "ratio")
    er_ops = st.group_ops["er800"]
    for name, key in (("rules.find_prunable", "er800.r2_r4_scans_per_op"),
                      ("rules.find_splittable", "er800.find_splittable.calls_per_op")):
        m[key] = (st.group_calls["er800", name] / er_ops if er_ops else 0.0, "count")
    m["crown80.find_revertex.share"] = (st.share(("rules.find_revertex",), "crown80"), "ratio")
    return m


def _end_to_end(passes: list[Pass], setup_s: float):
    """End-to-end metrics (speed-scaled) and the same figures unscaled."""
    def figures(lat: list[float]) -> dict:
        return {"ops_per_s": (len(lat) / sum(lat), "1/s"),
                "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms")}

    scaled = [t for p in passes for t in p.scaled]
    raw = [t for p in passes for t in p.raw]
    fills = passes[0].fills
    metrics = {
        **figures(scaled),
        "kernel_fill": (statistics.fmean(fills) if fills else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, figures(raw)


def _machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (smoke test only)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    import_s = _import_package()
    from workloads import WORKLOADS
    args = parse_args(argv, WORKLOADS)
    runner = Runner(WORKLOADS[args.workload], args.seed, args.tiny)

    ops, setup_s = runner.setup(import_s)
    passes = _untraced(runner, ops, args.seconds, 10 if args.tiny else MIN_OPS)
    digest = passes[0].digest
    deterministic = all(p.digest == digest for p in passes)
    samples = len(ops) * len(passes)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(passes)} passes, {samples} op latency samples, "
          f"{len(passes[0].fills)} reduced outcomes per pass, "
          f"setup_s median of {SETUP_REPS}")
    print(f"behaviour digest {digest} (sha256 over the {len(ops)} ops of a pass)")
    if not deterministic:
        print("FAIL passes produced different behaviour digests")

    metrics, raw = _end_to_end(passes, setup_s)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": _machine(), "digest": digest, "ops_per_pass": len(ops),
              "passes": len(passes), "samples": samples,
              "pass_op_s": [sum(p.scaled) for p in passes],
              "unscaled": {k: v for k, (v, _u) in raw.items()}}
    print("unscaled: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()))
    if args.trace:
        tracer, traced = _traced(runner, ops)
        if traced.digest != digest:
            deterministic = False
            print("FAIL traced pass produced a different behaviour digest")
        traced_ops_per_s = len(ops) / sum(traced.scaled)
        metrics = _per_layer(tracer, ops, sum(traced.scaled) / sum(traced.raw),
                             traced_ops_per_s / metrics["ops_per_s"][0])
        result["unobserved"] = tracer.unobserved
        for hook in tracer.unobserved:
            print(f"hook {hook} not found: layer reported as unobserved (calls=0)")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    failed_ratio = runner.failed / runner.attempted
    print(f"failed_ratio {failed_ratio:.6g} ratio ({runner.failed} of {runner.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    result.update(failed_ratio=failed_ratio, reproducers=runner.reproducers,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps({"correct": runner.failed == 0 and deterministic,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
