"""Span tracing of trikernel layers from outside the package.

A hook replaces a function attribute on the module that *calls* it (for
example ``trikernel.rules.find_prunable``, which ``kernelize`` looks up as a
module global) with a wrapper that records one span per call.  Spans carry
their parent span and the id of the benchmark op they belong to, stay in
memory while the run lasts, and are written out when it ends.

Hooks are installed only for a traced run and are always removed afterwards.
A hook whose module or attribute no longer exists is reported as unobserved
and leaves its layer at ``calls=0``; it never fails the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (trikernel module the call is looked up in, attribute, layer name, record hit?).
# One layer may be observed through several modules.
HOOKS = (
    ("rules", "kernelize", "rules.kernelize", False),
    ("rules", "find_prunable", "rules.find_prunable", True),
    ("rules", "find_exclusive_k4", "rules.find_exclusive_k4", True),
    ("rules", "find_splittable", "rules.find_splittable", True),
    ("rules", "find_augment_one", "rules.find_augment_one", True),
    ("rules", "find_augment_two", "rules.find_augment_two", True),
    ("rules", "find_revertex", "rules.find_revertex", True),
    ("rules", "find_crown", "rules.find_crown", True),
    ("rules", "greedy_maximal_packing", "packing.greedy_maximal_packing", False),
    ("rules", "remaximalize", "packing.remaximalize", False),
    ("rules", "labeled_edges", "packing.labeled_edges", False),
    ("audit", "labeled_edges", "packing.labeled_edges", False),
    ("packing", "enumerate_triangles", "graph.enumerate_triangles", False),
    ("oracle", "enumerate_triangles", "graph.enumerate_triangles", False),
    ("rules", "max_matching", "crown.max_matching", False),
    ("audit", "audit_instance", "audit.audit_instance", False),
    ("oracle", "solve_etp_exact", "oracle.solve_etp_exact", False),
    ("oracle", "solve_etc_exact", "oracle.solve_etc_exact", False),
    ("rules", "lift_solution", "rules.lift_solution", False),
    ("rules", "replay_trace", "rules.replay_trace", False),
    ("gen", "generate", "gen.generate", False),
)

OP = "op"          # root span the benchmark opens around each op
SETUP_OP = -1      # op id of spans recorded while generating inputs

# span status codes
DONE, HIT, RAISED, REFUSED = 0, 1, 2, 3


class Tracer:
    """Collects spans as ``[layer, op, parent, start, end, status]`` rows."""

    def __init__(self) -> None:
        self.layers: list[str] = [OP]
        self._layer_ids: dict[str, int] = {OP: 0}
        self.spans: list[list] = []
        self.op = SETUP_OP
        self.unobserved: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _open(self, layer: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, self.op, parent, time.perf_counter(), 0.0, DONE])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, status: int) -> None:
        row = self.spans[idx]
        row[4] = time.perf_counter()
        row[5] = status
        self._stack.pop()

    def wrap(self, fn, layer_name: str, record_hit: bool):
        from trikernel.oracle import OracleBudgetError
        layer = self.layer_id(layer_name)

        def traced(*args, **kwargs):
            idx = self._open(layer)
            status = RAISED
            try:
                result = fn(*args, **kwargs)
                status = HIT if record_hit and result is not None else DONE
                return result
            except OracleBudgetError:
                status = REFUSED
                raise
            finally:
                self._close(idx, status)

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` inside a root span for benchmark op ``op_id``."""
        self.op = op_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx, DONE)
            self.op = SETUP_OP

    def install(self) -> None:
        for modname, attr, layer_name, record_hit in HOOKS:
            self.layer_id(layer_name)
            try:
                module = importlib.import_module(f"trikernel.{modname}")
            except ImportError:
                self.unobserved.append(f"{modname}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.unobserved.append(f"{modname}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, layer_name, record_hit))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["layer", "op", "parent", "start", "end", "status"],
                       "layers": self.layers, "unobserved": self.unobserved,
                       "spans": self.spans}, fh, separators=(",", ":"))


class LayerStats:
    """Per-layer totals aggregated from a tracer's spans."""

    def __init__(self, tracer: Tracer, op_group: dict[int, str]) -> None:
        spans = tracer.spans
        child = [0.0] * len(spans)
        for layer, _op, parent, start, end, _status in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        self.refusals: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # per input group: inclusive seconds and calls per layer, op seconds
        self.group_total_s: dict[tuple[str, str], float] = defaultdict(float)
        self.group_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.group_ops: dict[str, int] = defaultdict(int)
        self.group_op_s: dict[str, float] = defaultdict(float)
        self.op_s = 0.0
        for i, (layer, op, _parent, start, end, status) in enumerate(spans):
            name = tracer.layers[layer]
            dur = end - start
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child[i]
            if status == HIT:
                self.hits[name] += 1
            elif status == REFUSED:
                self.refusals[name] += 1
            group = op_group.get(op)
            if group is None:
                continue
            if name == OP:
                self.op_s += dur
                self.group_ops[group] += 1
                self.group_op_s[group] += dur
            else:
                self.group_total_s[group, name] += dur
                self.group_calls[group, name] += 1

    def share(self, names, group: str | None = None) -> float:
        """Inclusive seconds of ``names`` over the traced op seconds."""
        if group is None:
            total = self.op_s
            spent = sum(self.total_s[n] for n in names)
        else:
            total = self.group_op_s[group]
            spent = sum(self.group_total_s[group, n] for n in names)
        return spent / total if total else 0.0
