"""Machine-speed probe: scales measured times to a reference CPU speed.

On a shared machine the speed of one core drifts by a quarter or more over
tens of seconds, and all Python code slows down together.  The probe times a
fixed piece of pure-Python work (triangle listing over a fixed dict-of-sets
graph, the same kind of work trikernel does) between ops, at most every
``EVERY_S`` seconds.  A time ``t`` measured while the probe takes ``p`` seconds
is reported as ``t * REFERENCE_S / p``: the time it would take on a machine
where the probe takes ``REFERENCE_S``.  The probe is part of the benchmark,
never of trikernel, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

REFERENCE_S = 0.004   # probe time at reference speed
EVERY_S = 0.05        # least time between two probes
WINDOW_S = 0.25       # probes this close to an op set its scale
MIN_PROBES = 3


def _reference_graph() -> dict[int, set[int]]:
    rng = random.Random("perfbench-speed-probe")
    n = 90
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def _reference_work(adj: dict[int, set[int]]) -> int:
    out = []
    for u in sorted(adj):
        au = adj[u]
        for v in sorted(au):
            if v <= u:
                continue
            for w in sorted(au & adj[v]):
                if w > v:
                    out.append((u, v, w))
    return len(out)


class SpeedProbe:
    """Samples machine speed between ops and rescales op times with it."""

    def __init__(self) -> None:
        self._adj = _reference_graph()
        self._last = float("-inf")
        self.starts: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> float:
        start = time.perf_counter()
        _reference_work(self._adj)
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self._last = end
        return end - start

    def tick(self) -> None:
        """Probe if the last probe is more than EVERY_S seconds old."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a time measured in [start, end] to reference
        speed: the median of the probes within WINDOW_S of the interval, or
        of the MIN_PROBES nearest ones."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi - lo < MIN_PROBES:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - MIN_PROBES // 2, len(self.starts) - MIN_PROBES))
            hi = lo + MIN_PROBES
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def normalize(self, starts: list[float], durations: list[float]) -> list[float]:
        return [d * self.scale(s, s + d) for s, d in zip(starts, durations)]
