"""Host-speed reference: a fixed pure-Python kernel timed between rounds.

The shared host this benchmark runs on changes speed by up to 2x over
seconds to minutes, and process CPU time follows wall time, so the
change is slower execution rather than lost CPU.  Ten runs spread over
several minutes then differ more than any bound a regression check can
use.  The benchmark therefore times a fixed kernel between its rounds
and reports time in *nominal seconds*: wall time scaled by
``NOMINAL_CHUNK_S`` over the median time of one kernel chunk in the
same run.  On a host where one chunk takes ``NOMINAL_CHUNK_S``, a
nominal second is a wall-clock second.

The kernel is independent of bmatch and never changes with it: breadth-
first sweeps over a fixed random graph held in dicts, lists and sets,
the same kind of interpreter work as the pure-Python solver.
"""

from __future__ import annotations

import random
import statistics
import time

# Median chunk time on the baseline host (2 vCPUs, Python 3.11.7).
NOMINAL_CHUNK_S = 0.004
# Share of each round's time spent on reference chunks after it.
SHARE = 0.05

_rng = random.Random(20231018)
_VERTICES = 300
_GRAPH = {u: [_rng.randrange(_VERTICES) for _ in range(6)] for u in range(_VERTICES)}


def chunk() -> int:
    """One reference chunk: 30 breadth-first sweeps of the fixed graph."""
    reached = 0
    for source in range(0, _VERTICES, 10):
        seen = {source}
        queue = [source]
        for u in queue:
            for v in _GRAPH[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        reached += len(queue)
    return reached


class HostSpeed:
    """Collects reference chunk times over a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, budget_s: float) -> None:
        """Time chunks for about ``budget_s`` seconds, at least one."""
        end = time.perf_counter() + budget_s
        while True:
            t0 = time.perf_counter()
            chunk()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            if t1 >= end:
                return

    def chunk_s(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        """Nominal seconds per wall-clock second in this run."""
        return NOMINAL_CHUNK_S / self.chunk_s()
