"""Correction of measured times for contention from other tenants of the host.

On a shared host the core a benchmark runs on is slowed, in bursts of a
second or more, by work on its sibling hardware thread; over minutes a
pass can take anywhere from 1x to 2x its quiet time. The harness pins
itself and its children to one CPU, and a sampler thread on that CPU
times a fixed unit of pure-Python work every PERIOD_S: the unit's duration
at a moment is the core's speed then. A step's corrected time is its wall
time scaled by QUIET_UNIT_S over the median unit duration during the step,
i.e. the step's cost in units, expressed in seconds of a quiet core. The
median, not the mean, so that the odd unit the measured child preempts
does not count as contention.

The unit runs right after the measured child on the same core. Timed
cold, its dict would come back from wherever the child's working set had
pushed it, and the correction would depend on that working set. So each
sample runs the unit once untimed and times the second run. With CPU-bound
children of very different footprint alternated second by second next to
the sampler (a register loop, a numpy gather over 128 MB, a Python list
walk over 3M entries), the median timed unit differed by 0-2% between
them; timed cold it differed by 4-19%. A unit on two integers only was as
little coupled, but missed the contention that slows the scan workloads.

QUIET_UNIT_S is a fixed constant, not the fastest unit of the run: in busy
periods no quiet moment may occur in a whole run, and a per-run reference
then drifts with the contention it is meant to remove.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

PERIOD_S = 0.02
# About the fastest duration of _unit seen on the 2-vCPU Intel Xeon host (2 MiB L2
# per core, 105 MiB L3) under CPython 3.11 where the benchmark was defined.
QUIET_UNIT_S = 180e-6


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts later, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _unit() -> int:
    table = {}
    x = 1
    for i in range(1000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
        table[x & 0xFFF] = i
    return len(table)


class SpeedSampler:
    """Background thread timing _unit every PERIOD_S while it is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            _unit()  # untimed: brings the unit's code and data back into the cache
            t0 = time.perf_counter()
            _unit()
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float, end: float) -> float:
        """Median unit duration in [start, end] over QUIET_UNIT_S; steps shorter
        than a period use the samples next to them."""
        lo = bisect.bisect_left(self.starts, start - PERIOD_S)
        hi = bisect.bisect_right(self.starts, end + PERIOD_S)
        inside = self.durations[lo:hi] or self.durations or [QUIET_UNIT_S]
        return statistics.median(inside) / QUIET_UNIT_S

    def corrected(self, start: float, end: float) -> float:
        return (end - start) / self.slowdown(start, end)
