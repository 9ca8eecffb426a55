"""The speed of the host, measured beside each job, and times corrected by it.

On a shared host the same job's wall time spreads by a fifth or more from run
to run, for two causes that act on different parts of a job:

* compute speed: the throughput of one vCPU for interpreted Python changes by
  up to a factor of two within seconds, and the vCPUs change independently;
* import speed: spawning Python and importing modules (file reads, page
  faults, mapping shared libraries) is 20-30% slower for minutes at a time,
  while the compute speed does not move.

So each benchmark child runs a `Probe` thread beside the job: every PERIOD_S
it takes the GIL, times one fixed pure-Python work unit by its own thread
CPU time and gives the GIL back.  Units per CPU second, over the part of the
child after its imports, is the compute speed of the CPU the job ran on
while it ran.  And each run spawns reference children (`child.py
--reference`) that import a fixed set of modules that are not mtower's own:
their median import time is the import speed of the run.

`reference_s` splits a child's wall time at the moment its imports are done
and scales each part by its own speed: the imports by REF_IMPORT_S over the
run's reference import time, the rest by the compute speed over REF_RATE.
The result is in reference seconds, the time the job would take on this host
at its usual speed: a job that does half the work takes half the reference
seconds whatever the host's speed was.

The probe costs the job about 1% (one unit, ~0.15 ms, every 20 ms).
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.02
# The host's usual speed, about the medians measured on the machine of
# README.md: probe units per CPU second inside jobs, and the time of a
# reference child from spawn until its imports are done.
REF_RATE = 6000.0
REF_IMPORT_S = 0.2
# What a reference child imports: the modules, not mtower's own, that
# mtower.cli imports at this commit.  Fixed, so that a change to mtower's
# imports shows in setup_s rather than in the reference.
REFERENCE_IMPORTS = (
    "numpy", "argparse", "concurrent.futures", "dataclasses", "datetime",
    "decimal", "fractions", "hashlib", "heapq", "inspect", "json", "logging",
    "pickle", "platform")

_P = tuple((i * 7 + 3) % 120 for i in range(120))
_Q = tuple((i * 11 + 5) % 120 for i in range(120))


def work_unit() -> None:
    """Twenty products of permutations of 120 points, each kept in a dict:
    the kind of work mtower's inner loops do."""
    r, seen = _P, {}
    for _ in range(20):
        r = tuple(_Q[i] for i in r)
        seen[r] = 1


class Probe(threading.Thread):
    """Samples the compute speed from start() until stop()."""

    def __init__(self) -> None:
        super().__init__(name="speed-probe", daemon=True)
        self._done = threading.Event()
        self.units = 0
        self.cpu_s = 0.0
        self._mark = (0, 0.0)

    def run(self) -> None:
        while True:
            start = time.thread_time()
            work_unit()
            self.cpu_s += time.thread_time() - start
            self.units += 1
            if self._done.wait(PERIOD_S):
                return

    def mark(self) -> None:
        """Measure from here on: called when the child's imports are done."""
        self._mark = (self.units, self.cpu_s)

    def stop(self) -> float | None:
        """Stop sampling; units per CPU second since mark(), or None when no
        unit ran since then."""
        self._done.set()
        self.join()
        units, cpu_s = self.units - self._mark[0], self.cpu_s - self._mark[1]
        return units / cpu_s if units and cpu_s > 0 else None


def import_factor(import_s: list[float]) -> float | None:
    """REF_IMPORT_S over the median import time of a run's reference
    children: below 1 when importing was slow."""
    return REF_IMPORT_S / statistics.median(import_s) if import_s else None


def reference_s(wall_s: float, setup_s: float | None, rate: float | None,
                imports: float | None) -> float | None:
    """A job's wall time in reference seconds: its first `setup_s` (the
    imports) times the import factor, the rest times the compute speed
    `rate` over REF_RATE.  None when a part has no speed."""
    if setup_s is None or rate is None or imports is None:
        return None
    return setup_s * imports + (wall_s - setup_s) * rate / REF_RATE
