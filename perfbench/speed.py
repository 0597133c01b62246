"""Timings at a fixed reference speed of the host.

On a shared host the speed of one process drifts by up to +-20% over tens
of seconds, in process CPU time as much as in wall time, so two runs of the
same input can differ by a fifth.  A run therefore probes the host between
its timed intervals with a fixed kernel that does the same kinds of work
as the pipeline (dict, Fraction and small numpy calls, all bound by the
interpreter) but none of its code.  Speed also flickers by +-20% over
fractions of a second, so one probe says little about the interval next to
it; the mean of all probes of a run says how fast the host was during that
run.  `Gauge.factor` rescales the run's wall times to the time they would
have taken at the speed at which the probe takes `REFERENCE_S`.  A slower
or faster program moves the rescaled times; a slower or faster host moves
the probes as well, and mostly cancels.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# Mean kernel time on the 2-vCPU shared VM the benchmark was sized on; it
# sets the scale only (bounds are relative), and keeps the figures near
# seconds.
REFERENCE_S = 0.0085
PROBE_REPEATS = 25

_MATRIX = np.arange(16.0).reshape(4, 4) + np.eye(4)


def _kernel() -> int:
    """About 10 ms of the pipeline's kinds of work, none of its code: tuple
    keys in a dict, Fraction arithmetic, small numpy calls."""
    table: dict[tuple[int, int], int] = {}
    acc = Fraction(0)
    for i in range(6000):
        key = (i * 7919 % 40009, i % 13)
        table[key] = table.get(key, 0) + 1
        if i % 8 == 0:
            acc += Fraction(i % 97, 1 + i % 89)
        if i % 64 == 0:
            np.linalg.det(_MATRIX)
    return len(sorted(table)) + int(acc)


class Gauge:
    """The probes of one run."""

    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> None:
        """Time the kernel a few times back to back (about 0.2 s)."""
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            _kernel()
            self.probes.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Multiply a wall time of this run by this to get reference time."""
        return REFERENCE_S / statistics.fmean(self.probes)
