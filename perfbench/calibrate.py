"""Machine-speed calibration of the benchmark's times.

The benchmark runs on shared machines whose speed drifts by up to a
factor of two over seconds to minutes, which moves every wall time of a
run alike.  A fixed pure-Python loop (`probe`) is timed next to the work;
a time is reported in reference seconds, wall seconds multiplied by
``REFERENCE_S / median probe time`` over the probes taken during it,
which removes the drift the probe sees.  Raw wall times are reported beside them.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PROBE_LOOPS = 20_000
REFERENCE_S = 0.0015   # probe time at which reference seconds equal wall seconds
INTERVAL_S = 0.2
MIN_PROBES = 3         # fewer probes inside one timing fall back to the run's factor


def probe() -> float:
    """Seconds the fixed loop takes now."""
    t0 = perf_counter()
    acc = 0
    for j in range(PROBE_LOOPS):
        acc += j * j % 7
    return perf_counter() - t0


def factor(probe_times) -> float:
    """Multiplier from wall seconds to reference seconds."""
    return REFERENCE_S / statistics.median(probe_times)


def local_factor(probe_times, span, run_factor: float) -> float:
    """Factor of one timing from the probes taken during it, `span` being
    their [first, end) indices; `run_factor` when fewer than MIN_PROBES."""
    first, end = span
    return factor(probe_times[first:end]) if end - first >= MIN_PROBES else run_factor


class SpeedProbe:
    """Runs `probe` every INTERVAL_S seconds from a SIGALRM handler, so the
    machine's speed is sampled during long requests too.  `spent` is the
    time the probes took, for the caller to subtract from its timings."""

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0

    def _sample(self, _signum, _frame) -> None:
        t = probe()
        self.times.append(t)
        self.spent += t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
