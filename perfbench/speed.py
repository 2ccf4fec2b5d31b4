"""Machine-speed probe: times reported at a fixed reference CPU speed.

On a shared host the speed of one core drifts by 10-25%, over fractions
of a second as well as over tens of seconds (neighbours on sibling
hyper-threads, frequency changes), and it moves CPU time as much as wall
time.  A fixed piece of interpreter work run right beside the program's
work tracks that drift: the ratio of a job's time to the probe's time
stays within a few percent while both move by 20%.  So every time the
benchmark reports is

    raw seconds * REFERENCE_PROBE_S / (mean probe reading around it)

that is, the time the same work would take on a machine where the probe
takes ``REFERENCE_PROBE_S``.  The readings around a piece of work are the
one taken right before it, the one right after it, and, for work longer
than SAMPLE_EVERY_S, one every SAMPLE_EVERY_S during it (``Sampler``).  A
change to the program moves these times exactly as it moves raw time; a
change of machine speed does not.  The probe allocates nothing the
garbage collector tracks while it is timed and calls nothing from
``latincrit``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

PROBE_LOOPS = 3500
PROBE_REPEATS = 3
SAMPLE_EVERY_S = 0.25
# The probe's time on a 2-vCPU Intel Xeon VM with Python 3.11; it only
# sets the scale, so reported times read close to raw seconds there.
REFERENCE_PROBE_S = 1.0e-3


def _work(table: dict, loops: int) -> int:
    s = 0
    for i in range(loops):
        table[i & 511] = s
        s = (s * 31 + i) & 0xFFFFFF
        if i % 7 == 0:
            s ^= table[(s >> 3) & 511]
    return s


def probe() -> float:
    """Seconds the fixed work takes now: the median of a few repeats, so an
    interrupt in one of them does not count."""
    table = dict.fromkeys(range(512), 0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            _work(table, PROBE_LOOPS)
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def factor(readings: list[float]) -> float:
    """Scale from raw seconds to seconds at the reference speed, for work
    done while these probe readings were taken."""
    return REFERENCE_PROBE_S * len(readings) / sum(readings)


class Sampler:
    """Takes a probe reading every SAMPLE_EVERY_S while a piece of work runs,
    from a SIGALRM handler (main thread, POSIX only).  ``stop`` returns the
    readings and the seconds the handler took, which the caller subtracts
    from the work's time."""

    def __init__(self):
        self.readings = []
        self.overhead_s = 0.0
        self.previous = None  # the SIGALRM handler to restore on stop

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.readings.append(probe())
        self.overhead_s += time.perf_counter() - start

    def start(self) -> None:
        self.readings, self.overhead_s = [], 0.0
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> tuple[list[float], float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return self.readings, self.overhead_s
