"""Host-speed probe: a fixed pure-Python kernel timed every 20 ms while
the workload runs, so that timings can be corrected for the speed of a
shared host, which drifts by tens of percent over seconds.

The kernel is the benchmark's own code and never calls the program, so a
change to the program cannot change what the probe reads.  It runs from a
SIGALRM handler in the benchmark's only thread; the handler's own time is
taken back out of every instance it lands in.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02  # one probe per 20 ms of wall time, about 2% of it
WINDOW_S = 0.5  # host speed for an instance: probes within this span of it
# What the kernel takes on the host the corrected times are scaled to;
# about its time on a quiet 2-vCPU Xeon, so corrected times read close to
# wall times.
NOMINAL_S = 4e-4


def kernel() -> int:
    """Integer arithmetic over nested lists and dict updates: the interpreter
    work that dominates the program's subspace and code layers."""
    acc = 0
    rows = [[(i * j) % 3 for j in range(12)] for i in range(12)]
    for _ in range(6):
        for row in rows:
            for k, v in enumerate(row):
                acc = (acc + v * k) % 7
        counts = {}
        for i in range(400):
            counts[i % 37] = counts.get(i % 37, 0) + i
    return acc


class Probe:
    """Samples (start, duration) of the kernel on a wall-clock timer."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._old = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.durations:  # a span shorter than one interval
            self._sample(None, None)
        return False

    def correct(self, start: float, end: float) -> tuple[float, float]:
        """(wall time net of probes, that time scaled to the nominal host)
        for an instance timed from `start` to `end`."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        net = end - start - sum(self.durations[lo:hi])
        pad = max(0.0, (WINDOW_S - (end - start)) / 2)
        a = bisect.bisect_left(self.starts, start - pad)
        b = bisect.bisect_left(self.starts, end + pad)
        near = self.durations[a:b] or self.durations[max(0, lo - 1):lo + 1]
        return net, net * NOMINAL_S / statistics.median(near)
