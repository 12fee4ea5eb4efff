"""Host speed, sampled while the benchmark runs.

On a machine whose virtual CPUs share physical cores with other tenants, the
same code runs up to 1.6 times slower for stretches of seconds to minutes,
and CPU time slows with wall time. `HostSpeed` times a fixed calibration
kernel from a SIGALRM handler every INTERVAL_S seconds, on the benchmark's
only thread, so every operation has speed samples taken while it ran.
`scaled(start, end)` turns a wall-clock interval into seconds at the
reference speed: the interval less the kernel time spent inside it, times
REFERENCE_KERNEL_S over the median kernel time sampled from WINDOW_S before
the interval to WINDOW_S after it.

The kernel uses the same kind of work as textidrec (small float64 matmuls,
softmax, Python object churn) and none of its code, so a change to the
program cannot change the yardstick.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

import numpy as np

# Median kernel time on the reference host: 2 virtual CPUs of an Intel Xeon
# at 2.1 GHz in a quiet phase, one BLAS thread.
REFERENCE_KERNEL_S = 0.0024
KERNEL_REPS = 100
INTERVAL_S = 0.2
WINDOW_S = 1.0


class HostSpeed:
    """Context manager: samples the calibration kernel every INTERVAL_S."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((40, 64))
        self._w = rng.standard_normal((64, 64)) / 8.0
        self.starts = array("d")
        self.durations = array("d")

    def kernel(self) -> float:
        acc = 0.0
        for _ in range(KERNEL_REPS):
            z = self._x @ self._w
            z = z - z.max(axis=-1, keepdims=True)
            e = np.exp(z)
            p = e / e.sum(axis=-1, keepdims=True)
            parts = {"p": p, "rows": [z[0], e[1]]}
            acc += float(p[0, 0]) + len(parts["rows"])
        return acc

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        return False

    def scaled(self, start: float, end: float) -> float:
        """Seconds from `start` to `end` at the reference host speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.durations[lo:hi])
        # one sample is noisy; slow phases last seconds, so samples up to
        # WINDOW_S either side still describe the interval
        around = (self.durations[bisect.bisect_left(self.starts, start - WINDOW_S):
                                 bisect.bisect_right(self.starts, end + WINDOW_S)]
                  or self.durations[max(0, lo - 1):lo + 1])
        return (end - start - inside) * REFERENCE_KERNEL_S / statistics.median(around)

    def slowdown(self) -> float:
        """Median kernel time over the reference: 1.0 on a quiet reference host."""
        return statistics.median(self.durations) / REFERENCE_KERNEL_S
