"""Machine-speed probe: scales end-to-end times to a fixed reference speed.

The 2-vCPU reference machine shares its host, and the speed of its CPU
drifts by up to a third over seconds to minutes, so raw wall times of
identical runs spread wider than any useful bound. While the calls run, a
SIGALRM timer runs a fixed kernel every INTERVAL_S seconds on the same
thread: a Python loop, matrix-vector products and an outer-product
accumulation at the paper's layer shape, the three kinds of work the dvae
workloads do. Each tick runs it twice and times the second run, so what the
workload left in the caches does not change the timing. The tick's time is
subtracted from the call it interrupted, and
`scale()` = REF_KERNEL_S / (median kernel time in this run) converts a
run's times to reference-speed times. No change to dvae can move the
kernel, so a program change moves only the numerator.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
# Median kernel time on the reference machine (Xeon, 2 vCPUs, numpy 2.4.6,
# one OpenBLAS thread).
REF_KERNEL_S = 2.2e-3

_rng = np.random.default_rng(0)
_W = _rng.random((512, 784))
_x = _rng.random(784)
_y = _rng.random(512)
_G = np.zeros((512, 784))


def kernel() -> float:
    """Run the fixed kernel once; returns its duration in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    for _ in range(4):
        _W @ _x
    np.add(_G, np.outer(_y, _x), out=_G)
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager sampling kernel() every INTERVAL_S seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, spent, kernel)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < 5:   # runs too short for the timer
            self._tick(signal.SIGALRM, None)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        timed = kernel()
        self.samples.append((start, time.perf_counter() - start, timed))

    def time_in(self, start: float, end: float) -> float:
        """Seconds the ticks took inside [start, end)."""
        return sum(spent for s, spent, _ in self.samples if start <= s < end)

    def scale(self) -> float:
        """Multiplier from this run's speed to the reference speed."""
        return REF_KERNEL_S / statistics.median(k for _, _, k in self.samples)
