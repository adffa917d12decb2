"""Host speed, sampled while the benchmark runs, and times scaled by it.

On a shared host the same code runs at speeds that drift by a third or more,
for seconds or for minutes, as other tenants load the machine.  Across the
runs of a comparison that drift is larger than any bound worth having.  So
while a workload runs, an interval timer runs a fixed reference kernel every
``PERIOD`` seconds (a short interpreter loop and NumPy work on small arrays,
the two kinds of work the package does) and records how long it took.

A stretch of wall time is then scaled to the reference speed: its duration,
less the time the kernel itself took inside it, times the mean of
``REF_MS / kernel time`` over the samples taken in it (at least ``NEAREST``
samples, the nearest ones when the stretch holds fewer).  The result is the
time the same work would take on a host where the kernel takes ``REF_MS``.
The kernel is the benchmark's own code, so a change to the package moves the
scaled times as it moves wall time on a host of steady speed.

The host's speed flips between two levels within milliseconds, so a
stretch's kernel times are bimodal.  Their median jumps between the levels;
the mean of the speeds is the time-average that the stretch's work runs at,
and a sample that a page fault happened to hit moves it by at most 1/n.
Work done in another process is not sampled: the kernel would then run on an
otherwise idle CPU, which reads it slower by an amount that changes from run
to run.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

PERIOD = 0.1
NEAREST = 5
# the kernel's typical time on a quiet 2-CPU x86 container (Xeon, KVM)
REF_MS = 1.0

_X = np.linspace(-4.0, 4.0, 8192)


def kernel() -> float:
    """The reference work: about 1 ms, half interpreter and half NumPy."""
    s = 0.0
    for i in range(6000):
        s += i * 0.5
    y = np.exp(-0.5 * _X * _X) * np.cos(3.0 * _X)
    z = np.fft.irfft(np.fft.rfft(y) * 0.5, n=y.size)
    return s + float(np.cumsum(z)[-1]) + float(np.sort(y)[7])


class Sampler:
    """Times the kernel every PERIOD seconds of wall time while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        # a collection the kernel's allocations would trigger is left to
        # the interrupted code, where it would have happened anyway
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def speed(self, t0: float, t1: float) -> float:
        """Mean of REF_MS / kernel time over the samples of [t0, t1]."""
        if not self.starts:
            raise RuntimeError("no host speed sample was taken")
        starts = np.asarray(self.starts)
        inside = np.flatnonzero((starts >= t0) & (starts <= t1))
        if inside.size < NEAREST:
            mid = 0.5 * (t0 + t1)
            inside = np.argsort(np.abs(starts - mid))[:NEAREST]
        return float(np.mean(1e-3 * REF_MS / np.asarray(self.durations)[inside]))

    def own_time(self, t0: float, t1: float) -> float:
        """Seconds the kernel ran inside [t0, t1]."""
        return float(sum(d for s, d in zip(self.starts, self.durations) if t0 <= s <= t1))

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the reference speed, kernel time left out."""
        return (t1 - t0 - self.own_time(t0, t1)) * self.speed(t0, t1)
