"""CPU speed samples, to scale measured times to a fixed reference speed.

On a shared VM the CPU runs at 50% to 100% of its top speed. The speed changes
within a second and also drifts in phases of minutes, and a process's CPU time
slows with it, so the loss is not steal time that CPU time could leave out.
A meter therefore times a fixed piece of work that uses nothing from the
library: a sample. It takes one before and one after each timed call, and
one every INTERVAL seconds during it, from a SIGALRM handler in the same
thread. The call's seconds, less the time its own samples took, are
multiplied by the mean speed of those samples, as a share of the reference
speed. A reported second is then a second at the reference speed.
"""

import signal
import statistics
import time
from fractions import Fraction

# Seconds one sample takes at the reference speed: the 5th percentile of 1840
# samples on the 2-core x86 VM (Xeon, Python 3.11) where the benchmark was set up.
REF_S = 0.0019
INTERVAL = 0.1


def _work():
    """Fraction sums into a dict keyed by tuples, as in the library's inner loops."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(600):
        k = (i % 97, i % 13)
        acc[k] = acc.get(k, 0) + x * (i % 7 - 3)


class SpeedMeter:
    def __init__(self):
        self.samples = []  # (start, end) of every sample
        self.periodic = False

    def sample(self):
        t0 = time.perf_counter()
        _work()
        self.samples.append((t0, time.perf_counter()))

    def _tick(self, signum, frame):
        if self.periodic:
            self.sample()

    def start(self):
        """Sample every INTERVAL seconds while `periodic` is set."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, first=0):
        """Mean speed of samples[first:], as a share of the reference speed."""
        return statistics.fmean(REF_S / (b - a) for a, b in self.samples[first:])

    def sampled_s(self, t0, t1, first=0):
        """Seconds spent on samples[first:] that started within [t0, t1)."""
        return sum(b - a for a, b in self.samples[first:] if t0 <= a < t1)

    def timed(self, fn, periodic=True):
        """Run fn(); return (its result, its seconds at the reference speed,
        raw seconds). The raw seconds leave out samples taken while fn ran;
        exceptions from fn propagate. With periodic=False only the samples
        before and after fn are taken."""
        first = len(self.samples)
        self.sample()
        self.periodic = periodic
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            self.periodic = False
            self.sample()
        raw = t1 - t0 - self.sampled_s(t0, t1, first)
        return result, raw * self.speed(first), raw
