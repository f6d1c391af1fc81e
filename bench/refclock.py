"""Wall time at a reference CPU speed.

The benchmark's vCPUs share their physical cores with other tenants, so
the same Python code runs up to twice as slowly for a few seconds at a
time, and a median of raw pass times moves by a quarter from run to run.
A RefClock times an interval in reference-speed seconds instead: while
it runs, SIGALRM fires every PERIOD_S seconds of wall time and the
handler times one fixed computation (`reference`, exact Fraction
arithmetic and a dict store, the mix raviolo spends its time on).  The
wall time between two samples is scaled by NOMINAL_S over the duration
of those samples, so it reads as the time the interval would take on a
core where `reference` takes NOMINAL_S.  The samples' own time is left
out of both the raw and the scaled figure.

Signals reach only the main thread, between bytecodes; a long C call
delays the next sample and its segment is scaled all the same.
"""

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
NOMINAL_S = 2.4e-4  # `reference` on an idle core of a 2-vCPU Xeon VM


def reference():
    d = {}
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
        d[i % 13] = s
    return s


class RefClock:
    """Context manager; after it exits, `raw` is the wall time of the
    block less the samples' time and `ref` the same time at reference
    speed, both in seconds."""

    def __init__(self):
        self.samples = []  # (start, duration) of each timed `reference`
        self.raw = self.ref = None

    def _sample(self, signum=None, frame=None):
        t = time.perf_counter()
        reference()
        self.samples.append((t, time.perf_counter() - t))

    def __enter__(self):
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # the speed at the start of the block
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        # a sample that fired after t1 belongs to no segment
        inside = [(t, d) for t, d in self.samples[1:] if t < t1]
        self._sample()  # the speed at the end of the block
        self.raw = t1 - self.t0 - sum(d for _, d in inside)
        # a median of three neighbouring samples, so that one sample hit
        # by preemption or a collection does not scale its segments
        durs = [d for _, d in [self.samples[0]] + inside
                + [self.samples[-1]]]
        smooth = [statistics.median(durs[max(i - 1, 0):i + 2])
                  for i in range(len(durs))]
        ends = [self.t0] + [t + d for t, d in inside]
        starts = [t for t, _ in inside] + [t1]
        self.ref = sum((b - a) * NOMINAL_S * (1 / smooth[i] +
                                              1 / smooth[i + 1]) / 2
                       for i, (a, b) in enumerate(zip(ends, starts)))
        return False
