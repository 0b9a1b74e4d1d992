"""Correction of the benchmark's timings for the machine's changing speed.

On the shared host the benchmark was tuned on, the CPU runs faster and
slower in phases lasting from seconds to longer than a run: the same
50-run study took 146-315 ms within one process, and wall and CPU time
moved together.  Raw timings of one commit then spread past any useful
bound.  So the machine's speed is measured all through the run with a
fixed reference kernel that uses nothing of sensorreg: a pure-Python
loop and small and mid-size numpy operations, the mix sensorreg itself
runs.  Each timed call is multiplied by ``NOMINAL_REFERENCE_S`` over the
mean reference time around and during it.  The result reads as the time
the call would take with the machine at the baseline's typical speed.
A change to sensorreg moves the call but not the reference, so it shows
in full.
"""

import signal
import statistics
import time

import numpy as np

# median time of one reference_seconds() on the baseline machine
# (see BASELINE.md); it only sets the scale the corrected timings read in
NOMINAL_REFERENCE_S = 0.0042
# how often the reference runs during a long call
SAMPLE_PERIOD_S = 0.5

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((3, 3))
_WIDE = _rng.standard_normal((3, 2048))


def _reference_kernel():
    total = 0
    for i in range(10000):
        total += i * i
    rot = _SMALL
    for _ in range(125):
        u, _, vt = np.linalg.svd(_SMALL @ rot.T)
        rot = u @ vt
    for _ in range(20):
        unit = _WIDE / np.linalg.norm(_WIDE, axis=0)
        total += float((rot @ unit).sum())
    return total


def reference_seconds():
    """Wall time of the reference kernel: the median of three runs, so
    that one run the scheduler interrupts does not count."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class SpeedClock:
    """Times calls and scales each time to the nominal machine speed.

    The reference runs just before and just after each call and, with
    ``sample`` set, from a SIGALRM handler every ``SAMPLE_PERIOD_S``
    during it, so a long call is scaled by the speed the machine had
    while it ran.  Time spent in the handler is taken out of the call's
    time.  Traced runs do not sample, so no sample lands in a span.
    """

    def __init__(self, sample=True):
        _reference_kernel()   # numpy's first linear-algebra call loads LAPACK
        self.period_s = SAMPLE_PERIOD_S if sample else 0.0
        self.references = [reference_seconds()]
        self._paused_s = 0.0
        self._sampling = False

    def _sample(self, signum, frame):
        if self._sampling:    # a signal that arrives during a sample
            return
        self._sampling = True
        start = time.perf_counter()
        self.references.append(reference_seconds())
        self._paused_s += time.perf_counter() - start
        self._sampling = False

    def call(self, fn, *args):
        """Run ``fn(*args)``; return its result, raw and scaled seconds."""
        first = len(self.references) - 1
        self._paused_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed -= self._paused_s
        self.references.append(reference_seconds())
        speed = statistics.fmean(self.references[first:])
        return result, elapsed, elapsed * NOMINAL_REFERENCE_S / speed

    def relative_speed(self):
        """The machine's median speed over the run, nominal being 1."""
        return NOMINAL_REFERENCE_S / statistics.median(self.references)
