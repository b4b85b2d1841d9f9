"""The measuring host's speed, sampled while a run goes on.

The host's speed drifts: identical work takes up to 1.6 times as long
from one stretch of a minute to the next, and process CPU time grows
exactly as wall time does, so a slow stretch is a slower CPU, not lost
time slices.  Wall times taken minutes apart are therefore not
comparable as they stand.

A ``Sampler`` runs a fixed calibration kernel every ``PERIOD`` seconds
from a timer signal, in the main thread, between the program's own
bytecodes, and records the kernel's thread CPU time.  The kernel does
what tetravol's engine does: exact integer arithmetic on numpy object
arrays and dicts of Python ints.  ``normalize`` turns the wall time of
an interval into reference seconds: the wall time, less the kernel runs
inside it, times the mean of ``REFERENCE_S / kernel time`` over the
samples taken inside it.  That mean is the interval's average speed
relative to the reference, weighted by time, so the result is the time
the same work takes on the host at the reference speed.  Program changes
do not touch the kernel, so a faster program still reads faster.

Thread CPU time, not wall time, times the kernel: if the program runs
work in other processes or threads, waiting for a core does not count
as a slow host.
"""

import bisect
import signal
import statistics
import time
from array import array

import numpy as np

PERIOD = 0.02
# A fixed scale: near the kernel's thread CPU time at the fast level of
# the 2-vCPU VM that README.md describes (Python 3.11, numpy 2.4).
REFERENCE_S = 0.0006

_A = np.array([(3 ** 60 + 7 * i) * (-1) ** i for i in range(343)],
              dtype=object)
_B = np.array([5 ** 50 + 11 * i for i in range(343)], dtype=object)


def kernel():
    """Fixed exact-integer work; returns its thread CPU seconds."""
    start = time.thread_time()
    x = _A
    for _ in range(10):
        x = x * 3 + _B
        (x >= 0).all()
    acc = {}
    for i in range(500):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + 3 ** 40 * i
    return time.thread_time() - start


class Sampler:
    """Calibration samples taken from SIGALRM while it is started."""

    def __init__(self):
        self.starts = array("d")
        self.walls = array("d")
        self.cpus = array("d")
        self._previous = None

    def sample(self, signum=None, frame=None):
        start = time.perf_counter()
        cpu = kernel()
        self.starts.append(start)
        self.walls.append(time.perf_counter() - start)
        self.cpus.append(cpu)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def normalize(self, t0, t1):
        """Reference seconds for the wall interval [t0, t1].

        Uses the samples that started inside the interval; an interval
        that holds none borrows the sample nearest its middle.
        """
        inside = range(bisect.bisect_left(self.starts, t0),
                       bisect.bisect_right(self.starts, t1))
        overhead = sum(self.walls[i] for i in inside)
        if not inside:
            if not self.starts:
                self.sample()
            mid = (t0 + t1) / 2
            inside = [min(range(len(self.starts)),
                          key=lambda i: abs(self.starts[i] - mid))]
        speed = statistics.fmean(REFERENCE_S / self.cpus[i] for i in inside)
        return (t1 - t0 - overhead) * speed

    def mean_speed(self):
        """Mean speed over all samples, relative to the reference."""
        return statistics.fmean(REFERENCE_S / c for c in self.cpus)
