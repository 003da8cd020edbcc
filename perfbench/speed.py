"""Machine-speed reference for the benchmark's end-to-end times.

On a shared host the same single-threaded work takes 1.1x to 1.9x its
fastest time, in phases of a few seconds, and CPU time moves with wall
time. Compute-bound work slows by the same factor at the same moment. So
while an operation runs, a timer signal interrupts it every INTERVAL_S to
time a short fixed reference slice in the same thread, and the operation's
time is reported scaled to a machine on which a slice takes SLICE_S:

    seconds = wall time of the operation - time spent in the slices
    scaled  = seconds * SLICE_S / mean(slice times before, during and after)

A slice is three numpy eigendecompositions of a fixed 80x80 matrix. It
does not use ``kdecoreset``, but it runs in the caches the operation
leaves: a slice takes about 2.6 ms between an operation's steps and 1.5
ms on its own. So a change to the package that alters its memory traffic
can move the slices, and with them its scaled time, a little. Of the
slices tried (an interpreter loop, exp
over a small and over a large array, a small eigh), it tracked the
operations best: one chain, eval or verify on its own, scaled, spread
5-8% between the quartiles where its wall time spread 28-36%. Python runs
the handler between bytecodes, so a long numpy call delays a slice but
does not lose it.
"""

import signal
import time
from contextlib import contextmanager

import numpy as np

# A slice's mean seconds, while the benchmark's operations run, on a
# shared 2-vCPU x86_64 VM (Python 3.11, numpy 2.4, OpenBLAS on one
# thread); scaled times are of the order of that machine's wall times.
SLICE_S = 0.0026
INTERVAL_S = 0.05
AROUND = 4  # slices run just before and just after each operation

_GRAM = (lambda a: a @ a.T)(np.random.default_rng(0).standard_normal((80, 80)))


def reference_slice():
    """Seconds taken by one fixed slice of reference work."""
    start = time.perf_counter()
    for _ in range(3):
        np.linalg.eigh(_GRAM)
    return time.perf_counter() - start


class Speed:
    """Times operations and the reference slices run while they run."""

    def __init__(self):
        for _ in range(20):  # first calls pay for page faults and caches
            reference_slice()
        self.slices = []

    def _sample(self, signum=None, frame=None):
        self.slices.append(reference_slice())

    @contextmanager
    def measure(self, out):
        """Time the body. Sets out["seconds"], its wall time less the
        slices run inside it, and out["scaled"]; sets neither if the body
        raises."""
        self.slices = []
        for _ in range(AROUND):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield out
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall = time.perf_counter() - start
            inside = sum(self.slices[AROUND:])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(AROUND):
            self._sample()
        out["seconds"] = wall - inside
        out["scaled"] = out["seconds"] * SLICE_S * len(self.slices) / sum(self.slices)
