"""Host-speed calibration for the end-to-end timings.

The benchmark's host is a shared virtual machine whose speed is bimodal:
a fixed piece of work runs either at full speed or at about half of it.
The host switches between the two, sometimes several times a second and
sometimes after several seconds, in proportions that drift over minutes.
A ``Speedometer`` measures that speed while the workload runs: a
wall-clock interval timer interrupts the benchmark every ``INTERVAL_S``,
and the signal handler times a small fixed kernel -- one cycle of
projections like Dykstra's inner loop -- on fixed inputs, calling nothing
in the library.  It runs the kernel once untimed first, so that the
sample does not depend on how much of the cache the interrupted work had
taken, which differs by workload and would differ by commit.  Python
runs the handler between two bytecodes of the main thread, so samples
fall inside the library's own loops too, not only between jobs.

A job's time is multiplied by ``REFERENCE_S`` over the mean of the kernel
samples taken during the job and up to ``WINDOW_S`` either side.  A
timing then reads as on the host at full speed: a slow stretch cancels
whether it hits a short job whole or part of a long one.  The mean, not
the median, because the mean follows the share of time spent at each
speed, where the median of a bimodal sample jumps from one mode to the
other.  The library's own speed is untouched by this: a change that
halves a job's work halves its scaled time.  The handler's own time,
about 3% of the wall time, falls inside the job times, the same share on
every commit.
"""

import signal
import statistics
import time

import numpy as np

SMALL_N = 12  # markets in the projection cycle, as on the desk scenarios
REFERENCE_S = 0.0003  # the kernel's time at the host's full speed (bench/README.md)
INTERVAL_S = 0.03  # wall time between two samples
WINDOW_S = 0.1  # samples this close to a job also count for it


def _ring_operator(n, fraction):
    """``I - delta*G`` for a ring (spectral radius 2) at ``fraction`` of the bound."""
    g = np.zeros((n, n))
    idx = np.arange(n)
    g[idx, (idx + 1) % n] = g[(idx + 1) % n, idx] = 1.0
    return np.eye(n) - 0.5 * fraction * g


class Kernel:
    """One projection cycle over the 66 pairwise difference constraints of
    12 markets: a fixed piece of work of about the grain of Dykstra's."""

    def __init__(self):
        hinv = _ring_operator(SMALL_N, 0.9)
        pairs = [(i, j) for i in range(SMALL_N) for j in range(i + 1, SMALL_N)]
        self._vmat = np.zeros((len(pairs), SMALL_N))
        for k, (i, j) in enumerate(pairs):
            self._vmat[k, i], self._vmat[k, j] = 1.0, -1.0
        self._dirs = self._vmat @ hinv.T
        self._norms = np.einsum("kn,kn->k", self._vmat, self._dirs)
        self._his = np.full(len(pairs), 0.5)
        self._los = -self._his
        self._start = np.linspace(-3.0, 3.0, SMALL_N)

    def __call__(self):
        x, coefs = self._start.copy(), np.zeros(len(self._norms))
        vmat, dirs, norms, los, his = self._vmat, self._dirs, self._norms, self._los, self._his
        for k in range(len(norms)):
            y = x + coefs[k] * dirs[k]
            t = float(vmat[k] @ y)
            target = min(max(t, los[k]), his[k])
            coefs[k] = (t - target) / norms[k]
            x = y - coefs[k] * dirs[k]


class Speedometer:
    """Samples the kernel's wall time every ``INTERVAL_S`` between
    ``start`` and ``stop``; ``samples`` holds (time, seconds) pairs."""

    def __init__(self):
        self.kernel = Kernel()
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self.kernel()  # refill the caches the interrupted work has evicted
        begin = time.perf_counter()
        self.kernel()
        self.samples.append((begin, time.perf_counter() - begin))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start=None, end=None):
        """``REFERENCE_S`` over the mean sample near [start, end], or over
        the mean of all samples without an interval or none near it."""
        near = [s for t, s in self.samples if start is not None and start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / statistics.fmean(near or [s for _, s in self.samples])
