"""A fixed reference kernel, timed all through a run to gauge the host's speed.

The host this benchmark was tuned on runs the same code up to 1.7 times slower
for stretches of seconds to many minutes, on both vCPUs at once, without any
steal time showing in the guest (NOTES.md has the figures). A run that falls
in a slow stretch is slow from start to end, so no statistic over its own
passes can correct it. The reference kernel is slowed by the same stretches.
So the timings are scaled by REFERENCE_S over the kernel's median time in the
same run: a run in a slow stretch has a slower kernel and is scaled down by
as much. The kernel does not call seqgme, so a change to seqgme cannot move it.

The kernel is a plain Python integer loop followed by small numpy calls on a
16x16 Hermitian matrix. Of the candidates tried (these two, dict loops with
small and large tables, a list walk, a 192x192 BLAS product, an 8 MiB stream
and sums of them), this sum tracked all three workloads best; NOTES.md has
the figures. It holds a few KiB, so it leaves peak memory as it was.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# The kernel's median time over the runs made while tuning the benchmark, on
# a 2-vCPU KVM guest on a 2.1 GHz Xeon with Python 3.11.7, numpy 2.4.6 and
# one OpenBLAS thread. It only sets the scale of the reported seconds, so that
# they stay near the raw wall times; any fixed value would compare commits
# the same way.
REFERENCE_S = 0.0027

# How often the sampler times the kernel, in seconds of wall time.
PERIOD_S = 0.1


_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))


def kernel() -> float:
    """Run the reference kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(20):
        hermitian = _SMALL @ _SMALL.conj().T
        np.linalg.eigvalsh(hermitian)
        np.trace(hermitian @ hermitian)
    return time.perf_counter() - start


def speed(samples: list[float]) -> float:
    """The factor that takes a time measured beside these kernel samples to
    the host speed at which the kernel takes REFERENCE_S."""
    return REFERENCE_S / statistics.median(samples)


class Sampler:
    """Times the kernel every PERIOD_S from a SIGALRM handler while running.

    A Python signal handler runs between bytecodes of the main thread, so the
    samples are spread over the whole run, long CLI calls included. `busy_s`
    is the time spent in the handler, which callers take out of the timings
    they measure around it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel())
        self.busy_s += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
