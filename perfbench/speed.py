"""The host's speed, sampled during every timed repetition.

The benchmark shares a few cores of a host whose speed drifts as other
tenants come and go: the same code can run 20-35% slower for a minute at a
time, so a whole run of the benchmark can sit in a slow phase, and longer
runs do not remove that.  So while a repetition is timed, a ``SIGALRM``
timer runs a small fixed probe every ``PERIOD_S`` seconds, on the same CPU
and between the program's own bytecodes.  The probe is a pure-Python pass
over a dict, a numpy ufunc pass over a 256 KB array and a numpy gather.  It
runs twice per tick: the first pass warms the caches the program left
cold, and only the second, about 0.5 ms, is kept as a sample, so that a
sample measures the CPU and not the program's use of the caches.  The
repetition's time, less the whole of every tick, is scaled to a host where
the timed pass takes ``REFERENCE_PROBE_S``:

    scaled = (measured - tick total) * REFERENCE_PROBE_S / typical sample

where the typical sample is the mean of the middle half of the samples.
The probe calls nothing in ``peierls``, so a change to the program moves
the scaled times as it moves the measured ones; only the host's drift is
divided out.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.03

# About the timed pass's time in the fast phases of the host the benchmark
# was written on (2 shared vCPUs of an Intel Xeon, Python 3.11.7, numpy
# 2.4.6).  Scaled times are seconds on a host that fast; the constant sets
# their scale, not their spread.
REFERENCE_PROBE_S = 0.0005

_KEYS = [(i * 7919 % 4096, i % 13) for i in range(1500)]
_FLOATS = np.arange(1 << 15, dtype=np.float64)
_INDICES = (np.arange(1 << 16, dtype=np.int64) * 7) & 4095
_TABLE = np.linspace(0.0, 1.0, 4096)


def _probe_pass() -> None:
    counts: dict = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    np.exp(-_FLOATS * 1e-6).sum()
    _TABLE[_INDICES].sum()


def probe() -> float:
    """Seconds a warm pass of the fixed probe takes now."""
    _probe_pass()
    t0 = time.perf_counter()
    _probe_pass()
    return time.perf_counter() - t0


def interquartile_mean(values: list) -> float:
    """Mean of the middle half of ``values``."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def scale(measured: float, probe_s: float) -> float:
    """``measured`` seconds at a probe time of ``probe_s``, scaled to the
    reference speed."""
    return measured * REFERENCE_PROBE_S / probe_s


class Sampler:
    """Probe samples taken inside the blocks of one timed repetition."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0        # seconds the ticks took, warm-up included

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Probe every ``PERIOD_S`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, measured: float) -> float:
        """``measured`` seconds that contain every sampled block, less the
        ticks, scaled to the reference speed."""
        probes = self.samples or [probe()]  # blocks shorter than one period
        return scale(measured - self.spent, interquartile_mean(probes))
