"""Host-speed reference for the end-to-end times.

On a shared host the speed of a core drifts, by up to about 2x, over
stretches from tens of milliseconds to minutes, while CPU time still equals
wall time.  A raw job time then says as much about the host as about the
program.  So a `Meter` times a short, fixed reference loop just before a
job, every `INTERVAL_S` while it runs and just after it, and scales the
job's time by `NOMINAL_S` over the mean loop time.  A scaled time reads as
the time on a host where the loop takes `NOMINAL_S`.

The loop is the benchmark's own code and calls nothing in the library: a
change to the library moves the scaled times as much as the raw ones, and
the host's drift is divided out.  Its mix of Fraction arithmetic, dict
updates and a numpy array pass follows the library's; of the loops tried,
it tracked the speed of tree and search jobs most closely.  What a job
leaves in the caches still moves the loop's time by a few percent.

Samples during a job come from a SIGALRM handler, which Python runs in the
main thread between bytecodes; their time is taken out of the job's time.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

# Time of one loop on the 2-vCPU host the bounds were set on, at its usual
# speed (Python 3.11, numpy 2.4).
NOMINAL_S = 0.0005
INTERVAL_S = 0.02
_ARRAY = np.arange(50_000, dtype=np.float64)
_paused = 0


def _loop() -> None:
    s = Fraction(0)
    for i in range(1, 100):
        s += Fraction(i % 13 + 1, i)
    d: dict[int, int] = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0) + i
    (_ARRAY * 1.5 + 2.0).sum()


def sample() -> float:
    """Seconds the reference loop takes now.  An untimed run first brings
    the loop's code and data into the caches: a job's memory traffic leaves
    them cold, and the loop must time the host, not what the job left
    behind."""
    _loop()
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


@contextmanager
def paused():
    """No samples inside: for calls whose threads would share the cores with
    the loop, so that it would time them and not the host."""
    global _paused
    _paused += 1
    try:
        yield
    finally:
        _paused -= 1


class Meter:
    """Samples the host's speed around and during one timed job:

        with meter:
            t0 = time.perf_counter(); job(); dt = time.perf_counter() - t0
        latency = meter.nominal(dt)
    """

    def __enter__(self):
        self.samples = [sample()]
        self.inside = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.samples.append(sample())

    def _tick(self, signum, frame):
        if not _paused:
            t0 = time.perf_counter()
            self.samples.append(sample())
            self.inside += time.perf_counter() - t0

    def nominal(self, seconds: float) -> float:
        """A time measured inside the block, less the time spent sampling
        inside it, at nominal host speed."""
        return (seconds - self.inside) * NOMINAL_S / statistics.fmean(self.samples)


class NullMeter:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def nominal(self, seconds: float) -> float:
        return seconds
