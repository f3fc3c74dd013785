"""Host speed sampling, so timings from a shared host can be compared.

On a shared 2-core host the same code runs up to twice as slow for seconds to
minutes at a time, because of load the benchmark cannot see or control.
While a run measures, a CPU-time timer (SIGVTALRM, every PERIOD_S seconds)
runs a fixed kernel, independent of finegrain, on the main thread and
records how long it took.  The kernel mixes what the program spends its
time on: small numpy products and reductions over 2 MB of weights, and
Python object and call overhead.

`seconds(t0, t1)` turns a wall interval into reference seconds: the interval
minus the kernel runs inside it, times REFERENCE_KERNEL_S over the median
kernel time within PAD_S seconds of the interval.  Reference seconds read as
"seconds on a host where the kernel takes REFERENCE_KERNEL_S"; run.py prints
the unscaled figures too.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# median kernel time on an idle 2-core x86 host (scipy-openblas, 1 thread)
REFERENCE_KERNEL_S = 0.0023
PERIOD_S = 0.1  # CPU seconds between kernel runs
PAD_S = 0.5  # kernel runs this close to an interval set its scale


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


_RNG = np.random.default_rng(0)
_X = _RNG.normal(size=(17, 64))
# 2 MB of weights, about the model's size, so cache contention shows as it does
# for the program
_WEIGHTS = [_RNG.normal(size=(64, 64)) for _ in range(64)]
_V = _RNG.normal(size=(64, 16))


def kernel() -> float:
    nodes = []
    total = 0.0
    for i in range(100):
        h = _X @ _WEIGHTS[(7 * i) % len(_WEIGHTS)]
        h = h - h.max(axis=1, keepdims=True)
        e = np.exp(h)
        p = e / e.sum(axis=1, keepdims=True)
        o = p @ _V
        nodes.append(_Node(h, p, o))
        table = {j: j * 2 for j in range(20)}
        total += float(o[0, 0]) + len(table)
    nodes.sort(key=id)
    return total


class HostSpeed:
    """Context manager: samples the kernel while open; must run on the main thread."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "HostSpeed":
        for _ in range(5):
            self.sample()
        self._previous = signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def _between(self, t0: float, t1: float) -> range:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return range(lo, max(lo, hi))

    def busy(self, t0: float, t1: float) -> float:
        """Seconds the kernel ran inside [t0, t1]."""
        return sum(self.ends[i] - self.starts[i] for i in self._between(t0, t1))

    def kernel_s(self, t0: float, t1: float) -> float:
        """Median kernel time within PAD_S seconds of [t0, t1] (else the nearest run)."""
        near = self._between(t0 - PAD_S, t1 + PAD_S)
        if not near:
            i = min(bisect.bisect_left(self.starts, t0), len(self.starts) - 1)
            near = range(i, i + 1)
        return statistics.median(self.ends[i] - self.starts[i] for i in near)

    def seconds(self, t0: float, t1: float, scaled: bool = True) -> float:
        """Program time in [t0, t1], in reference seconds unless not `scaled`."""
        own = t1 - t0 - self.busy(t0, t1)
        return own * REFERENCE_KERNEL_S / self.kernel_s(t0, t1) if scaled else own
