"""Times the iterations of a loop without patching the function that runs it.

An interval timer interrupts the calling thread every INTERVAL_S seconds; the
signal handler reads the loop function's frame and records, per value of the
loop variable, when that value was first seen and when the frame first stood
on a marked line (the checkpoint save) in that iteration.  Reading a frame's
locals does not change what the program runs, and the handler runs on the
same thread, so there is no lock hand-off; it costs a few microseconds per
sample.  The observer must be used from the main thread.
"""

from __future__ import annotations

import dis
import signal
import time
from dataclasses import dataclass
from types import CodeType

INTERVAL_S = 0.0005


@dataclass(frozen=True)
class Iteration:
    value: object
    start: float
    end: float  # first sample on a marked line, else the next iteration's start


def lines_calling(code: CodeType, name: str) -> frozenset[int]:
    """Source lines of `code` that load the global `name` (the call sites)."""
    return frozenset(
        ins.positions.lineno for ins in dis.get_instructions(code)
        if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME") and ins.argval == name
    )


class LoopObserver:
    """Context manager: observe `var` in the frame running `code` on this thread."""

    def __init__(self, code: CodeType, var: str, mark_lines=frozenset()):
        self.code = code
        self.var = var
        self.mark_lines = frozenset(mark_lines)
        self.samples: list[tuple[float, object, bool]] = []
        self.finished = 0.0
        self._frame = None
        self._last = (object(), None)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._frame is None:
            while frame is not None and frame.f_code is not self.code:
                frame = frame.f_back
            if frame is None:
                return
            self._frame = frame
        value = self._frame.f_locals.get(self.var)
        marked = self._frame.f_lineno in self.mark_lines
        if (value, marked) != self._last:
            self.samples.append((time.perf_counter(), value, marked))
            self._last = (value, marked)

    def __enter__(self) -> "LoopObserver":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self.finished = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._frame = None

    def iterations(self) -> list[Iteration]:
        """Each observed loop value with its start and its mark-or-next-start."""
        starts: dict[object, float] = {}
        marks: dict[object, float] = {}
        order = []
        for t, value, marked in self.samples:
            if value is None:
                continue
            if value not in starts:
                starts[value] = t
                order.append(value)
            if marked and value not in marks:
                marks[value] = t
        out = []
        for i, value in enumerate(order):
            nxt = starts[order[i + 1]] if i + 1 < len(order) else self.finished
            out.append(Iteration(value, starts[value], marks.get(value, nxt)))
        return out
