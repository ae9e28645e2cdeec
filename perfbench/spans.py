"""In-memory spans around calls into the program, written out at the end."""
from __future__ import annotations

import statistics
from time import perf_counter


class Tracer:
    """Records one span per call: (id, parent id, name, start, end).

    Spans nest through ``call``; the parent of a top-level span is 0.  All
    spans stay in memory until ``write`` so that tracing does no I/O while
    the workload runs.
    """

    def __init__(self, phase: str):
        self.phase = phase
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next = 1
        self.last: dict[str, float] = {}  # name -> duration of its latest span, in seconds

    def call(self, name: str, fn, *args):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))
            self.last[name] = t1 - t0

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def write(self, fh) -> None:
        for sid, parent, name, t0, t1 in self.spans:
            fh.write(f"{self.phase}\t{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")


def direct(name: str, fn, *args):
    """``Tracer.call`` without the span: what operations call when tracing is off."""
    return fn(*args)


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]
