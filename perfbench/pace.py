"""The host's pace, read from a fixed reference kernel.

On a shared host the speed of one core drifts with its neighbours' load:
the same operations ran up to 1.8 times slower for minutes at a time,
far more than the bounds in BENCHMARK.json allow between two sets of runs.
The timing loop therefore also times ``reference()``, work that calls no
program code, every ``EVERY_S`` seconds of operation time and outside the
operations' time.  End-to-end timings are reported at the nominal pace of
``NOMINAL_S`` per reference: each operation's time is scaled by the
reference samples taken around it (``paced``), since the host can change
pace within a run.  A change in the program moves the figures one for one;
a drift of the host slows the reference as well and largely cancels.

The kernel mixes the kinds of work the workloads do: numpy passes over
preallocated 2.4 MB arrays and an interpreted loop (a quarter of its time
each), and many numpy calls on 3-vectors and 3x3 matrices (half).  Its
large arrays are made once, so the program's heap cannot change the cost
of its memory passes.  perfbench/README.md gives the spreads measured
with and without the scale.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.010  # near the reference's median time on the machine the bounds were set on
EVERY_S = 0.25
NEIGHBOURS = 2  # samples on each side whose median sets an operation's local pace

_SRC = np.arange(300_000, dtype=float)
_DST = np.empty_like(_SRC)
_M = np.array([[2.0, 0.1, 0.3], [0.0, 1.5, 0.2], [0.1, 0.0, 1.0]])
_V = np.array([1.0, 2.0, 3.0])


def reference() -> float:
    """Seconds taken by one pass of the fixed reference work."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.multiply(_SRC, 1.5, out=_DST)
        np.add(_DST, 2.0, out=_DST)
        np.floor(_DST, out=_DST)
        np.subtract(_SRC, _DST, out=_DST)
    s = 0
    for i in range(30_000):
        s += i * i
    for _ in range(100):
        x = np.linalg.solve(_M, _V)
        float(np.linalg.norm(_M @ x + np.cross(x, _V)))
    return time.perf_counter() - t0


def paced(times: list, marks: list, samples: list) -> list:
    """Operation times at the nominal pace.

    ``marks[i]`` is the index of the first reference sample taken after
    operation i; its local pace is the median of the samples within
    ``NEIGHBOURS`` of that one.
    """
    n = len(samples)
    local = [NOMINAL_S / statistics.median(samples[max(0, j - NEIGHBOURS):j + NEIGHBOURS + 1])
             for j in range(n)]
    return [t * local[min(m, n - 1)] for t, m in zip(times, marks)]
