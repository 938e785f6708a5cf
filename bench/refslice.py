"""The reference slice: a fixed unit of work that every job is timed against.

A slice runs ``SUB_LOOPS`` copies of one sub-loop made of the three kinds
of work pexpand's jobs do: pure-Python float arithmetic (Horner
evaluation), small numpy calls (``asarray`` plus ``polyval``), and small
short-lived objects (tuples, frozen dataclass instances, dicts, a sort).
Against alternatives made of one kind only, this mix gave the steadiest
costs (see README.md).  It imports nothing from pexpand, so a change to the
program cannot change the unit.

The slice guard: the process's CPU time over a slice must not exceed the
slice's wall time.  A slice runs on one thread, so CPU time above wall time
means some other thread (left over from a job) was running during it.  On
one thread the two clocks mostly disagree by under 25 us, but in 70
benchmark runs on the 2 vCPU VM of README.md the worst slice of a run
showed 0.2-2.0 % of excess.  The guard allows ``GUARD_SLACK`` of the
slice, 2.5 times that share; a leftover thread doing real work adds a
large part of the slice.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

SUB_LOOPS = 5
GUARD_SLACK = 0.05
NOMINAL_S = 0.004   # a slice's duration on the 2 vCPU VM of README.md
_COEFFS = (0.61803398875, 1.61803398875, -0.375, 0.125, -0.0625)
_REV = tuple(reversed(_COEFFS))

_last: list[float] = []


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    side: str


def _horner(n: int) -> float:
    x, acc = 0.3, 0.0
    for _ in range(n):
        y = 0.0
        for c in _REV:
            y = y * x + c
        x = 0.5 * (x + (abs(y) % 1.0))
        acc += y
    return acc


def _numpy(n: int) -> float:
    x, acc = 0.3, 0.0
    for _ in range(n):
        y = float(P.polyval(x, np.asarray(_COEFFS)))
        x = 0.5 * (x + (abs(y) % 1.0))
        acc += y
    return acc


def _objects(n: int) -> float:
    acc, pts = 0.0, []
    for i in range(n):
        t = tuple(float(c) * (i % 7) for c in _COEFFS)
        p = _Point(t[0], t[1], "L" if i % 2 else "R")
        pts.append(p)
        d = {"x": p.x, "y": p.y}
        acc += d["x"] - d["y"] + len(p.side)
    pts.sort(key=lambda p: p.x)
    return acc + len(pts)


def _sub_loop() -> float:
    return _horner(170) + _numpy(45) + _objects(230)


def run_slice() -> tuple[float, float]:
    """One slice: (duration in s, process CPU time minus wall time in s)."""
    c0 = time.process_time()
    w0 = time.perf_counter()
    for _ in range(SUB_LOOPS):
        _sub_loop()
    w1 = time.perf_counter()
    c1 = time.process_time()
    _last.append(w1 - w0)
    return w1 - w0, (c1 - c0) - (w1 - w0)


def last_median_ms() -> float:
    """Median slice duration so far, in ms (reported, not a metric)."""
    return 1e3 * statistics.median(_last) if _last else 0.0
