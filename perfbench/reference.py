"""A fixed reference task that measures how fast the host runs at the moment.

The benchmark's host is shared.  For minutes at a time the same code runs up
to twice as slow, and the process is charged the time as CPU time, so timing
the program alone cannot tell a slow phase from slower code.  ``run.py`` times
this task in a fresh process after every chain and scales the run's times by
``NOMINAL_S`` over the run's median reference time, so a phase that slows both
cancels out.

The task does the kinds of work the pipeline does, on a working set larger
than a core's L2 cache: parsing CSV text into per-row lists, scalar float math
in Python loops, sorting, formatting floats, and numpy reductions.  It never
imports ``direns``, so no change to the program can change its time.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

ROWS, COLS = 8000, 10
# Timed tasks per reference process, after one untimed warm-up task.
REPEATS = 2
# About the task's time on the host the benchmark was built on (Intel Xeon,
# 2 vCPU, Python 3.11, numpy 2.4).  It only sets the scale, so that a scaled
# time reads as seconds on that host.
NOMINAL_S = 0.15


def _inputs() -> tuple[str, list[int]]:
    rng = random.Random(20240601)
    lines = [",".join(f"{math.exp(rng.uniform(-6.0, 2.5)):.17g}" for _ in range(COLS))
             for _ in range(ROWS)]
    order = list(range(ROWS))
    rng.shuffle(order)
    return "\n".join(lines), order


def _series(x: float) -> float:
    shift = 0.0
    while x < 6.0:
        shift -= 1.0 / x
        x += 1.0
    inv = 1.0 / (x * x)
    return shift + math.log(x) - 0.5 / x - inv * (1.0 / 12 - inv * (1.0 / 120 - inv / 252))


def _task(text: str, order: list[int]) -> int:
    rows = [[float(cell) for cell in line.split(",")] for line in text.splitlines()]
    scored = []
    for i in order:
        row = rows[i]
        total = sum(row)
        scored.append((_series(total) - sum(_series(v) for v in row[:3]), max(row) / total, i))
    scored.sort()
    values = np.array(rows)
    probs = values / values.sum(axis=1, keepdims=True)
    out = "\n".join(f"{a:.17g},{b:.17g},{i}" for a, b, i in scored)
    return len(out) + int(np.log(probs).sum())


def reference_times() -> list[float]:
    """Wall times of ``REPEATS`` reference tasks, after one untimed warm-up task."""
    text, order = _inputs()
    _task(text, order)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _task(text, order)
        times.append(time.perf_counter() - start)
    return times
