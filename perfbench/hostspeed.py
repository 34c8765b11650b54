"""Host speed: a fixed reference kernel, timed next to every timed unit.

The shared host this benchmark runs on changes speed by a factor of up to
1.8 over seconds to minutes, for all code alike: CPU time moves with wall
time, and no time is stolen. Pinning to one CPU does not help. A raw time
therefore says as much about the neighbours as about the program.

So every timed unit (one CLI invocation, one fresh interpreter) is
bracketed by runs of `kernel`, which mixes the kinds of work the program
does: a Python loop that builds small dicts, lists and floats, and small
numpy array operations. It keeps no data and loads no library the program
does not load itself, so it adds little to the worker's peak memory. Of
the kernels tried, Python object churn tracked the program's speed best; a
plain integer loop or a sweep over large arrays tracked it worse. A run's mean pass time (or
median set-up time) is scaled by REFERENCE_S over the mean of all kernel
times of the run, which gives it at the reference speed. Scaling each unit
by the two kernel times next to it was less steady: a kernel run is a
snapshot of a few milliseconds, and a long unit (an 8 s eigensolve) sees
many speed changes between its two. The kernel is the benchmark's own code
and its inputs are fixed, so a change to the program does not move it.
"""

from __future__ import annotations

import time

import numpy as np

# About the median kernel time on a 2-core virtual machine (Python 3.11.7,
# numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread). It only fixes the scale of
# the scaled times; comparing two commits does not depend on it.
REFERENCE_S = 0.016


def _work() -> float:
    total = 0.0
    for i in range(30_000):
        row = {"x": float(i), "pair": [i, i + 1]}
        total += row["x"] * 2.0 + len(row["pair"])
    a = np.arange(256.0)
    for _ in range(800):
        a = np.sin(a) + 1.0
    return total + float(a[0])


def kernel() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def warm_up(runs: int = 3) -> None:
    """Run the kernel untimed, so that lazy loading is not in a measurement."""
    for _ in range(runs):
        _work()


def scaled(elapsed: float, kernel_times) -> float:
    """`elapsed` at the reference speed, given the kernel times measured
    before, between and after the units it stands for."""
    kernel_times = list(kernel_times)
    return elapsed * REFERENCE_S * len(kernel_times) / sum(kernel_times)
