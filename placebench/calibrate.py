"""Machine-speed calibration, timed in each sample around the place run.

The host this benchmark was built on is shared: a CPU's speed drops by up
to half for seconds or minutes at a time, whatever the program does.  A
fixed pure-Python kernel, timed in the sample's own process just before
the place run, slows down with it.  The runner scales each sample's
times by ``REFERENCE_S`` over that kernel time, so a sample taken while
the machine is slow reads about the same as one taken while it is quiet.
The kernel is timed again after the sample's checks; that second time
is never used for scaling, only to flag a sample in which it is much
slower than the first.  README.md ("Steadiness") gives the measurements
behind this.
"""

from __future__ import annotations

import gc
import random
import resource
import time

#: about the kernel's time on a quiet machine (its fast samples on the
#: 2-CPU Xeon container the benchmark was built on took 7.2 to 7.5 ms); it
#: only sets the scale, so it must never change once metrics are recorded
REFERENCE_S = 0.0075
#: kernel repetitions; the fastest is the sample's kernel time
REPS = 5


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _kernel(items: list[tuple]) -> float:
    # dict stores, tuple building, a keyed sort and float arithmetic: the
    # same interpreter work the placers' hot loops do
    table = {}
    for name, x, y, w in items:
        table[name] = (x + w, y * 0.5)
    total = 0.0
    for _, (a, b) in sorted(table.items(), key=lambda item: item[1][0]):
        total += max(a, b) - min(a, b)
    return total


def calibrate() -> dict[str, float]:
    """Time the kernel; returns its fastest repetition (``kernel_s``) and
    the wall and CPU seconds the calibration took, which the runner
    subtracts from the sample's own times when it runs before them."""
    start, start_cpu = time.perf_counter(), _cpu()
    rng = random.Random(1)
    items = [(f"m{i}", rng.random(), rng.random(), rng.random()) for i in range(10000)]
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPS):
            t0 = time.perf_counter()
            _kernel(items)
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    del items
    return {
        "kernel_s": best,
        "wall_s": time.perf_counter() - start,
        "cpu_s": _cpu() - start_cpu,
    }
