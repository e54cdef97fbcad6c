"""Machine-speed calibration interleaved with the measured work.

On a shared machine the speed a process gets drifts by tens of per
cent over seconds, and a whole run can land in a slow stretch; pure
Python loops move with it.  Every workload therefore times a fixed
Python kernel (dict, tuple, string and sort work, the operations the
engine's hashing and search spend their time in), untimed, between its
timed blocks, and reports CPU-bound time *at the reference speed*:

    reported = measured × REFERENCE_S / kernel time measured next to it

``REFERENCE_S`` is a fixed constant, so reported figures compare
across runs and commits.  The run record also prints the raw
(unscaled) figures and the speed factor of every run.
"""

import os
import time

__all__ = ["REFERENCE_S", "speed_factor"]

#: The reference kernel time (seconds).
REFERENCE_S = 0.0020
#: Kernel runs per CPU in one sample; the sample takes their median.
REPEATS = 7


def _kernel():
    table = {}
    for i in range(1500):
        key = (i % 97, "k%d" % (i % 13))
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items(), key=lambda kv: (kv[1] % 11, kv[0]))
    return len(ordered)


def speed_factor():
    """Time the kernel now on every CPU this process may use (the
    calling thread moves from one to the next and back); returns the
    scale factor for work done next to it: ``REFERENCE_S`` over the
    mean of the per-CPU median kernel times."""
    allowed = os.sched_getaffinity(0)
    medians = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                _kernel()
                times.append(time.perf_counter() - start)
            times.sort()
            medians.append(times[len(times) // 2])
    finally:
        os.sched_setaffinity(0, allowed)
    return REFERENCE_S * len(medians) / sum(medians)

