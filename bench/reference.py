"""A fixed reference computation that measures the machine's speed.

The machine the benchmark runs on is shared, and its speed changes by tens of
percent from second to second as other work comes and goes. The benchmark
times `reference_work` right next to each timed request and reports each
latency as if the machine had run `reference_work` in `REFERENCE_S`:
latency * REFERENCE_S / reference time. The program under test never runs
here, so a change to it moves the reference only through the state it
leaves behind in the machine, which `time_reference` keeps small.
"""

from time import perf_counter

import numpy as np

# Median time of one `time_reference()` right after a request, on the machine
# the baselines were measured on, at its usual speed (see README, "Machine noise").
REFERENCE_S = 200e-6

# Set-up time is normalized the same way, by the time a fresh interpreter
# takes to import numpy, timed in a fresh interpreter right after each import
# of qsd. Loading numpy is most of what importing qsd does, so it slows down
# with the machine as that does; an in-process computation did not (README,
# "Machine noise"). REFERENCE_IMPORT_S is its usual time on the baseline
# machine.
REFERENCE_IMPORT = "numpy"
REFERENCE_IMPORT_S = 0.17

_MATRIX = np.arange(9.0).reshape(3, 3) + 1.0
_POINTS = np.random.default_rng(0).normal(size=(64, 3))
_EVICT = np.ones(4 * 2**20 // 8)  # 4 MiB, read before each timed reference


def reference_work() -> float:
    """Small numpy calls in a Python loop, like the solver's own work."""
    total = 0.0
    for i in range(6):
        total += float(np.linalg.eigvalsh(_MATRIX @ _MATRIX.T + i)[0])
        dist = np.linalg.norm(_POINTS - _POINTS[i], axis=1)
        total += float(dist.max()) + float(np.dot(dist, dist))
    return total


def time_reference() -> float:
    """Seconds for one `reference_work`, started from a fixed cache state.

    Reading `_EVICT` first pushes out of the caches whatever the request
    before left there, so the time measures the machine rather than the
    request's footprint, and still includes refilling the caches, which
    slows down with the machine as the request does.
    """
    _EVICT.sum()
    start = perf_counter()
    reference_work()
    return perf_counter() - start
