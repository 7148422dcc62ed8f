"""Host-speed yardstick: what the timed metrics are read against.

The benchmark's host is shared, and each vCPU switches between a fast and
a slow speed about 1.7x apart, in spells of a few seconds whose share
drifts over minutes. Raw wall times follow that share more than they
follow the program. So the benchmark times a fixed loop right before and
right after every timed piece of work, on the same pinned CPU, and scales
the piece's wall time by ``NOMINAL_S`` over the loop's time. A scaled
time reads as the wall time on a host where the loop takes ``NOMINAL_S``;
the raw wall times stay in the record.

The loop uses numpy on small arrays and plain Python objects, the mix of
the program, and nothing from freetop, so a change to the program cannot
change the yardstick.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# The loop's time on the host the benchmark was defined on, in a slow
# spell (the more common one); see README.md.
NOMINAL_S = 0.00175

_START = np.random.default_rng(7).standard_normal((6, 6))
_LOOPS = 160
_REPS = 3


def _loop() -> float:
    a = _START.copy()
    acc = 0.0
    names = {}
    t0 = time.perf_counter()
    for i in range(_LOOPS):
        b = a @ a
        c = (b - b.T) * 1e-3
        a = a + c / (1.0 + np.abs(a))
        acc += float(c[0, 1])
        names[i % 17] = f"{acc:.6e}"
    return time.perf_counter() - t0


def reference_s() -> float:
    """Median wall time of three runs of the loop."""
    return statistics.median(_loop() for _ in range(_REPS))


def scale(before: float, after: float) -> float:
    """Factor from wall time to time at the nominal host speed, for work
    done between two measurements of the loop."""
    return NOMINAL_S / (0.5 * (before + after))


def pin_one_cpu() -> None:
    """Pin this process, and so every process it starts, to one CPU, so
    the loop and the work it scales run on the same vCPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
