"""Host speed reference for the end-to-end timings.

On a small shared host, neighbouring tenants slow every process by 20-40%,
switching within a second and drifting over tens of seconds, so that
the same run repeated a minute later reads 20-40% apart and no statistic
taken within one run removes that. So each timed sample is bracketed by a short fixed kernel with the same
instruction mix as imondrian (interpreter loop around small numpy calls),
and the end-to-end timings are scaled to the kernel's nominal duration:

    adjusted = measured * NOMINAL_S / (mean kernel time around the sample)

The kernel time is the median of a few repetitions, so that it follows the
host's sustained speed rather than a momentary stall.

The kernel does not touch imondrian, so a change to the package moves the
adjusted figures exactly as it moves the raw ones; only the host's speed at
the moment cancels out. The raw figures are reported beside them.
"""

from __future__ import annotations

import time

import numpy as np

# one repetition's duration on a quiet host: 2-core x86-64 VM, Python 3.11, numpy 2.4
NOMINAL_S = 0.005
REPETITIONS = 5


def kernel_seconds() -> float:
    """Median wall time of one repetition of the reference kernel."""
    lanes = np.arange(8.0)
    times = []
    for _ in range(REPETITIONS):
        total = 0.0
        start = time.perf_counter()
        for i in range(2000):
            total += float(np.maximum(lanes - i, 0.0).sum()) + i * 0.5
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def adjusted(seconds: float, kernel_s: float) -> float:
    """A measured duration scaled to the host's nominal speed."""
    return seconds * NOMINAL_S / kernel_s
