"""Host speed probe: end-to-end times at a reference host speed.

On a small shared host the CPU speed one process sees swings by tens of
percent over seconds to minutes, because other tenants load the same cores.
Measured on the 2-vCPU host this benchmark was written on: consecutive
25-second runs of one workload took 6.4 s to 11.3 s for the same job.  No
run length the time budget allows averages that out.

So every run also times a fixed kernel (pure-Python set and dict work plus
small numpy array operations, the mix zfnets runs) before and after every
item and set-up child.  A sample's host factor is the kernel time divided
by REFERENCE_S; each item or set-up time is divided by the mean factor of
the two samples around it.  The
end-to-end times are therefore seconds as they would read on a host that
runs the kernel in REFERENCE_S.  The raw times are printed next to them.
The kernel is benchmark code, so a change to zfnets cannot move it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median time on the development host when it was quiet.
REFERENCE_S = 0.010


def _kernel() -> int:
    seen: set[int] = set()
    last: dict[int, int] = {}
    for i in range(65000):
        seen.add(i * 7 % 1009)
        last[i % 503] = i
    a = np.ones((40, 40))
    for _ in range(500):
        a = a * 0.5 + 0.5
    return len(seen) + len(last) + int(a[0, 0])


class HostProbe:
    """Kernel timings collected over one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns this sample's host factor (1.0 = reference speed)."""
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1] / REFERENCE_S

    def factor(self) -> float:
        """Median host factor over the run."""
        return statistics.median(self.samples) / REFERENCE_S
