"""A fixed reference computation that tracks the machine's current speed.

On a shared VM the CPU runs up to twice as slow for minutes at a time, so
raw wall times of one workload spread by up to 50% between runs. The
benchmark times this kernel next to every scene and scales each scene's
wall time to the kernel's nominal duration, which cancels those phases.
The kernel mixes interpreted loops with small and large numpy calls, as
the program does, and never calls the program, so a change to linefields
cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.05  # kernel time in a fast phase of a 2-core VM


def kernel_seconds() -> float:
    start = time.perf_counter()
    data = list(range(4096))
    acc = 0.0
    for _ in range(40):
        for i in data:
            acc += (i * 7 % 13) * 0.5
    a = np.arange(9.0)
    for _ in range(8000):
        a = np.sqrt(a * a + 1.0) - 0.5
    b = np.linspace(0.0, 1.0, 1 << 17)
    for _ in range(50):
        b = np.sqrt(b * b + 1e-3)
    if not (acc > 0.0 and np.isfinite(a).all() and np.isfinite(b).all()):
        raise RuntimeError("reference kernel produced a bad value")
    return time.perf_counter() - start


class Speedometer:
    """Scales wall times by the kernel time measured around each interval."""

    def __init__(self, kernel=kernel_seconds):
        self.kernel = kernel
        self.last = kernel()
        self.samples = [self.last]

    def scale(self, wall_s: float) -> float:
        """Nominal-speed seconds for an interval that just ended."""
        before, self.last = self.last, self.kernel()
        self.samples.append(self.last)
        return wall_s * NOMINAL_S / (0.5 * (before + self.last))
