"""Host-speed index: a fixed calibration kernel timed next to every op.

The benchmark was defined on a 2-vCPU virtual machine whose CPU speed swings
by up to about 1.5x within seconds and drifts over minutes, with no steal
time to show for it: wall and CPU time of an op move together. Wall times
taken at different moments are then not comparable. The kernel below uses no
mecp code and does a fixed mix of the work mecp's trials do (small dense
solves, sorts and quantiles of a few thousand floats, and a Python loop over
small objects and a dict), so its time tracks the host's speed but not the
program's. The kernel is timed just before the first op and just after every
op, and each op's wall time is rescaled to the reference speed at which the
kernel takes ``KERNEL_REF_MS``:

    rescaled = wall * KERNEL_REF_MS / (mean of the kernel times around the op)

The speed moves within a second, so only the two samples next to an op are
used: medians over windows of 3 to 11 ops left up to twice the run-to-run
spread.

A change to mecp moves the rescaled times exactly as it moves wall times on
a steady host; a change in the host's speed moves the kernel too and cancels.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# kernel time at the reference host speed; on the 2-vCPU virtual machine the
# benchmark was defined on it took about 1.3 ms in the host's fast mode and
# 2 ms or more in its slow one
KERNEL_REF_MS = 1.5
WARM_UP = 3


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def contains(self, x):
        return self.lo <= x <= self.hi


class Kernel:
    """The calibration kernel with its fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((30, 6, 6)) + 6.0 * np.eye(6)
        self.b = rng.standard_normal((30, 6))
        self.v = rng.standard_normal(2000)
        for _ in range(WARM_UP):
            self.run()

    def run(self) -> float:
        acc = 0.0
        for a, b in zip(self.a, self.b):
            x = np.linalg.solve(a, b)
            acc += float(x @ x)
        for i in range(6):
            acc += float(np.sort(self.v * (i + 1))[100]) + float(np.quantile(self.v, 0.9))
        boxes = [_Box(v - 1.0, v + 1.0) for v in self.v.tolist()]
        acc += sum(box.contains(0.5) for box in boxes)
        counts = {}
        for i in range(2000):
            counts[i % 97] = counts.get(i % 97, 0) + i * 0.5
        return acc + sum(counts.values())

    def time(self) -> float:
        """Seconds one run of the kernel takes now.

        An untimed run first brings the kernel's code and data back into the
        caches, and the garbage collector is off, so that what the program
        did just before and how many objects it keeps alive do not change
        the kernel's time.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.run()
            begin = time.perf_counter()
            self.run()
            return time.perf_counter() - begin
        finally:
            if was_enabled:
                gc.enable()

    def median_time(self, runs: int) -> float:
        return statistics.median(self.time() for _ in range(runs))


def rescale(durations, kernel_s) -> list[float]:
    """Rescale each duration to the reference host speed.

    ``kernel_s[i]`` and ``kernel_s[i + 1]`` are the kernel times measured
    just before and just after op ``i``.
    """
    if len(kernel_s) != len(durations) + 1:
        raise ValueError("a kernel time before every op and after the last is needed")
    ref_s = KERNEL_REF_MS / 1e3
    return [
        duration * ref_s / ((kernel_s[i] + kernel_s[i + 1]) / 2)
        for i, duration in enumerate(durations)
    ]


def speed(kernel_s) -> float:
    """Host speed relative to the reference: above 1 is faster."""
    return KERNEL_REF_MS / 1e3 / statistics.median(kernel_s)
