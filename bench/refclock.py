"""Timings at reference speed.

The shared machines the benchmark runs on drift in speed by tens of percent,
sometimes twofold, over seconds to minutes.  A fixed reference kernel that
does not touch the program is timed after every set-up and every round of a
run.  A piece of work is reported in seconds at reference speed: its
measured time times NOMINAL_S over the median kernel time of the samples
taken within WINDOW_S of it.  That cancels most of the drift between runs
while still moving one to one with the program's own speed.
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

# The kernel's time on the machine the benchmark was built on (2-CPU Intel
# Xeon VM) in its fast state.  Scaled timings are seconds at that speed.
NOMINAL_S = 0.12
# Samples this close to a piece of work count towards its scale: wide enough
# to take a few samples around short rounds, narrow enough to follow drift.
WINDOW_S = 3.0


def reference_seconds() -> float:
    """Time of a fixed kernel shaped like the program's CPU-bound work.

    Small-array numpy calls in a Python loop (the per-customer step) and
    float formatting through ``csv`` (trace output), about two to one.  Both
    stay in cache: large-array passes were left out because their speed
    follows memory contention and page promotion, which the program mostly
    does not feel.
    """
    x = np.linspace(0.0, 40.0, 24)
    w = np.linspace(10.0, 100.0, 24)
    writer = csv.writer(io.StringIO())
    acc = 0.0
    start = time.perf_counter()
    for _ in range(9000):
        a = np.asarray(x, dtype=float)
        g = np.where(a < w, w - a, 0.0)
        acc += float(np.maximum(a + 0.1 * (g - 25.0), 0.0).sum())
    for i in range(4500):
        writer.writerow([i, i % 24, i % 7] + [repr(float(v)) for v in x[:7]])
    elapsed = time.perf_counter() - start
    if not acc > 0.0:
        raise RuntimeError("reference kernel produced no result")
    return elapsed


class Clock:
    """Reference-kernel samples over a run, and the scale factors they give.

    ``memory_share`` is the share of the workload's time spent in
    memory-bound work.  That share is left as measured: no steady
    memory-speed reference was found on the machines this runs on (a
    large-array kernel's time follows the allocator's and the page
    tables' state more than the machine's speed), and scaling memory-bound
    time by the CPU kernel over-corrects it.
    """

    def __init__(self, memory_share: float = 0.0):
        self.memory_share = memory_share
        reference_seconds()  # warm-up, not a sample
        self.samples: list[tuple[float, float]] = []
        self.tick()

    def tick(self) -> None:
        """Time the kernel once; the sample is stamped with its end time."""
        duration = reference_seconds()
        self.samples.append((time.perf_counter(), duration))

    @property
    def durations(self) -> list[float]:
        return [d for _, d in self.samples]

    def last_factor(self) -> float:
        """CPU multiplier to reference speed from the latest sample alone.

        For a short piece of work timed right before a tick, such as one
        set-up: the machine's speed can switch within a second, faster than
        a WINDOW_S median follows.
        """
        return NOMINAL_S / self.samples[-1][1]

    def factor(self, start: float, end: float) -> float:
        """Multiplier to reference speed for work done from ``start`` to ``end``.

        Uses the samples stamped within WINDOW_S of the work; the sample
        taken right after it always qualifies, since it follows directly.
        """
        near = [d for t, d in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S] or self.durations
        cpu = NOMINAL_S / statistics.median(near)
        return (1.0 - self.memory_share) * cpu + self.memory_share
