"""CPU-speed sampling, to take machine drift out of the timings.

On a shared machine the same pass runs up to 1.6x slower from one second
to the next (another tenant on the same core, clock changes).  Timing a
calibration loop once, before or after a case, does not follow that
drift.  So the sampler times a fixed integer loop every 10 ms of process
CPU time, from a SIGPROF handler, interleaved with the work itself.  Each
stretch of work between two samples is then scaled to the reference
speed by the median loop time of the samples around it, and the time the
samples took is left out:

    seconds at reference speed = sum over stretches of length * REFERENCE_S / local loop time

On 2 cores with Python 3.11.7 this cut the pass-to-pass coefficient of
variation of `verify heisenberg` from 0.10 to 0.03.  The loop allocates
nothing the garbage collector tracks, so the program's heap cannot change
its speed.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter
from typing import List, Tuple

PERIOD_S = 0.01
REFERENCE_S = 75e-6  # loop time at the reference speed, near this machine's usual one
WINDOW = 10  # samples on each side whose median gives the local loop time


def _loop() -> int:
    x = 1
    for _ in range(400):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


class SpeedSampler:
    """Samples the loop time every ``PERIOD_S`` of CPU time while started."""

    def __init__(self):
        self.ticks: List[Tuple[float, float, float]] = []  # (start, loop seconds, end)

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        _loop()
        t1 = perf_counter()
        self.ticks.append((t0, t1 - t0, perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def reset(self) -> None:
        self.ticks = []

    @property
    def handler_s(self) -> float:
        """Time spent sampling, included in any raw timing that spans it."""
        return sum(end - start for start, _, end in self.ticks)

    def loop_s(self) -> float:
        """Median loop time so far; takes one sample if there is none."""
        if not self.ticks:
            self.sample()
        return statistics.median(loop for _, loop, _ in self.ticks)

    def at_reference_speed(self, start: float, end: float) -> float:
        """Seconds of work in ``[start, end]`` (perf_counter times) at the
        reference speed, with the sampling time left out."""
        if not self.ticks:
            self.sample()
        loops = [loop for _, loop, _ in self.ticks]
        factors = [REFERENCE_S / statistics.median(loops[max(0, i - WINDOW):i + WINDOW + 1])
                   for i in range(len(loops))]
        total, prev = 0.0, start
        i = bisect_left(self.ticks, (start,))
        while i < len(self.ticks) and self.ticks[i][0] < end:
            t0, _, t1 = self.ticks[i]
            total += (t0 - prev) * factors[i]
            prev = t1
            i += 1
        # the stretch after the last sample inside takes the next sample's speed
        return total + max(end - prev, 0.0) * factors[min(i, len(factors) - 1)]
