"""Machine-speed calibration.

The benchmark was defined on a 2-vCPU virtual machine whose effective
CPU speed drifts by a quarter or more over tens of seconds, because
other tenants share the host.  Process time does not show it: the
process keeps its CPU and simply runs slower.  Left alone, that drift
is wider than any bound the benchmark could set.

A fixed pure-Python kernel, which uses no part of the program under
test, slows down with the host in step with the stages: timed around
the same work, it took the run-to-run spread of fixed-input Figure-3
cells from about 0.2 to about 0.05.  Every timed piece of work is
therefore bracketed by calibrations, and sampled by more of them in
its course where it can be interrupted, and its time is scaled to the
kernel's reference speed: ``reference time = measured time ×
speed``, with ``speed = REFERENCE_SECONDS / kernel time``.  Each run
records the speed factors, so the raw figures can be recovered.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: Median kernel time on the 2-vCPU machine the benchmark was defined on.
REFERENCE_SECONDS = 0.0015


def _kernel() -> int:
    table = {}
    total = 0
    for i in range(5000):
        key = (i, i + 1)
        table[key] = i
        total += table[key] % 7
    return total


def speed(reps: int = 5) -> float:
    """The machine's speed now, relative to the reference (1.0 is the
    reference speed; below 1 the machine is slower)."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = perf_counter()
            _kernel()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return REFERENCE_SECONDS / statistics.median(times)


class SpeedTrack:
    """Calibrations taken between and during consecutive pieces of
    work.  A piece's speed factor is the mean of the calibrations from
    the one just before it to the one just after it, so a piece that
    samples itself often gets the average speed over its own time."""

    def __init__(self) -> None:
        self.speeds = [speed()]
        self._first = 0
        #: seconds spent calibrating in the middle of pieces of work
        self.spent = 0.0

    def sample(self, reps: int = 5) -> None:
        """Calibrate in the middle of a piece of work."""
        t0 = perf_counter()
        self.speeds.append(speed(reps))
        self.spent += perf_counter() - t0

    def mark(self) -> float:
        """Calibrate at the end of a piece of work; returns its speed
        factor."""
        self.speeds.append(speed())
        window = self.speeds[self._first:]
        self._first = len(self.speeds) - 1
        return statistics.fmean(window)

    @property
    def factor(self) -> float:
        """Mean speed over every calibration so far."""
        return statistics.fmean(self.speeds)
