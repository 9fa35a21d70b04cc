"""Host-speed calibration for the benchmark's timings.

On a virtual machine whose CPUs are shared with other tenants, the speed
left to one process swings by up to 60% over tens of seconds, far more than
the regressions the benchmark must catch.  So a fixed pure-Python loop that
never touches ccgamr is timed between operations, at least every
``INTERVAL_S``; each operation's wall time is multiplied by
``REFERENCE_S / (mean of the two loop times around it)``.  A scaled time
reads as the wall time on a host where the loop takes ``REFERENCE_S``, about
its time in the quieter periods of the 2-CPU x86_64 virtual machine
(Python 3.11.7) where the benchmark was defined.  Raw wall times are kept alongside.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.002
INTERVAL_S = 0.1
REPEATS = 3


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight

    def rank(self):
        return (self.weight, self.key)


def kernel() -> int:
    """Fixed interpreter work: calls, attributes, tuples, dicts, sorting.

    Keys are ints and tuples of ints, whose hashes do not change between
    processes, so the loop costs the same in every run.
    """
    table = {}
    kept = []
    for i in range(2000):
        key = (i % 97, i // 97)
        cell = _Cell(key, i * 7 % 13)
        table[key] = cell
        if cell.weight in (1, 3, 5):
            kept.append(cell)
    ordered = sorted(table.values(), key=_Cell.rank)
    return len(ordered) + len(kept)


def measure() -> float:
    """Seconds the kernel takes now: the mean of ``REPEATS`` back-to-back
    runs, with the cyclic collector off so that garbage left by ccgamr is not
    charged to it.  The mean, not the best, follows contention that comes
    and goes within a few milliseconds the way a long operation feels it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(REPEATS):
            kernel()
        return (perf_counter() - t0) / REPEATS
    finally:
        if enabled:
            gc.enable()


class Scaler:
    """Collects raw wall times and scales them by the host speed around them."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.loop_times: list[float] = [measure()]
        self._pending: list[float] = []
        self._since = perf_counter()

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)
        if perf_counter() - self._since >= INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        """Calibrate now and scale every time added since the last calibration."""
        if not self._pending:
            return
        now = measure()
        factor = REFERENCE_S / ((self.loop_times[-1] + now) / 2)
        self.loop_times.append(now)
        self.raw.extend(self._pending)
        self.scaled.extend(x * factor for x in self._pending)
        self._pending.clear()
        self._since = perf_counter()
