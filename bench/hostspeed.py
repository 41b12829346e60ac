"""Host-speed calibration.

The benchmark runs on shared virtual machines whose speed drifts by up to
a factor of two, in states that last from a fraction of a second to
minutes (a fixed loop ran at 96 to 180 iterations per second within one
40 s window).  So the benchmark times operations with a ``HostClock``: it
runs ``calibrate()``, a fixed loop in the style of the package's arithmetic
(a sparse product on dicts of exponent tuples with Fraction values),
between operations at least every ``EVERY_S`` seconds of operation time,
and scales each stretch of operations by REFERENCE_S over the mean of the
two loop times around it.  Nothing in the loop depends on schubstab, so a
change to the package moves the scaled time exactly as it moves the wall
time on a steady host.  The cyclic collector is off during the loop, so
the size of the package's heap does not leak into it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Seconds one loop took (median) on the 2-core x86-64 VM with Python 3.11
# on which the benchmark was tuned; scaled times read as seconds at that speed.
REFERENCE_S = 0.03
EVERY_S = 0.25

_A = {(i, j, k): Fraction(i - j + 1, k + 1) for i in range(6) for j in range(5) for k in range(3)}
_B = {(i, j, k): Fraction(k - i, j + 2) for i in range(4) for j in range(3) for k in range(4)}


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out: dict = {}
        for e1, c1 in _A.items():
            for e2, c2 in _B.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two loop times into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)


class HostClock:
    """Adds up operation times, raw and scaled to the reference speed."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._pending = 0.0
        self._last = calibrate()

    def add(self, seconds: float) -> None:
        self.raw_s += seconds
        self._pending += seconds
        if self._pending >= EVERY_S:
            self._flush()

    def close(self) -> tuple[float, float]:
        """(raw seconds, scaled seconds) of everything added."""
        if self._pending:
            self._flush()
        return self.raw_s, self.scaled_s

    def _flush(self) -> None:
        now = calibrate()
        self.scaled_s += self._pending * scale(self._last, now)
        self._last = now
        self._pending = 0.0
