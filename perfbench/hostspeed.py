"""Host speed, measured with a fixed reference loop, for scaling timings.

The hosts this benchmark runs on are shared: their speed for one process
changes by up to 2x over tens of seconds.  Operation times measured minutes
apart therefore differ more than any regression worth catching.  The
reference loop below does the same kind of work as pushplan (small frozen
dataclasses with validation, overlap scans over generators, sorting, a
seeded random generator) and never changes, so the ratio of an operation's
time to the loop's time measured moments before it is far steadier.
Multiplied by NOMINAL_MS, that ratio reads in milliseconds of a host on
which the loop takes NOMINAL_MS, its median time on a 2-core x86 host under
Python 3.11.  Raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque
from dataclasses import dataclass

# The reference loop's median time on a 2-core x86 host under Python 3.11,
# in ms.  Changing it rescales every reported time.
NOMINAL_MS = 2.7

# The loop is timed again once this much time has passed since the last
# timing; each timing costs about NOMINAL_MS.
INTERVAL_S = 0.2

# The scale uses the median of this many latest timings.
RECENT = 3


@dataclass(frozen=True, slots=True)
class _Vec:
    x: float
    y: float

    def __add__(self, other: "_Vec") -> "_Vec":
        return _Vec(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "_Vec") -> "_Vec":
        return _Vec(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        return (self.x * self.x + self.y * self.y) ** 0.5


@dataclass(frozen=True, slots=True)
class _Box:
    lo: _Vec
    hi: _Vec

    def __post_init__(self) -> None:
        if self.lo.x > self.hi.x or self.lo.y > self.hi.y:
            raise ValueError("inverted box")


def _box(center: _Vec, half: float) -> _Box:
    return _Box(_Vec(center.x - half, center.y - half), _Vec(center.x + half, center.y + half))


def _overlap(a: _Box, b: _Box) -> bool:
    return a.lo.x < b.hi.x and b.lo.x < a.hi.x and a.lo.y < b.hi.y and b.lo.y < a.hi.y


def reference_loop() -> int:
    """A fixed amount of pushplan-like work: boxes, overlap scans, sorting, a seeded rng."""
    rng = random.Random(7)
    centers = [_Vec(rng.random(), rng.random()) for _ in range(12)]
    middle = _Vec(0.5, 0.5)
    hits = 0
    for _ in range(30):
        boxes = tuple(_box(c, 0.05) for c in centers)
        for i, b in enumerate(boxes):
            hits += sum(1 for j in range(len(boxes)) if j != i and _overlap(b, boxes[j]))
            hits += any(_overlap(b, other) for other in boxes[:i])
        centers = sorted(centers, key=lambda v: (v - middle).norm())
        centers = [c + _Vec(rng.uniform(-0.01, 0.01), 0.0) for c in centers]
    return hits


class HostSpeed:
    """Times the reference loop now and then; scales raw times by the result."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self.spent_s = 0.0
        self._recent: deque[float] = deque(maxlen=RECENT)
        self._last = 0.0

    def tick(self, force: bool = False) -> None:
        """Time the loop if ``force`` or INTERVAL_S has passed since the last timing."""
        now = time.perf_counter()
        if not force and self._recent and now - self._last < INTERVAL_S:
            return
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        ms = (end - start) * 1000.0
        self._recent.append(ms)
        self.samples_ms.append(ms)
        self._last = end
        self.spent_s += end - now

    def scale(self) -> float:
        """Factor turning a raw time measured now into a time at NOMINAL_MS."""
        return NOMINAL_MS / statistics.median(self._recent)
