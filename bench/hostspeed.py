"""Op times scaled to a fixed host speed.

On a shared 2-vCPU virtual machine (Python 3.11, numpy 2.4) the same
code ran up to 1.9 times slower in some minutes than in others: a
pure-Python loop took 46 to 70 ms per call within two minutes, with CPU
time equal to wall time and no steal.  All code slows together, so a
time measured in a slow minute says more about the host than about
segtrack.

`ScaledClock` times a fixed reference computation right before and
right after each op, and scales the op's wall time by
REFERENCE_S / (mean of the two).  The result is the time the op would
take when the reference computation takes REFERENCE_S, its time on that
machine in a fast minute.  There, scaling took the swing of a 0.2 s
op's time between 10-second windows from +-32% to +-8%.  The raw wall
time is kept beside the scaled one.
"""

from __future__ import annotations

import json
import time
from typing import Callable, TypeVar

import numpy as np

REFERENCE_S = 0.0055

T = TypeVar("T")


def reference_work() -> int:
    """Interpreter loop, dict, str and json work plus one small numpy pass, like segtrack's mix."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    words = {i: str(i) for i in range(6000)}
    total += len(json.loads(json.dumps(list(words.values()))))
    return total + int(np.add.reduce(np.arange(50000) % 7))


def probe() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class ScaledClock:
    def __init__(self) -> None:
        self._last = probe()

    def measure(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """Run fn; return its result, its wall time and its scaled time."""
        before = self._last
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        self._last = after = probe()
        return result, raw, raw * REFERENCE_S * 2 / (before + after)
