"""Host-speed calibration for timings on a machine whose speed drifts.

On a shared virtual machine the same run can take anywhere from 1x to
2x its best time, in phases that last seconds to minutes, and the CPU
time of the process moves with it. To compare runs made minutes apart,
a timed interval is rescaled to a reference host speed: every
INTERVAL_S of wall time a SIGALRM handler times one fixed chunk of
interpreter work (heap, dict and set operations, no swarmsim code),
and the interval's host seconds, minus the time spent in those chunks,
are multiplied by the mean of REFERENCE_CHUNK_S / chunk time over the
interval. A host on which the chunk takes REFERENCE_CHUNK_S reads
unscaled. The chunk is pure Python so that sampling set-up does not
import anything set-up is meant to time.
"""

from __future__ import annotations

import heapq
import random
import signal
import time

INTERVAL_S = 0.05
REFERENCE_CHUNK_S = 1e-3
CHUNK_STEPS = 500
_KEYS = 1 << 16
_TABLE = {i * 7919: i for i in range(_KEYS)}


def _chunk(rng: random.Random) -> int:
    heap: list = []
    seen = set()
    total = 0
    for i in range(CHUNK_STEPS):
        heapq.heappush(heap, (rng.random(), i))
        key = rng.randrange(_KEYS) * 7919
        total += _TABLE[key]
        seen.add((i & 31, key & 7))
        if len(heap) > 32:
            total += heapq.heappop(heap)[1]
    return total + len(seen)


class HostSpeed:
    """Samples the chunk time while active; `interval` turns host seconds into scaled ones."""

    def __init__(self):
        self._rng = random.Random(0)
        self._samples: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        _chunk(self._rng)
        self._samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> float:
        """Begin an interval; returns its start time."""
        self._samples.clear()
        return time.perf_counter()

    def interval(self, t0: float) -> tuple[float, float]:
        """(host seconds, scaled seconds) since start() returned t0."""
        elapsed = time.perf_counter() - t0
        samples = list(self._samples)
        host = elapsed - sum(samples)
        if not samples:
            return host, host
        factor = sum(REFERENCE_CHUNK_S / s for s in samples) / len(samples)
        return host, host * factor
