"""Fixed-memory streaming quantiles: the shared ``repro.sim`` primitive.

:class:`QuantileSketch` is the one latency store in ``repro.sim``; both
consumers build on it:

* :class:`repro.sim.metrics.LatencyStats` — one sketch per stream.
  ``capacity=None`` (the default there) never compacts, so percentiles
  are exact; a bounded capacity (``Metrics(sketch_capacity=512)``) keeps
  a million-request run in the memory of a hundred-request one;
* :class:`repro.sim.metrics.WindowedMetrics` — one bounded sketch per
  time window, so time-resolved SLO curves stay fixed-memory per bin.

Determinism contract: the compaction schedule depends only on the
insertion sequence (and, for :meth:`QuantileSketch.merge`, the merge
order), never on wall time, object identity, or the global RNG —
identical streams produce identical sketches on every host and worker.
Until a level compacts the sketch is **exact**: percentiles equal the
nearest-rank answer over the sorted samples bit-for-bit.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["QuantileSketch", "percentile_ps"]


def percentile_ps(sorted_samples: list[int], q: float) -> int:
    """Nearest-rank percentile of pre-sorted integer samples (q in [0, 1])."""
    if not sorted_samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


class QuantileSketch:
    """Deterministic bounded-memory streaming quantile sketch.

    A KLL-style compactor chain: level ``i`` holds samples of weight
    ``2**i``; when level 0 fills to ``capacity`` it is sorted and every
    other element (alternating parity per compaction, so no systematic
    rank bias) is promoted one level up.  Memory is bounded by
    ``capacity`` items per level times ``log2(n / capacity)`` levels —
    a few KiB regardless of stream length — and the compaction schedule
    depends only on the insertion sequence, so identical streams produce
    identical sketches on every host and worker.

    While fewer than ``capacity`` samples have been added the sketch is
    **exact** (nothing has compacted yet): small windows pay no
    approximation at all.  ``capacity=None`` never compacts, so the
    sketch stays exact (and O(n)) forever.
    """

    __slots__ = ("capacity", "count", "min", "max", "_levels", "_parity",
                 "_limit")

    def __init__(self, capacity: Optional[int] = 128):
        if capacity is not None and capacity < 4:
            raise ValueError(f"sketch capacity {capacity} too small (< 4)")
        self.capacity = capacity
        #: Level size that triggers a compaction (never, when unbounded).
        self._limit = math.inf if capacity is None else capacity
        self.count = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self._levels: list[list[int]] = [[]]
        self._parity = 0

    def add(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative sample {value}")
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        level0 = self._levels[0]
        level0.append(value)
        if len(level0) >= self._limit:
            self._compact(0)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (``other`` is left untouched).

        Level buffers concatenate level-by-level — a level-``i`` sample
        carries weight ``2**i`` in either sketch, so rank estimates
        compose — and any level that overflows compacts exactly as if
        the samples had arrived by :meth:`add`.  The result depends only
        on both sketches' states and this sketch's capacity, so merge
        order is deterministic; merging exact (uncompacted) sketches
        whose total stays below capacity is itself exact.
        """
        self.count += other.count
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for level, buf in enumerate(other._levels):
            if not buf:
                continue
            while level >= len(self._levels):
                self._levels.append([])
            mine = self._levels[level]
            mine.extend(buf)
            if len(mine) >= self._limit:
                self._compact(level)

    def _compact(self, level: int) -> None:
        buf = self._levels[level]
        buf.sort()
        keep = buf[self._parity::2]
        self._parity ^= 1
        self._levels[level] = []
        if level + 1 == len(self._levels):
            self._levels.append([])
        nxt = self._levels[level + 1]
        nxt.extend(keep)
        if len(nxt) >= self._limit:
            self._compact(level + 1)

    def percentile(self, q: float) -> int:
        """Nearest-rank percentile over the weighted retained samples."""
        return self.percentiles((q,))[0]

    def percentiles(self, qs) -> list[int]:
        """:meth:`percentile` for each of ``qs``, sorting the retained
        samples once for the whole batch."""
        if not self.count:
            raise ValueError("percentile of an empty sketch")
        if len(self._levels) == 1:
            # Never compacted: every sample has weight 1.
            ordered = sorted(self._levels[0])
            return [percentile_ps(ordered, q) for q in qs]
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile {q} outside [0, 1]")
        weighted = sorted(
            (value, 1 << level)
            for level, buf in enumerate(self._levels)
            for value in buf
        )
        total = sum(w for _, w in weighted)
        out = []
        for q in qs:
            # The extremes are tracked exactly; compaction may have evicted
            # them from the retained set, so answer them directly.
            if q <= 0.0:
                out.append(self.min)
                continue
            if q >= 1.0:
                out.append(self.max)
                continue
            target = max(1, math.ceil(q * total))
            cum = 0
            for value, weight in weighted:
                cum += weight
                if cum >= target:
                    out.append(value)
                    break
        return out

    def retained(self) -> int:
        """Samples physically held (the memory bound, for tests)."""
        return sum(len(buf) for buf in self._levels)
