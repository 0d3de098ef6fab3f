"""Counting events (Portals 4 CTs).

Counters accumulate success/failure counts (and optionally byte counts) and
are the trigger source for triggered operations: a watcher registers a
threshold and is called back the moment the success count reaches it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.portals.types import PortalsError

__all__ = ["Counter"]


class Counter:
    """A Portals counting event (``ptl_ct_event_t``: success + failure)."""

    def __init__(self, name: str = "ct"):
        self.name = name
        self.success: int = 0
        self.failure: int = 0
        self.bytes: int = 0
        self._watchers: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    # -- updates ----------------------------------------------------------
    def increment(self, successes: int = 1, nbytes: int = 0) -> None:
        """PtlCTInc: bump the success count (and byte tally)."""
        if successes < 0:
            raise PortalsError("counter increments must be non-negative")
        self.success += successes
        self.bytes += nbytes
        self._fire_ready()

    def fail(self, failures: int = 1) -> None:
        self.failure += failures

    def set(self, successes: int, failures: int = 0) -> None:
        """PtlCTSet: overwrite the counter (may fire watchers)."""
        self.success = successes
        self.failure = failures
        self._fire_ready()

    # -- watchers (triggered-op hook) ----------------------------------------
    def on_threshold(self, threshold: int, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once when success count reaches ``threshold``.

        Fires immediately if the threshold is already met.  Callbacks at the
        same threshold fire in registration order.
        """
        if threshold <= self.success:
            callback()
            return
        heapq.heappush(self._watchers, (threshold, next(self._seq), callback))

    def _fire_ready(self) -> None:
        while self._watchers and self._watchers[0][0] <= self.success:
            _, _, callback = heapq.heappop(self._watchers)
            callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name} ok={self.success} fail={self.failure}>"
