"""Handler processing units (HPUs) and their scheduling pool.

The simulated NIC has ``hpu_count`` identical in-order cores (§4.2: four
2.5 GHz ARM Cortex-A15-class units).  Packets waiting for a free HPU queue
FIFO; the queue depth is the flow-control trigger — if more packets are
pending than the NIC can buffer, the portal table entry is disabled and
packets are dropped (§3.2).

A NIC builds its pool when it first runs a handler, so a run that binds no
handler (the RDMA and Portals 4 baselines) builds none.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.des.engine import Environment
from repro.des.resources import Store
from repro.des.trace import Timeline

__all__ = ["HPUPool"]


class _CheckedOutStore(Store):
    """Free-id queue that records which ids have been handed out.

    Both handoff paths mark the id as checked out: a ``get`` served from
    the queue, and a ``put`` handed straight to a waiting getter.  This is
    the tracking :meth:`HPUPool.release` validates against; the bookkeeping
    lives at the store boundary because ``SpinNIC._run_handler`` takes its
    HPU with a bare ``_free.get()``.
    """

    def __init__(self, env: Environment, checked_out: set):
        super().__init__(env)
        self._checked_out = checked_out

    def put(self, item: Any) -> None:
        if self._getters:
            self._checked_out.add(item)
        super().put(item)

    def get(self):
        if self._items:
            self._checked_out.add(self._items[0])
        return super().get()


class HPUPool:
    """FIFO pool of HPU execution contexts, identified by index."""

    def __init__(
        self,
        env: Environment,
        count: int,
        rank: int = 0,
        timeline: Optional[Timeline] = None,
    ):
        if count < 1:
            raise ValueError("need at least one HPU")
        self.env = env
        self.count = count
        self.rank = rank
        self.timeline = timeline or Timeline(enabled=False)
        #: Ids currently held by a handler (acquired, not yet released).
        self._checked_out: set[int] = set()
        self._free = _CheckedOutStore(env, self._checked_out)
        for i in range(count):
            self._free.put(i)
        self._waiting = 0
        self.handlers_run = 0
        self.busy_ps = 0

    @property
    def waiting(self) -> int:
        """Packets currently queued for an HPU (flow-control signal)."""
        return self._waiting

    def release(self, hpu_id: int) -> None:
        if not 0 <= hpu_id < self.count:
            raise ValueError(f"bad HPU id {hpu_id}")
        if hpu_id not in self._checked_out:
            # A double release would put a duplicate id in the free queue:
            # two handlers "running" on one HPU, utilization above 1.0.
            raise ValueError(f"HPU {hpu_id} is not checked out "
                             f"(double release?)")
        # Discard before put: a put handed straight to a waiter checks the
        # id right back out.
        self._checked_out.discard(hpu_id)
        self._free.put(hpu_id)

    def record(self, hpu_id: int, start: int, end: int, label: str) -> None:
        """Account one handler execution on the timeline."""
        self.handlers_run += 1
        self.busy_ps += end - start
        self.timeline.record(self.rank, f"HPU{hpu_id}", start, end, label)
