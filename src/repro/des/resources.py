"""Shared-resource primitives built on the DES kernel.

These model the contention points of the simulated system:

* :class:`Resource` — a counted semaphore with FIFO queueing (CPU cores,
  HPU execution contexts).
* :class:`Server` — a serializing bandwidth port: a capacity-1
  :class:`Resource` that callers occupy for a service duration and that
  tallies the service it gave (host memory port, PCIe port, NIC wire).
* :class:`Store` — a FIFO item queue with blocking get (work queues).
* :class:`RateLimiter` — enforces a minimum spacing between grants (the LogGP
  ``g`` message-rate limit).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.des.engine import (
    Environment,
    Event,
    SimulationError,
    Timeout,
    _PENDING,
)

__all__ = ["RateLimiter", "Resource", "ServeChain", "Server", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` (fires when granted)."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource


class Resource:
    """Counted resource with FIFO discipline.

    Usage from a process::

        req = resource.request()
        yield req
        ...  # hold the resource
        resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of outstanding (ungranted) requests."""
        return len(self._waiting)

    def request(self) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity:
            # Uncontended: grant synchronously, with no kernel event.  The
            # request comes back already *processed* (callbacks is None), so
            # a waiting process resumes inline and a callback chain calls its
            # continuation directly — the queue round-trip the old
            # ``req.succeed()`` paid bought nothing but a tie-order slot.
            self._users.add(req)
            req._value = None
            req.callbacks = None
        else:
            self._waiting.append(req)
        return req

    def release(self, req) -> None:
        if req not in self._users:
            raise SimulationError("releasing a request that does not hold the resource")
        self._users.remove(req)
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed()


class Server(Resource):
    """A serializing service port (bandwidth pipe): a capacity-1 resource.

    ``serve(duration)`` queues FIFO behind earlier work and occupies the port
    for ``duration`` picoseconds.  This is how the host memory port
    (150 GiB/s), the PCIe port (64 GiB/s) and the NIC wire (G per byte) are
    modelled: time-per-byte multiplied out by the caller.  Callback chains
    use the inherited :meth:`~Resource.request` / :meth:`~Resource.release`
    pair directly and do their own service accounting (``busy_time``,
    ``jobs_served``); both ways give the same kernel events.
    """

    def __init__(self, env: Environment, name: str = "server"):
        super().__init__(env)
        self.name = name
        self.busy_time: int = 0
        self.jobs_served: int = 0

    def serve(self, duration: int) -> Generator[Any, Any, None]:
        """Process helper: wait for the port, then hold it for ``duration``."""
        if duration < 0:
            raise SimulationError(f"negative service duration {duration}")
        req = self.request()
        yield req
        try:
            yield Timeout(self.env, duration)
            self.busy_time += duration
            self.jobs_served += 1
        finally:
            self.release(req)

    def utilization(self, elapsed: Optional[int] = None) -> float:
        """Fraction of wall-clock the port was busy."""
        elapsed = self.env.now if elapsed is None else elapsed
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed


class ServeChain:
    """Callback mirror of ``env.process(server.serve(duration))``.

    ``server.request()`` is issued synchronously at construction
    (construction order is FIFO order), then a fire-and-forget callback
    runs at the serve-timeout position, does the service accounting and
    calls ``server.release()`` — no process, no generator.  Used by the
    callback chains for fire-and-forget port occupancy (e.g. background
    DMA staging).
    ``then``, when given, runs right after the service accounting, at the
    position generator code following the serve would run.
    """

    __slots__ = ("server", "duration", "req", "then")

    def __init__(self, server: Server, duration: int,
                 then: Optional[Any] = None):
        if duration < 0:
            raise SimulationError(f"negative service duration {duration}")
        self.server = server
        self.duration = duration
        self.then = then
        self.req = req = server.request()
        if req.callbacks is None:
            self._granted(req)
        else:
            req.callbacks.append(self._granted)

    def _granted(self, _event: Event) -> None:
        self.server.env.schedule_fn(self.duration, self._done)

    def _done(self) -> None:
        server = self.server
        server.busy_time += self.duration
        server.jobs_served += 1
        server.release(self.req)
        self.req = None
        if self.then is not None:
            self.then()


class Store:
    """Unbounded FIFO queue of items with blocking ``get``."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item (never blocks)."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event firing with the next item."""
        event = Event(self.env)
        if self._items:
            # Item available: deliver synchronously (processed, no kernel
            # event) — matches the uncontended Resource.request fast path.
            event._value = self._items.popleft()
            event.callbacks = None
        else:
            self._getters.append(event)
        return event


class RateLimiter:
    """Enforces a minimum inter-grant gap (LogGP ``g``).

    Each :meth:`claim` takes the next grant slot, no earlier than ``gap``
    picoseconds after the previous grant.  Grants are FIFO in claim order.
    """

    def __init__(self, env: Environment, gap: int):
        if gap < 0:
            raise SimulationError(f"negative gap {gap}")
        self.env = env
        self.gap = gap
        self._next_free: int = 0

    def claim(self) -> int:
        """Synchronously take the next grant slot; returns its absolute time.

        No event is created: callback chains call this and schedule their
        own continuation at the returned time.
        """
        grant_at = max(self.env._now, self._next_free)
        self._next_free = grant_at + self.gap
        return grant_at

