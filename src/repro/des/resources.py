"""Shared-resource primitives built on the DES kernel.

These model the contention points of the simulated system:

* :class:`Resource` — a counted semaphore with FIFO queueing (CPU cores,
  HPU execution contexts).
* :class:`Server` — a serializing bandwidth port: callers occupy it for a
  service duration (host memory port, PCIe port, NIC wire).
* :class:`Store` — a FIFO item queue with blocking get (work queues).
* :class:`RateLimiter` — enforces a minimum spacing between grants (the LogGP
  ``g`` message-rate limit).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.des.engine import (
    PRIORITY_URGENT,
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

    def cancel(self, req: Request) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        try:
            self._waiting.remove(req)
        except ValueError:
            pass

    def reset(self) -> None:
        """Forget all holders/waiters (cluster reuse; see Session pooling)."""
        self._users.clear()
        self._waiting.clear()

    def use(self, duration: int) -> Generator[Any, Any, None]:
        """Sub-process helper: hold the resource for ``duration`` ps."""
        req = self.request()
        yield req
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(req)


class Server:
    """A serializing service port (bandwidth pipe).

    ``serve(duration)`` queues FIFO behind earlier work and occupies the port
    for ``duration`` picoseconds.  This is how the host memory port
    (150 GiB/s), the PCIe port (64 GiB/s) and the NIC wire (G per byte) are
    modelled: time-per-byte multiplied out by the caller.
    """

    def __init__(self, env: Environment, name: str = "server"):
        self.env = env
        self.name = name
        self._resource = Resource(env, capacity=1)
        self.busy_time: int = 0
        self.jobs_served: int = 0

    def serve(self, duration: int) -> Generator[Any, Any, None]:
        """Process helper: wait for the port, then hold it for ``duration``."""
        if duration < 0:
            raise SimulationError(f"negative service duration {duration}")
        req = self._resource.request()
        yield req
        try:
            yield Timeout(self.env, duration)
            self.busy_time += duration
            self.jobs_served += 1
        finally:
            self._resource.release(req)

    def release(self, req) -> None:
        """Release a raw :meth:`request`, granting any queued waiter."""
        self._resource.release(req)

    def request(self):
        """Issue a raw FIFO request on the underlying resource.

        Fast-path callback chains use the raw request/release pair (with
        their own service accounting) instead of the :meth:`serve`
        generator; both produce identical kernel event sequences.
        """
        return self._resource.request()

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length

    def utilization(self, elapsed: Optional[int] = None) -> float:
        """Fraction of wall-clock the port was busy."""
        elapsed = self.env.now if elapsed is None else elapsed
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed

    def reset(self) -> None:
        """Zero the service accounting (cluster reuse)."""
        self.busy_time = 0
        self.jobs_served = 0
        self._resource.reset()


class ServeChain:
    """Callback mirror of ``env.process(server.serve(duration))``.

    The server's real FIFO request is issued synchronously at construction
    (construction order is FIFO order), then a fire-and-forget callback
    runs at the serve-timeout position — no process, no generator.  Used by
    the callback chains for fire-and-forget port occupancy (e.g. background
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
        self.req = req = server._resource.request()
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
        server._resource.release(self.req)
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

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking pop: (True, item) or (False, None)."""
        if self._items:
            return True, self._items.popleft()
        return False, None


class RateLimiter:
    """Enforces a minimum inter-grant gap (LogGP ``g``).

    Each ``wait_turn()`` call returns an event that fires no earlier than
    ``gap`` picoseconds after the previous grant.  Grants are FIFO.
    """

    def __init__(self, env: Environment, gap: int):
        if gap < 0:
            raise SimulationError(f"negative gap {gap}")
        self.env = env
        self.gap = gap
        self._next_free: int = 0

    def claim(self) -> int:
        """Synchronously take the next grant slot; returns its absolute time.

        The event-free core of :meth:`wait_turn`: callback chains call this
        and schedule their own continuation at the returned time.
        """
        grant_at = max(self.env._now, self._next_free)
        self._next_free = grant_at + self.gap
        return grant_at

    def wait_turn(self) -> Event:
        return self.env.timeout(self.claim() - self.env._now)

    def reset(self) -> None:
        """Forget the grant history (cluster reuse)."""
        self._next_free = 0

    @property
    def next_free(self) -> int:
        """Earliest time the next grant could occur."""
        return max(self.env.now, self._next_free)
