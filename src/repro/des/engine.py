"""Core discrete-event engine: environment, events, processes.

The design follows SimPy's proven architecture (events with callback lists,
generator-based processes) but carries only what the sPIN model calls:
events that succeed or fail, timeouts, generator processes (started by an
URGENT initialize event, or inline with :meth:`Environment.process_inline`),
``AllOf``/``AnyOf``, and fire-and-forget callbacks
(:meth:`Environment.schedule_fn` / :meth:`Environment.schedule_callback`).
There are no interrupts and no active-process tracking: a process runs until
its generator returns or raises.  The whole kernel is small enough to be
audited in one sitting.

Units
-----
All timestamps and delays are integer **picoseconds**.  Use :func:`ns` /
:func:`us` to build delays from the paper's nanosecond/microsecond constants
and :func:`ps_to_ns` / :func:`ps_to_us` to convert results back for reporting.
Non-integer delays are rejected (or, for exactly-integral floats, coerced) at
construction: float timestamps would silently break the canonical trace
encoding.

Event queue
-----------
Pending events are ``(time, priority, seq, payload)`` tuples in one ``heapq``
list.  ``seq`` is unique, so the pop order is the total ``(time, priority,
seq)`` order that ``Timeline.canonical_bytes()`` pins, and a popped entry
leaves no reference to its payload behind in the queue.
"""

from __future__ import annotations

from gc import disable as _gc_disable, enable as _gc_enable
from gc import isenabled as _gc_isenabled
from heapq import heappop, heappush
from operator import index as _as_int
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "ns",
    "ps_to_ns",
    "ps_to_us",
    "us",
]

#: Scheduling priorities: URGENT events at the same timestamp run before
#: NORMAL ones.  Used by the kernel itself (process resumption) — model code
#: rarely needs anything but NORMAL.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds (round-to-nearest)."""
    return round(value * 1_000)


def us(value: float) -> int:
    """Convert microseconds to integer picoseconds (round-to-nearest)."""
    return round(value * 1_000_000)


def ps_to_ns(value: int) -> float:
    """Convert integer picoseconds to float nanoseconds."""
    return value / 1_000


def ps_to_us(value: int) -> float:
    """Convert integer picoseconds to float microseconds."""
    return value / 1_000_000


class SimulationError(Exception):
    """Raised for misuse of the kernel (double-trigger, bad yields, ...)."""


def _coerce_delay(delay: Any) -> int:
    """Validate a delay that is not a plain ``int``.

    Index-able integers (numpy ints, bools) pass through; floats are accepted
    only when exactly integral (the historical tolerance — a stray ``2.0``
    used to work by accident), everything else is a kernel-invariant
    violation and is rejected loudly.
    """
    try:
        return _as_int(delay)
    except TypeError:
        pass
    if isinstance(delay, float) and delay.is_integer():
        return int(delay)
    raise SimulationError(
        f"non-integer delay {delay!r}: simulation time is integer picoseconds"
        " (round at the call site)"
    )


# Sentinel distinguishing "not yet triggered" from a triggered None value.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, which schedules all registered callbacks to run at the
    current simulation time.  Triggering twice is an error.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection --------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire (or has fired)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """The event's payload (or the exception for failed events)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, PRIORITY_NORMAL, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see the exception."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, PRIORITY_NORMAL, 0)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay.

    Construction is flattened to a single scheduling step (no chained
    ``__init__``): timeouts are the kernel's hottest allocation.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None):
        if type(delay) is not int:
            delay = _coerce_delay(delay)
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now + delay, PRIORITY_NORMAL, seq, self))


class _Callback:
    """A fire-and-forget queue entry: ``fn()`` runs at its scheduled time.

    The no-allocation alternative to a Timeout-plus-callback: no Event, no
    callbacks list, no value plumbing.  Created by
    :meth:`Environment.schedule_callback`; ``cancel()`` turns the entry
    into a no-op (it stays in the queue and is skipped when popped).
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn

    def cancel(self) -> None:
        self.fn = None

    def __call__(self) -> None:
        fn = self.fn
        if fn is not None:
            fn()


class Initialize(Event):
    """Internal: kicks off a new process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, PRIORITY_URGENT, seq, self))


class Process(Event):
    """Wraps a generator; the process event fires when the generator ends.

    The generator yields :class:`Event` instances; each yield suspends the
    process until the event fires, at which point the event's value is sent
    back into the generator (or its exception thrown).  Nothing else can
    wake a process: it runs until its generator returns or raises.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Any, Any, Any],
        name: Optional[str] = None,
        _inline: bool = False,
    ):
        if type(generator) is not GeneratorType and not hasattr(generator, "send"):
            raise SimulationError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        if _inline:
            # Advance the body synchronously, as if it ran inline at the
            # call site (used by callback chains handing work back to
            # generator code mid-callback without an Initialize round-trip).
            boot = Event.__new__(Event)
            boot.env = env
            boot.callbacks = None
            boot._value = None
            boot._ok = True
            boot._defused = False
            self._resume(boot)
        else:
            Initialize(env, self)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's outcome."""
        env = self.env
        while True:
            try:
                if event._ok:
                    result = self._generator.send(event._value)
                else:
                    event._defused = True
                    result = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._seq = seq = env._seq + 1
                heappush(env._heap, (env._now, PRIORITY_NORMAL, seq, self))
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._defused = False
                env._schedule(self, PRIORITY_NORMAL, 0)
                return

            callbacks = result.callbacks if isinstance(result, Event) else None
            if callbacks is not None:
                callbacks.append(self._resume)
                return
            if isinstance(result, Event):
                # Already processed (synchronous grant / ready store item /
                # long-fired event): deliver its outcome without a queue
                # round-trip, exactly as if the value had been sent inline.
                event = result
                continue
            raise SimulationError(
                f"process {self.name!r} yielded non-event {result!r}"
            )


class _Condition(Event):
    """Base for AllOf / AnyOf composite events.

    A constituent that has not fired lists ``_check`` in its callbacks,
    so it points back at the condition; the condition drops its own list
    of constituents once it triggers (:meth:`_settle`).  A triggered
    condition thus holds no constituent, and neither keeps the other
    alive in a reference cycle.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self._events and not self.triggered:
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events (callbacks already ran) carry a delivered
        # value; Timeouts pre-set their payload at construction, so testing
        # `triggered` here would wrongly include future timeouts.
        return {e: e._value for e in self._events if e.callbacks is None}

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _settle(self, event: Event) -> None:
        """Trigger with ``event``'s failure, or with the collected values."""
        if event._ok:
            self.succeed(self._collect())
        else:
            event._defused = True
            self.fail(event._value)
        self._events = ()


class AllOf(_Condition):
    """Fires when all constituent events have fired (fails fast on error)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._ok:
            self._count += 1
            if self._count < len(self._events):
                return
        self._settle(event)


class AnyOf(_Condition):
    """Fires when the first constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if not self.triggered:
            self._settle(event)


#: Optional instrumentation sink (see :mod:`repro.perf.meter`): when set,
#: every new Environment registers itself so perf harnesses can read kernel
#: event counts after a run without threading the env through every API.
_METER = None


class Environment:
    """The simulation clock and event queue.

    ``_heap`` is the pending ``(time, priority, seq, payload)`` tuples as a
    binary heap (see module docstring).
    """

    def __init__(self, initial_time: int = 0):
        self._now: int = initial_time
        self._seq: int = 0
        self._heap: list = []
        if _METER is not None:
            _METER.register(self)

    @property
    def events_scheduled(self) -> int:
        """Total kernel events pushed onto the queue so far (perf metric)."""
        return self._seq

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def now_ns(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now / 1_000

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` picoseconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Any, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Register a generator as a simulated process."""
        return Process(self, generator, name)

    def process_inline(
        self, generator: Generator[Any, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Register a process whose body starts *now*, inside this callback.

        Unlike :meth:`process` (which schedules an URGENT initialize event,
        starting the body after the current callback stack unwinds), the
        generator runs immediately up to its first yield — the event-order
        equivalent of having inlined its body at the call site.  Fast paths
        use this to hand mid-pipeline work back to generator code without
        perturbing the kernel event sequence.
        """
        return Process(self, generator, name, _inline=True)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling & stepping --------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: int) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, priority, seq, event))

    def schedule_callback(
        self,
        delay: int,
        fn: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> _Callback:
        """Fire-and-forget: run ``fn()`` ``delay`` picoseconds from now.

        The lightweight alternative to ``Timeout`` + callback for code that
        only needs deferred execution — no Event allocation, no value, no
        waiters.  Returns a handle whose ``cancel()`` makes the entry a
        no-op.  Exceptions raised by ``fn`` propagate out of ``step()``.
        """
        if type(delay) is not int:
            delay = _coerce_delay(delay)
        if delay < 0:
            raise SimulationError(f"negative callback delay {delay}")
        handle = _Callback(fn)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, priority, seq, handle))
        return handle

    def schedule_fn(
        self,
        delay: int,
        fn: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Like :meth:`schedule_callback`, but with no cancellation handle.

        The queue entry's payload is the bare callable — no ``_Callback``
        allocation.  This is the primitive the callback chains use: they
        schedule one hop per kernel event and never cancel.
        """
        if type(delay) is not int:
            delay = _coerce_delay(delay)
        if delay < 0:
            raise SimulationError(f"negative callback delay {delay}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, priority, seq, fn))

    def peek(self) -> Optional[int]:
        """Timestamp of the next scheduled event, or None if queue is empty."""
        return self._heap[0][0] if self._heap else None

    def step(self) -> None:
        """Process the next scheduled event."""
        queue = self._heap
        if not queue:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _seq, event = heappop(queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        if not isinstance(event, Event):
            event()  # bare callable or _Callback handle
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure: surface it instead of silently dropping.
            raise event._value

    def run(self, until: Optional[int] = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        ``until`` may be an absolute time (int picoseconds) or an
        :class:`Event`; in the latter case :meth:`run` returns the event's
        value when it fires.

        Cyclic GC is paused for the duration of the drain: the loop
        allocates heavily (entries, chains, generator frames) and nearly
        everything dies young by refcount, so generation scans mid-drain
        only burn time re-tracking short-lived objects.  The pause holds
        back no finished simulation: the component graph has no reference
        cycles, so a drained cluster that nothing references is freed by
        reference count, not by a later collection.  The pause is
        released on exit (exceptions included) and a GC the user disabled
        themselves stays disabled.
        """
        if _gc_isenabled():
            _gc_disable()
            try:
                return self._run(until)
            finally:
                _gc_enable()
        return self._run(until)

    def _run(self, until: Optional[int]) -> Any:
        queue = self._heap
        if until is None:
            while queue:
                when, _prio, _seq, event = heappop(queue)
                self._now = when
                if not isinstance(event, Event):
                    event()
                    continue
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            return None
        if isinstance(until, Event):
            sentinel = until
            if sentinel.callbacks is None:
                return sentinel.value
            done = []
            sentinel.callbacks.append(done.append)
            while queue and not done:
                when, _prio, _seq, event = heappop(queue)
                self._now = when
                if not isinstance(event, Event):
                    event()
                    continue
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            if not done:
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired"
                )
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value
        horizon = int(until)
        if horizon < self._now:
            raise SimulationError("cannot run() into the past")
        step = self.step
        while queue and queue[0][0] <= horizon:
            step()
        self._now = horizon
        return None
