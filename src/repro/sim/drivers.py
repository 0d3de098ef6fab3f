"""Composable workload drivers: open-loop, closed-loop, and population load.

A driver turns an installed channel (or any matching entry) into *load*:

* :class:`OpenLoopDriver` — a :class:`ScheduleDriver` posting puts at a
  configured offered rate (Poisson interarrivals drawn from its own seeded
  RNG), independent of completions — the canonical way to find
  saturation;
* :class:`ClosedLoopDriver` — N concurrent clients, each issuing the next
  request only after the previous one completed, with optional think time
  — the canonical way to model a population of users;
* :class:`PopulationDriver` — the same closed-loop *population* expressed
  as a rate instead of objects: one aggregated arrival process whose rate
  is (idle clients × load profile) / think time, spawning per-request
  state only while a request is in flight — the way to model millions of
  users without millions of Python objects.

All of them share :class:`~repro.sim.driver_core.DriverCore`: request
latency measured from the moment the request is issued (client CPU
queueing included) to the arrival of the Portals ACK back at the
initiator, fed into a :class:`~repro.sim.metrics.Metrics` sink, and the
same determinism contract (every draw from the driver's seeded RNGs).
:func:`run_drivers` starts a set of drivers, drains, and reconciles.

Reliability (opt-in)
--------------------
On a lossy fabric (fault injection, congestion tail-drop) an un-ACKed
request is silent — the initiator sees nothing, ever.  ``timeout_ns``
arms a per-request timer: at expiry the request is recorded as a drop
(and, closed loop, its client moves on instead of hanging until drain).
``retries`` upgrades expiry into retransmission with exponential backoff
(``timeout × backoff`` per attempt): each logical request carries a
unique sequence tag in ``hdr_data``, so a :func:`dedup_channel` target
delivers at-least-once while dropping duplicates on the NIC.  Every
timer expiry / retransmit lands in the stream's ``timeouts`` /
``retransmits`` counters; ``completed`` stays *unique* completions, so
``goodput_mmps`` is throughput net of retransmits.  With the defaults
(no timeout) nothing here schedules — the pre-reliability event stream
is preserved bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generator, Optional, Sequence

from repro.des.engine import Process
from repro.sim.driver_core import (DriverCore, ScheduleDriver, SizeMix,
                                   poisson_offsets_ps)

__all__ = [
    "ClosedLoopDriver",
    "OpenLoopDriver",
    "PopulationDriver",
    "ScheduleDriver",
    "SizeMix",
    "dedup_channel",
    "run_drivers",
]


class OpenLoopDriver(ScheduleDriver):
    """Offered-load generator: puts at ``rate_mmps`` regardless of replies.

    A :class:`~repro.sim.driver_core.ScheduleDriver` over exponential
    interarrivals (mean ``1/rate_mmps`` microseconds).  The gaps are drawn
    lazily from the driver's ``random.Random(seed)``, interleaved with
    each request's own draws (size mix, ``make_request``).  Each request
    runs in its own client process, so posting overhead ``o`` contends
    for host cores exactly as concurrent senders would.  Latency
    percentiles under increasing ``rate_mmps`` trace the saturation
    curve.
    """

    def __init__(self, session, *, source: int, rate_mmps: float,
                 count: int, **kwargs: Any):
        if rate_mmps <= 0:
            raise ValueError("offered rate must be positive")
        if count < 1:
            raise ValueError("need at least one request")
        super().__init__(session, source=source, schedule=(), **kwargs)
        self.schedule = poisson_offsets_ps(self.rng, rate_mmps, count)


class ClosedLoopDriver(DriverCore):
    """N concurrent clients, each one request in flight, optional think time.

    Clients are assigned round-robin over ``sources`` (one simulated host
    can run several client loops — its cores are the shared resource).
    Each client thinks for an exponential ``think_ns`` (0 disables), posts
    an acked put, waits for the ACK, records the latency, and repeats
    ``requests_per_client`` times.

    A request dropped at the target is never ACKed, so its client blocks
    forever — the honest closed-loop outcome.  Call :meth:`finalize` after
    draining to turn that silence into recorded drops (and a
    ``lost_requests`` note) instead of silently deflated load.
    """

    def __init__(self, session, *, sources: Sequence[int], clients: int,
                 requests_per_client: int, think_ns: float = 0.0,
                 **kwargs: Any):
        super().__init__(session, **kwargs)
        if not sources:
            raise ValueError("need at least one source rank")
        if clients < 1 or requests_per_client < 1:
            raise ValueError("need at least one client and one request")
        self.sources = tuple(sources)
        self.clients = clients
        self.requests_per_client = requests_per_client
        self.think_ns = think_ns

    def start(self) -> list[Process]:
        """Launch every client loop; returns their processes."""
        return [
            self.session.process(self._client(c), name=f"client[{c}]")
            for c in range(self.clients)
        ]

    def _client(self, client_index: int) -> Generator:
        env = self.session.env
        machine = self.session[self.sources[client_index % len(self.sources)]]
        rng = random.Random(self.seed * 1_000_003 + client_index)
        think_ps = self.think_ns * 1000.0
        for index in range(self.requests_per_client):
            if think_ps:
                yield env.timeout(round(rng.expovariate(1.0) * think_ps))
            request = self.request_kwargs(rng, index)
            gate = yield from self._tracked_put(machine, self.stream, request)
            yield gate


class PopulationDriver(DriverCore):
    """A closed-loop population represented as rate + distribution.

    Models ``population`` clients in the machine-repairman form: each
    client thinks for an exponential ``think_ns``, issues one request,
    waits for its completion, and thinks again — but no per-client object
    ever exists.  With ``idle`` clients thinking, the time to the next
    arrival is exponential with rate ``idle × load_profile(t) / think``
    (the minimum of ``idle`` i.i.d. exponential residuals), so the whole
    population collapses to one aggregated arrival process whose state is
    two integers.  By memorylessness, resampling the next-arrival gap
    from the *current* rate after every state change (arrival issued,
    completion landed) is statistically exact, not an approximation —
    which is why the think-time distribution is fixed as exponential.

    Per-request state exists only while the request is in flight
    (``peak_in_flight`` reports the high-water mark), so memory is
    O(concurrency), not O(population): a million-client population costs
    the same as a hundred-client one.

    Small populations match the per-client :class:`ClosedLoopDriver`'s
    summary statistics; this form exists for populations where
    per-client objects are the bottleneck.

    ``load_profile`` (optional) maps absolute sim time in ns to a
    non-negative rate multiplier — diurnal swings, ramps, overload
    pulses.  It must be a pure deterministic function; it is evaluated
    at state changes and frozen between them (exact for profiles that
    vary slowly against the arrival scale).  ``max_in_flight`` caps
    concurrent in-flight requests below the population — the knob that
    keeps bounded memory *guaranteed* even when the target saturates and
    a raw closed loop would pile up ~population pending requests.
    """

    def __init__(self, session, *, sources: Sequence[int], population: int,
                 requests: int, think_ns: float,
                 load_profile: Optional[Callable[[float], float]] = None,
                 max_in_flight: Optional[int] = None, **kwargs: Any):
        super().__init__(session, **kwargs)
        if not sources:
            raise ValueError("need at least one source rank")
        if population < 1:
            raise ValueError("need at least one client in the population")
        if requests < 1:
            raise ValueError("need at least one request")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be positive (or None)")
        if think_ns <= 0:
            raise ValueError(
                "PopulationDriver needs think_ns > 0 (the aggregate arrival "
                "rate is population/think; use ClosedLoopDriver for "
                "think-free load)"
            )
        self.sources = tuple(sources)
        self.population = population
        self.requests = requests
        self.think_ns = think_ns
        self.load_profile = load_profile
        self.max_in_flight = max_in_flight
        #: High-water mark of concurrent in-flight requests — the actual
        #: memory footprint of the population (asserted bounded in tests).
        self.peak_in_flight = 0
        #: Times the ``load_profile`` rate floor engaged (a profile value
        #: below it was raised to keep a zero trough from deadlocking).
        self.rate_floor_hits = 0
        self._think_ps = think_ns * 1000.0
        self._rng = random.Random(self.seed)
        self._issued = 0
        self._in_flight = 0
        self._arrival_timer = None

    def start(self) -> Process:
        """Launch the load; returns the arrival process."""
        return self.session.process(self._prime(),
                                    name=f"population[{self.stream}]")

    def finalize(self) -> int:
        if self._arrival_timer is not None:
            self._arrival_timer.cancel()
            self._arrival_timer = None
        return super().finalize()

    # -- fluid arrival engine ---------------------------------------------
    def _prime(self) -> Generator:
        # A generator so session.process can host it; the real work is
        # callback-driven (schedule_callback), which survives a million
        # arrivals without a million live generator frames.
        self._schedule_next()
        return
        yield  # pragma: no cover - makes this a generator

    def _rate_per_ps(self) -> float:
        """Current aggregate arrival rate (arrivals per picosecond)."""
        idle = self.population - self._in_flight
        if idle <= 0:
            return 0.0
        scale = 1.0
        if self.load_profile is not None:
            env = self.session.env
            scale = self.load_profile(env.now / 1000.0)
            if scale < 0:
                raise ValueError(f"load_profile returned {scale} < 0")
            # Floor at a tiny rate: with nothing in flight there is no
            # completion to re-arm the timer, so a profile trough of
            # exactly zero would otherwise strand the remaining requests
            # forever.  The floor turns "off" into "very rare polls".
            if scale < 1e-6:
                scale = 1e-6
                self.rate_floor_hits += 1
        return idle * scale / self._think_ps

    def _schedule_next(self) -> None:
        """(Re)arm the next-arrival timer from the current rate.

        Called after every state change; cancelling the stale timer and
        drawing a fresh gap from the new rate is exact for exponential
        think times (memorylessness), and keeps exactly one timer live.
        """
        if self._arrival_timer is not None:
            self._arrival_timer.cancel()
            self._arrival_timer = None
        if self._issued >= self.requests:
            return
        if (self.max_in_flight is not None
                and self._in_flight >= self.max_in_flight):
            return  # a completion will re-arm
        rate = self._rate_per_ps()
        if rate <= 0.0:
            return  # all clients busy (or profile at zero): completion re-arms
        gap = max(1, round(self._rng.expovariate(rate)))
        env = self.session.env
        self._arrival_timer = env.schedule_callback(gap, self._arrival_fired)

    def _arrival_fired(self) -> None:
        self._arrival_timer = None
        env = self.session.env
        index = self._issued
        machine = self.session[self.sources[index % len(self.sources)]]
        request = self.request_kwargs(self._rng, index)
        self._issued += 1
        self._in_flight += 1
        if self._in_flight > self.peak_in_flight:
            self.peak_in_flight = self._in_flight
        env.process(self._one(machine, request),
                    name=f"pop[{self.stream}#{index}]")
        self._schedule_next()

    def _one(self, machine, request: dict) -> Generator:
        gate = yield from self._tracked_put(machine, self.stream, request)
        yield gate
        # ACK (or timeout-drop) landed: one client returns to thinking.
        self._in_flight -= 1
        self._schedule_next()


def run_drivers(session, drivers: Sequence[DriverCore]) -> int:
    """Start every driver, drain the session, reconcile lost requests.

    Returns the number of requests lost across all drivers.
    """
    for driver in drivers:
        driver.start()
    session.drain()
    return sum(driver.finalize() for driver in drivers)


def dedup_channel(session, rank: int, *, match_bits: int,
                  length: int = 1 << 30, hpu_mem_bytes: int = 1 << 15,
                  **kwargs: Any):
    """Install an at-least-once target channel for retransmitting drivers.

    The header handler drops any message whose sequence tag
    (``hdr_data``, stamped by a driver with ``retries > 0``) was already
    *fully delivered*; the completion handler marks the tag as seen only
    once every payload byte arrived.  Marking at completion — not at the
    header — matters on a lossy fabric: an attempt whose payload was lost
    stalls forever, and had its header already claimed the tag, the
    retransmitted copy would be deduplicated into oblivion.  Duplicates
    are dropped on the NIC but still complete (and ACK), so an initiator
    whose *ACK* was lost stops retransmitting.  HPU state keys:
    ``seen`` (delivered tags), ``dups`` (duplicates dropped).
    """
    from repro.core.handlers import ReturnCode

    def dedup_header(ctx, h):
        ctx.charge(8)
        seen = ctx.state.vars.setdefault("seen", set())
        if h.hdr_data in seen:
            ctx.state.vars["dups"] = ctx.state.vars.get("dups", 0) + 1
            return ReturnCode.DROP
        return ReturnCode.PROCEED

    def dedup_completion(ctx, dropped_bytes, flow_ctl):
        ctx.charge(4)
        if not dropped_bytes and not flow_ctl:
            ctx.state.vars.setdefault("seen", set()).add(ctx.message.hdr_data)
        return ReturnCode.SUCCESS

    return session.connect(rank, match_bits=match_bits, length=length,
                           header_handler=dedup_header,
                           completion_handler=dedup_completion,
                           hpu_mem_bytes=hpu_mem_bytes, **kwargs)
