"""Shared measurement/reliability core for workload drivers.

:class:`DriverCore` is the engine every load shape builds on.  Arrivals
come from one of two places:

* a **schedule** — :class:`ScheduleDriver` walks exact float-picosecond
  offsets (the open-loop driver's lazy Poisson gaps from
  :func:`poisson_offsets_ps`, or a traffic edge's materialised source);
* a **population** — :class:`~repro.sim.drivers.ClosedLoopDriver` (one
  loop per client) or :class:`~repro.sim.drivers.PopulationDriver` (the
  same population as one aggregated rate).

:class:`DriverCore` owns the parts that must behave identically no
matter how arrivals are generated:

* acked puts with per-request latency measured issue → Portals ACK
  (fresh MD/EQ per attempt, first-ACK-wins);
* the opt-in reliability layer: per-request timers, retransmission with
  exponential backoff, sequence tags for :func:`~repro.sim.drivers.
  dedup_channel` targets;
* metrics plumbing: per-stream :class:`~repro.sim.metrics.LatencyStats`,
  the completion log, and the windowed sink;
* end-of-run reconciliation (:meth:`DriverCore.finalize`) of requests
  whose ACK never arrived.

Per-request state (:class:`PendingRequest`) exists only while the
request is in flight — the property that lets a million-client
:class:`~repro.sim.drivers.PopulationDriver` run in fixed memory: the
population is a *rate*, and only the handful of in-flight requests are
objects.

Determinism: every random draw in a driver comes from ``random.Random``
instances seeded from the driver's ``seed`` parameter — never the
process-global RNG — so a driver run is reproducible regardless of
executor seeding, worker count, or interleaving with other drivers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import (Callable, Generator, Iterable, Iterator, Optional,
                    Sequence, Union)

from repro.des.engine import Event, Process
from repro.portals.events import EventQueue
from repro.portals.ni import MemoryDescriptor
from repro.sim.metrics import Metrics

__all__ = ["DriverCore", "PendingRequest", "ScheduleDriver", "SizeMix",
           "poisson_offsets_ps"]

#: 1 million messages/second expressed as a picosecond interarrival.
_PS_PER_MMPS = 1_000_000.0


def poisson_offsets_ps(rng: random.Random, rate_mmps: float, count: int,
                       start_ps: float = 0.0) -> Iterator[float]:
    """Exact float-ps offsets of ``count`` exponential interarrivals.

    A generator: each gap is drawn from ``rng`` only when the next
    offset is asked for, so a walk that draws per-request values from
    the same ``rng`` between arrivals keeps its interleaved draw order.
    """
    gap = _PS_PER_MMPS / rate_mmps
    exact = start_ps
    for _ in range(count):
        exact += rng.expovariate(1.0) * gap
        yield exact


@dataclass(frozen=True)
class SizeMix:
    """A weighted message-size distribution sampled per request."""

    sizes: tuple[int, ...]
    weights: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("empty size mix")
        if any(s < 0 for s in self.sizes):
            raise ValueError("negative message size")
        if self.weights is not None and len(self.weights) != len(self.sizes):
            raise ValueError("weights/sizes length mismatch")

    @classmethod
    def fixed(cls, nbytes: int) -> "SizeMix":
        return cls(sizes=(nbytes,))

    def sample(self, rng: random.Random) -> int:
        if len(self.sizes) == 1:
            return self.sizes[0]
        return rng.choices(self.sizes, weights=self.weights)[0]


def _coerce_mix(size: Union[int, SizeMix, Sequence[int]]) -> SizeMix:
    if isinstance(size, SizeMix):
        return size
    if isinstance(size, int):
        return SizeMix.fixed(size)
    return SizeMix(sizes=tuple(size))


class PendingRequest:
    """One in-flight logical request: attempts, timer, completion gate."""

    __slots__ = ("machine", "stream", "request", "target", "nbytes",
                 "gate", "start", "seq", "md_ids", "timer", "timeout_ps",
                 "attempt", "done")

    def __init__(self, machine, stream, request, target, nbytes,
                 gate, start, seq, timeout_ps):
        self.machine = machine
        self.stream = stream
        self.request = request
        self.target = target
        self.nbytes = nbytes
        self.gate = gate
        self.start = start
        self.seq = seq
        self.md_ids: list[int] = []
        self.timer = None
        self.timeout_ps = timeout_ps
        self.attempt = 0
        self.done = False


class DriverCore:
    """Shared request plumbing: acked puts with per-request latency."""

    def __init__(
        self,
        session,
        *,
        target: int,
        size: Union[int, SizeMix, Sequence[int]] = 64,
        match_bits: int = 0,
        pt_index: int = 0,
        seed: int = 1,
        metrics: Optional[Metrics] = None,
        stream: str = "load",
        make_request: Optional[Callable[[random.Random, int], dict]] = None,
        timeout_ns: Optional[float] = None,
        retries: int = 0,
        backoff: float = 2.0,
    ):
        if timeout_ns is not None and timeout_ns <= 0:
            raise ValueError("timeout_ns must be positive (or None)")
        if retries < 0:
            raise ValueError("retries cannot be negative")
        if retries and timeout_ns is None:
            raise ValueError("retries need a timeout_ns to trigger on")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1 (exponential growth)")
        self.session = session
        self.target = target
        self.size_mix = _coerce_mix(size)
        self.match_bits = match_bits
        self.pt_index = pt_index
        self.seed = seed
        self.metrics = metrics if metrics is not None else Metrics()
        self.stream = stream
        self._make_request = make_request
        self.timeout_ps = None if timeout_ns is None else round(timeout_ns * 1000.0)
        self.retries = retries
        self.backoff = backoff
        #: In-flight bookkeeping: request serial → record until the ACK
        #: lands (or the timer expires), reconciled by :meth:`finalize`
        #: after the sim drains.
        self._pending: dict[int, PendingRequest] = {}
        self._seq = 0

    def request_kwargs(self, rng: random.Random, index: int) -> dict:
        """The put for request ``index``; override via ``make_request``."""
        if self._make_request is not None:
            return self._make_request(rng, index)
        return {
            "target": self.target,
            "nbytes": self.size_mix.sample(rng),
            "match_bits": self.match_bits,
            "pt_index": self.pt_index,
        }

    def _tracked_put(self, machine, stream: str,
                     request: dict) -> Generator[object, object, Event]:
        """Post one acked put; returns a gate firing when the ACK lands.

        The latency clock starts when the request is issued (before the
        client core is acquired) and stops when the Portals ACK event
        reaches the initiator-side MD — one full offloaded round trip.
        With ``timeout_ns`` set the gate also fires at (final) timer
        expiry, the request recorded as a drop; with ``retries`` the
        timer retransmits first, backing off exponentially.
        """
        env = machine.env
        stats = self.metrics.stream(stream)
        # Copy before popping: a make_request hook may return a shared or
        # constant dict, and mutating it here would corrupt the caller's
        # request (every put after the first losing target/nbytes).
        request = dict(request)
        target = request.pop("target")
        nbytes = request.pop("nbytes")
        seq = self._seq
        self._seq = seq + 1
        if self.retries:
            # Sequence-tag the request so a dedup_channel target can
            # recognise retransmitted copies (at-least-once delivery).
            # Uniqueness spans this driver; co-targeting drivers must use
            # distinct seeds (as the scenarios do).
            request.setdefault(
                "hdr_data",
                ((self.seed & 0xFFFF) << 40) | ((machine.rank & 0xFF) << 32) | seq,
            )
        pend = PendingRequest(machine, stream, request, target, nbytes,
                              env.event(), env.now, seq, self.timeout_ps)
        stats.start()
        self._pending[seq] = pend
        yield from self._issue_attempt(pend)
        return pend.gate

    def _issue_attempt(self, pend: PendingRequest) -> Generator:
        """One transmission attempt: fresh MD/EQ, ACK callback, timer."""
        machine = pend.machine
        env = machine.env
        eq = EventQueue(capacity=4, name=f"drv[{machine.rank}]")
        md = machine.bind_md(MemoryDescriptor(event_queue=eq))
        pend.md_ids.append(md.md_id)
        eq.on_next(partial(self._on_ack, pend))
        if pend.timeout_ps is not None:
            pend.timer = env.schedule_callback(
                pend.timeout_ps, partial(self._expire, pend))
        yield from machine.host_put(pend.target, pend.nbytes, ack=True,
                                    md=md, **pend.request)

    def _on_ack(self, pend: PendingRequest, _event) -> None:
        """First ACK wins; late duplicates (other attempts) are no-ops."""
        if pend.done:
            return
        pend.done = True
        env = pend.machine.env
        if pend.timer is not None:
            pend.timer.cancel()
            pend.timer = None
        latency = env.now - pend.start
        self.metrics.stream(pend.stream).record(latency, pend.nbytes)
        self._retire(pend)
        log = self.metrics.completion_log
        if log is not None:
            log.append(env.now)
        windowed = self.metrics.windowed
        if windowed is not None:
            windowed.observe_completion(env.now, latency, pend.nbytes,
                                        stream=pend.stream)
        pend.gate.succeed(env.now)

    def _expire(self, pend: PendingRequest) -> None:
        """Per-request timer fired: retransmit, or record the drop."""
        if pend.done:
            return
        env = pend.machine.env
        stats = self.metrics.stream(pend.stream)
        stats.timeouts += 1
        if pend.attempt < self.retries:
            pend.attempt += 1
            stats.retransmits += 1
            pend.timeout_ps = round(pend.timeout_ps * self.backoff)
            env.process(self._issue_attempt(pend),
                        name=f"rexmit[{pend.stream}#{pend.seq}]")
            return
        pend.timer = None  # this timer has fired; nothing to cancel
        self._drop(pend)
        pend.gate.succeed(env.now)

    def _retire(self, pend: PendingRequest) -> None:
        mds = pend.machine.ni.mds
        for md_id in pend.md_ids:
            mds.pop(md_id, None)  # keep the MD table bounded
        self._pending.pop(pend.seq, None)

    def _drop(self, pend: PendingRequest) -> None:
        """Record ``pend`` as lost: stream drop, note, windowed sink."""
        pend.done = True
        if pend.timer is not None:
            pend.timer.cancel()
            pend.timer = None
        self._retire(pend)
        self.metrics.stream(pend.stream).drop()
        self.metrics.bump("lost_requests", 1)
        windowed = self.metrics.windowed
        if windowed is not None:
            windowed.observe_drop(pend.machine.env.now, stream=pend.stream)

    def finalize(self) -> int:
        """Reconcile requests whose ACK never arrived; call after draining.

        A message dropped at the target (no match, flow control) is never
        ACKed — like real Portals, the initiator sees nothing.  Once the
        DES has quiesced that silence is definitive, so every still-pending
        request is recorded as a drop, its MD is unbound, and (closed
        loop) its client is known to be permanently stalled.  Returns the
        number of lost requests.  With ``timeout_ns`` set the per-request
        timers already converted silence into drops *during* the run, so
        there is nothing left to reconcile here.
        """
        lost = 0
        for pend in list(self._pending.values()):
            if not pend.done:
                self._drop(pend)
                lost += 1
        self._pending.clear()
        return lost


class ScheduleDriver(DriverCore):
    """Open-loop load from ``source``: one put per scheduled arrival.

    ``schedule`` is an iterable of exact float-picosecond offsets from
    the start of the walk, walked lazily.  Arrival ``i`` sits at
    ``round(offset i)`` — each absolute offset is rounded once, never
    per gap, so non-integer gaps carry their fractional error and the
    schedule never drifts.  Each arrival draws its request from ``rng``
    (default ``random.Random(seed)``) and hands it to its own client
    process, independent of completions.  An offset that rounds below
    its predecessor raises :class:`ValueError`.
    """

    def __init__(self, session, *, source: int, schedule: Iterable[float],
                 rng: Optional[random.Random] = None, **kwargs):
        super().__init__(session, **kwargs)
        self.source = source
        self.schedule = schedule
        self.rng = rng if rng is not None else random.Random(self.seed)

    def start(self) -> Process:
        """Launch the arrival walk; returns it (fires when all posted)."""
        return self.session.process(self._arrivals(),
                                    name=f"arrivals[{self.stream}]")

    def _arrivals(self) -> Generator:
        env = self.session.env
        machine = self.session[self.source]
        elapsed = 0
        for index, exact in enumerate(self.schedule):
            when = round(exact)
            if when != elapsed:
                if when < elapsed:
                    raise ValueError(
                        f"arrival {index} at {when} ps precedes the previous "
                        f"arrival at {elapsed} ps (schedule must not decrease)")
                yield env.timeout(when - elapsed)
                elapsed = when
            request = self.request_kwargs(self.rng, index)
            env.process(self._one(machine, request),
                        name=f"{self.stream}[{index}]")

    def _one(self, machine, request: dict) -> Generator:
        yield from self._tracked_put(machine, self.stream, request)
        # The gate resolves on ACK; open-loop arrivals never wait for it.
