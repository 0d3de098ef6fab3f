"""Packet-level message transport between NICs.

The fabric models the LogGOPS injection pipeline at each source NIC plus the
topology-derived wire latency:

* message starts at one NIC are spaced by ``g`` (message-rate limit);
* each packet serializes onto the wire for ``G × bytes``;
* each packet arrives at the destination ``L(src, dst)`` after it finished
  serializing, where L comes from the fat tree (switch + wire delays).

The fabric performs no congestion modelling inside the switches — the paper
assumes a full-bisection fat tree and LogGP likewise concentrates contention
at the endpoints.  Receiver-side costs (matching, DMA, handlers) belong to
the NIC models, not the fabric.

TX pipeline
-----------
Simulating millions of per-packet events makes TX serialization the kernel's
hottest pipeline, so each message is transmitted by a callback-driven chain
(:class:`_TxChain`) rather than a generator process.  Packets still queue on
a real FIFO ``Server`` per source wire, so any number of concurrent messages
at one NIC interleave packet-by-packet in request order.  The chain avoids
the per-packet generator resumption and Event/Timeout allocation.  The
golden-trace tests pin its output (``Timeline.canonical_bytes()`` and
arrival order, ties included).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.des.engine import Environment, Event
from repro.des.resources import RateLimiter, Server
from repro.des.trace import Timeline
from repro.network.loggp import NetworkParams
from repro.network.packets import Message, Packet, packetize

__all__ = ["Fabric"]


class _TxChain:
    """Callback-driven TX pipeline for one message.

    Stage chain: ``_start`` (claim the ``g`` slot) → per packet, from the
    slot time on: ``_request`` (join the wire FIFO) → ``_granted`` →
    ``_serve_done`` (serialization finished) → delivery callback; the
    last packet's boundary triggers the done event.
    """

    __slots__ = ("fabric", "message", "packets", "idx", "latency", "src",
                 "req", "done", "wire", "loggp", "pkt_start", "cur_dur")

    def __init__(self, fabric: "Fabric", message: Message):
        self.fabric = fabric
        self.message = message
        self.loggp = fabric.params.loggp
        self.packets = packetize(message, self.loggp.mtu)
        self.idx = 0
        self.latency = 0
        self.src = message.source
        self.req = None
        self.done = Event(fabric.env)
        self.wire = fabric._wire[message.source]
        self.pkt_start = 0
        self.cur_dur = 0

    def _start(self) -> None:
        """At inject time: claim the g slot."""
        fabric = self.fabric
        env = fabric.env
        fabric.messages_injected += 1
        grant_at = fabric._msg_limiter[self.src].claim()
        self.latency = fabric.topology.latency_ps(self.src, self.message.target)
        env.schedule_fn(grant_at - env._now, self._request)

    def _request(self) -> None:
        """Issue the wire request for packet ``idx`` (span includes wait)."""
        self.pkt_start = self.fabric.env._now
        self.cur_dur = self.loggp.serialization_ps(self.packets[self.idx].wire_bytes)
        self.req = req = self.wire.request()
        if req.callbacks is None:
            self._granted(req)
        else:
            req.callbacks.append(self._granted)

    def _granted(self, _event: Event) -> None:
        self.fabric.env.schedule_fn(self.cur_dur, self._serve_done)

    def _serve_done(self) -> None:
        """One packet finished serializing."""
        fabric = self.fabric
        env = fabric.env
        now = env._now
        wire = self.wire
        idx = self.idx
        pkt = self.packets[idx]
        # Accounting before release, span/delivery after, next request last
        # — the order Server.serve uses, so queued contenders are granted
        # at the same positions as any other Server client.
        wire.busy_time += self.cur_dur
        wire.jobs_served += 1
        wire.release(self.req)
        self.req = None
        timeline = fabric.timeline
        if timeline.enabled:
            timeline.record(
                self.src, "NIC-tx", self.pkt_start, now,
                f"m{self.message.msg_id}p{pkt.seq}",
            )
        fabric._dispatch(pkt, self.latency)
        self.idx = idx = idx + 1
        if idx == len(self.packets):
            self.done.succeed(now)
        else:
            self._request()


class Fabric:
    """Connects attached NICs; delivers packets with LogGP timing.

    The cluster owns the fabric, and the fabric holds each attached
    receive callback (a bound ``nic.on_packet``) strongly.  A NIC reaches
    the fabric back only through a weak reference, so the fabric and the
    NICs form no reference cycle.
    """

    def __init__(
        self,
        env: Environment,
        topology,
        params: Optional[NetworkParams] = None,
        timeline: Optional[Timeline] = None,
    ):
        self.env = env
        self.topology = topology
        self.params = params or NetworkParams()
        self.timeline = timeline or Timeline(enabled=False)
        self._rx: dict[int, Callable[[Packet], None]] = {}
        self._msg_limiter: dict[int, RateLimiter] = {}
        self._wire: dict[int, Server] = {}
        self.packets_delivered = 0
        self.messages_injected = 0
        #: Packets that reached a destination with no attached rx entry
        #: point (the node was detached mid-flight, e.g. failure injection).
        self.packets_dropped = 0
        #: Fault-injection accounting (see :mod:`repro.faults`): packets a
        #: plan dropped at dispatch, packets that traversed but failed the
        #: receiver CRC, and messages a crashed node tried to send.
        self.fault_packets_lost = 0
        self.fault_packets_corrupted = 0
        self.messages_from_dead = 0
        #: Crashed sources (see :meth:`mark_dead`): their sends vanish
        #: instead of raising "not attached".
        self._dead_sources: set[int] = set()

    # -- attachment ----------------------------------------------------------
    def attach(self, nid: int, rx_callback: Callable[[Packet], None]) -> None:
        """Register node ``nid``'s receive entry point."""
        if nid in self._rx:
            raise ValueError(f"node {nid} already attached")
        self._rx[nid] = rx_callback
        self._msg_limiter[nid] = RateLimiter(self.env, self.params.loggp.g_ps)
        self._wire[nid] = Server(self.env, name=f"wire[{nid}]")

    def detach(self, nid: int) -> None:
        """Remove a node (used by failure injection).

        Drops *all* of the node's fabric state — rx entry point, message
        rate limiter, wire server — so repeated attach/detach cycles cannot
        leak resources.
        """
        self._rx.pop(nid, None)
        self._msg_limiter.pop(nid, None)
        self._wire.pop(nid, None)

    def mark_dead(self, nid: int) -> None:
        """Mark a (detached) node fail-stopped: its own sends vanish.

        A crashed node's HPUs may still be mid-handler when the crash
        lands; without this, their forwarding puts would raise "source
        not attached" instead of silently disappearing the way a dead
        NIC's traffic does.
        """
        self._dead_sources.add(nid)

    # -- transmission ----------------------------------------------------------
    def inject(self, message: Message) -> Event:
        """Hand a message to the source NIC's TX pipeline.

        Returns an event that fires when the *last packet has finished
        serializing at the source* (i.e. the TX side is free again).  The
        receive side learns about the message through its rx callback,
        packet by packet.
        """
        src = message.source
        if src not in self._msg_limiter:
            if src in self._dead_sources:
                # A crashed node "sending": nothing serializes, nothing
                # arrives.  The returned event still fires so any caller
                # mid-generator (a handler that crashed under it) unwinds.
                self.messages_from_dead += 1
                done = Event(self.env)
                done.succeed(self.env._now)
                return done
            raise ValueError(f"source node {src} not attached")
        chain = _TxChain(self, message)
        # Start synchronously: g-slot claims happen in inject order.
        chain._start()
        return chain.done

    def _dispatch(self, pkt: Packet, latency: int) -> None:
        """Forward one serialized packet toward its destination.

        The LogGP model teleports it across the topology latency; the
        congestion fabric overrides this with a routed per-link walk.
        """
        self.env.schedule_fn(latency, partial(self._deliver, pkt))

    def _deliver(self, pkt: Packet) -> None:
        rx = self._rx.get(pkt.message.target)
        if rx is None:
            self.packets_dropped += 1
            return  # destination detached (failed node): packet lost
        self.packets_delivered += 1
        rx(pkt)

    # -- introspection ---------------------------------------------------------
    def attached_nics(self) -> list:
        """The NIC objects behind the attached rx callbacks.

        Attachment registers a bound ``nic.on_packet``; anything else
        (test fixtures attach bare functions) is skipped.  This is how
        fabric-level accounting reaches receiver-side counters such as
        ``rx_stalled_messages``.
        """
        nics = []
        for callback in self._rx.values():
            owner = getattr(callback, "__self__", None)
            if owner is not None and hasattr(owner, "rx_stalled_messages"):
                nics.append(owner)
        return nics

    def rx_stalled_messages(self) -> int:
        """Receiver messages stalled forever by in-network payload loss."""
        return sum(nic.rx_stalled_messages for nic in self.attached_nics())

    def rx_orphan_packets(self) -> int:
        """Payload packets that arrived after their header was lost."""
        return sum(nic.rx_orphan_packets for nic in self.attached_nics())

    def wire_stats(self, elapsed_ps: Optional[int] = None) -> dict[str, dict]:
        """Per-node egress-wire accounting, keyed by ``"wire[nid]"``.

        The LogGP pipe has no interior links; its only contention points
        are the per-node injection wires.  The schema mirrors the subset
        of :meth:`~repro.network.congestion.Link.stats` that is
        meaningful here (no queueing or drops on a contention-free pipe),
        so telemetry reports keep one link-table shape across fabric
        flavours.
        """
        elapsed = self.env.now if elapsed_ps is None else elapsed_ps
        out = {}
        for nid in sorted(self._wire):
            wire = self._wire[nid]
            out[f"wire[{nid}]"] = {
                "packets": wire.jobs_served,
                "drops": 0,
                "max_queue": 0,
                "wait_ns": 0.0,
                "busy_ns": wire.busy_time / 1000.0,
                "utilization": round(wire.busy_time / elapsed, 4)
                if elapsed else 0.0,
            }
        return out

    def latency_ps(self, a: int, b: int) -> int:
        return self.topology.latency_ps(a, b)
