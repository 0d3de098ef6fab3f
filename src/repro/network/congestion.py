"""Congestion-aware packet fabric: routed links with per-port queues.

The LogGP :class:`~repro.network.fabric.Fabric` serializes packets at the
*source* wire and then teleports them across a fixed per-pair latency — a
contention-free pipe, faithful to the paper's full-bisection assumption but
blind to incast, shared-link interference, and routing collisions.  This
module models the network's interior:

* every packet follows an explicit routed path (:mod:`repro.network.routing`)
  — deterministic ECMP or d-mod-k over the fat tree, a crossbar with
  per-endpoint ingress/egress ports for latency-only topologies;
* each **directional link** on the path is a finite-bandwidth cut-through
  port: a packet's tail departs no earlier than it arrived and no earlier
  than one serialization time (``G × wire_bytes``) after the previous
  tail — the standard virtual-cut-through recurrence
  ``depart = max(arrival, prev_depart + tx)``.  A flow already paced to
  line rate by the source wire flows through untouched; merging flows
  (incast, ECMP collisions) serialize and queue;
* each link buffers at most ``NetworkParams.link_queue_depth`` waiting
  packets (departures still pending) — arrivals beyond that are
  **tail-dropped** with per-link accounting (drops, occupancy high-water
  mark, queueing delay).

Uncontended, the model reduces *exactly* to LogGP for any single-flow
workload — mixed message sizes included: the source wire already spaces
tails by at least their own serialization time, so ``prev_depart + tx``
never exceeds the arrival time and every hop adds only the same
wire/switch latency the topology charges.  The property tests pin this
equivalence down byte-for-byte against the base fabric.

The walk
--------
Like the base fabric's :class:`~repro.network.fabric._TxChain`, the hop
walk is a callback chain.  The admission arithmetic (drop check,
departure-time computation, accounting) runs synchronously at hop entry,
so FIFO order, drop decisions and statistics are fixed the moment a
packet arrives; only the departure is a scheduled callback.  The
golden-trace and contention-pin tests hold its output byte-for-byte.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Optional

from repro.des.engine import Environment
from repro.des.trace import Timeline
from repro.network.fabric import Fabric
from repro.network.loggp import NetworkParams
from repro.network.packets import Message, Packet
from repro.network.routing import crossbar_path, fattree_path
from repro.network.topology import FatTree

__all__ = ["CongestionFabric", "Link"]


def _node_name(node: tuple) -> str:
    """Compact printable name for a routing-graph node tuple."""
    return node[0] + ".".join(str(part) for part in node[1:])


class Link:
    """One directional cut-through link port with a finite buffer.

    State is a virtual clock (``last_depart``) plus the deque of still
    pending departure times — the packets currently buffered.  Service
    order is arrival order (FIFO): the departure recurrence is monotone,
    so tails leave in the order they arrived.
    """

    __slots__ = ("name", "last_depart", "_departs", "packets", "drops",
                 "wait_ps", "max_queue", "busy_ps", "down", "tx_scale",
                 "fault_drops")

    def __init__(self, name: str):
        self.name = name
        self.last_depart = 0    # departure-time floor (virtual clock)
        self._departs: deque[int] = deque()  # pending departure times
        self.packets = 0        # packets carried
        self.drops = 0          # tail-dropped at entry (buffer full)
        self.wait_ps = 0        # total queueing delay experienced
        self.max_queue = 0      # high-water mark of buffered packets
        self.busy_ps = 0        # total serialization time carried
        # Fault-injection state (see repro.faults): refcount of active
        # outage windows and the product of active bandwidth-degradation
        # scales.  Both neutral by default — admit() behaves identically
        # to the pre-fault model until a plan flips them.
        self.down = 0           # >0: outage — every arrival is dropped
        self.tx_scale = 1       # serialization-time multiplier
        self.fault_drops = 0    # drops attributable to outage windows

    def backlog(self, now: int) -> int:
        """Packets still buffered (departure strictly in the future)."""
        departs = self._departs
        while departs and departs[0] <= now:
            departs.popleft()
        return len(departs)

    def admit(self, now: int, tx: int, depth: int) -> int:
        """Try to accept a packet whose tail arrived ``now``.

        Returns the queueing delay in ps (0 for a conforming flow), or -1
        when the buffer already holds ``depth`` packets (tail-drop).  All
        accounting happens here, synchronously — the single decision
        point of the walk.
        """
        if self.down:
            self.drops += 1
            self.fault_drops += 1
            return -1
        backlog = self.backlog(now)
        if backlog >= depth:
            self.drops += 1
            return -1
        if self.tx_scale != 1:
            tx *= self.tx_scale
        depart = self.last_depart + tx
        if depart < now:
            depart = now
        wait = depart - now
        if wait:
            self.wait_ps += wait
            occupancy = backlog + 1  # the packets it waits behind, plus itself
            if occupancy > self.max_queue:
                self.max_queue = occupancy
        self.last_depart = depart
        self._departs.append(depart)
        self.packets += 1
        self.busy_ps += tx
        return wait

    def utilization(self, elapsed_ps: int) -> float:
        """Fraction of ``elapsed_ps`` this link spent serializing."""
        if elapsed_ps <= 0:
            return 0.0
        return self.busy_ps / elapsed_ps

    def stats(self, elapsed_ps: int) -> dict:
        """JSON-ready accounting snapshot for this link."""
        return {
            "packets": self.packets,
            "drops": self.drops,
            "max_queue": self.max_queue,
            "wait_ns": self.wait_ps / 1000.0,
            "busy_ns": self.busy_ps / 1000.0,
            "utilization": round(self.utilization(elapsed_ps), 4),
        }


class CongestionFabric(Fabric):
    """A fabric whose interior links can actually fill.

    Drop-in alternative to :class:`Fabric` (same attach/inject surface,
    same source-side LogGOPS injection pipeline); selected through
    ``ClusterSpec(fabric="congestion")``.  Knobs live on
    :class:`~repro.network.loggp.NetworkParams`: ``link_queue_depth``
    (packets buffered per port) and ``routing`` (``"ecmp"``/``"dmodk"``).
    """

    #: Observer probe slot (see :mod:`repro.obs`): an attached observer
    #: sets an *instance* attribute ``(link, now_ps, wait_ps, pkt) ->
    #: None`` called synchronously after every link admission decision
    #: (``wait_ps < 0`` means the packet was tail-dropped).  The probe
    #: only reads, so an observed walk schedules the same events; the
    #: class-level ``None`` keeps the default path to one identity test.
    _link_probe = None

    def __init__(
        self,
        env: Environment,
        topology,
        params: Optional[NetworkParams] = None,
        timeline: Optional[Timeline] = None,
    ):
        super().__init__(env, topology, params, timeline=timeline)
        #: Directional links, created lazily: (src_node, dst_node) → Link.
        self.links: dict[tuple, Link] = {}
        #: Packets tail-dropped at a full link buffer (sum of link drops).
        self.packets_dropped_links = 0
        self._G = self.params.loggp.G_ps_per_byte
        self._depth = self.params.link_queue_depth
        self._routing = self.params.routing
        self._fattree = isinstance(topology, FatTree)
        #: In-flight route cache: msg_id → route; dropped with the message's
        #: last packet (packets of one message always dispatch in order).
        self._routes: dict[int, tuple] = {}
        #: Active fault state per link-name pattern, folded into links at
        #: creation time (links are lazy — a flap can precede first use).
        self._link_faults: dict[str, list] = {}  # pattern → [down, tx_scale]
        #: Link-outage windows applied so far (one per LinkDown firing).
        self.fault_link_down_events = 0

    # -- routing -----------------------------------------------------------
    def _link(self, u: tuple, v: tuple) -> Link:
        key = (u, v)
        link = self.links.get(key)
        if link is None:
            link = self.links[key] = Link(f"{_node_name(u)}->{_node_name(v)}")
            if self._link_faults:
                # Fold currently active fault windows into the new link:
                # lazy creation must not let a packet slip through an
                # outage just because it is the first to route this way.
                for pattern, (down, tx_scale) in self._link_faults.items():
                    if pattern in link.name:
                        link.down += down
                        link.tx_scale *= tx_scale
        return link

    # -- fault injection (repro.faults) ------------------------------------
    def fault_link_down(self, pattern: str, on: bool) -> int:
        """Enter (``on=True``) or leave an outage on links matching
        ``pattern`` (substring of the ``"src->dst"`` link name).  Windows
        refcount, so overlapping outages compose.  Returns the number of
        existing links affected (new links inherit the state lazily).
        """
        state = self._link_faults.setdefault(pattern, [0, 1])
        delta = 1 if on else -1
        state[0] += delta
        if on:
            self.fault_link_down_events += 1
        matched = 0
        for link in self.links.values():
            if pattern in link.name:
                link.down += delta
                matched += 1
        self._prune_fault(pattern, state)
        return matched

    def fault_link_degrade(self, pattern: str, tx_scale: int,
                           undo: int = 1) -> int:
        """Scale serialization time on matching links by ``tx_scale``
        (and divide out ``undo`` — the window-exit call passes its entry
        scale).  Scales compose multiplicatively across windows.
        """
        state = self._link_faults.setdefault(pattern, [0, 1])
        state[1] = state[1] * tx_scale // undo
        matched = 0
        for link in self.links.values():
            if pattern in link.name:
                link.tx_scale = link.tx_scale * tx_scale // undo
                matched += 1
        self._prune_fault(pattern, state)
        return matched

    def _prune_fault(self, pattern: str, state: list) -> None:
        if state[0] == 0 and state[1] == 1:
            del self._link_faults[pattern]

    def links_down(self) -> int:
        """Links currently inside an outage window."""
        return sum(1 for link in self.links.values() if link.down)

    def total_fault_link_drops(self) -> int:
        """Packets dropped by link-outage windows (subset of link drops)."""
        return sum(link.fault_drops for link in self.links.values())

    def _build_route(self, msg: Message) -> tuple:
        """The (link, head_delay_ps) sequence for one message.

        Per-hop head delays sum to exactly ``topology.latency_ps(src, dst)``
        — each wire costs ``wire_delay_ps`` and entering a switch costs
        ``switch_delay_ps`` on the fat tree; latency-only topologies charge
        their full pair latency on the egress hop.
        """
        src, dst = msg.source, msg.target
        if self._fattree:
            nodes = fattree_path(self.topology, src, dst, msg.msg_id,
                                 self._routing)
            wire = self.params.wire_delay_ps
            switch = self.params.switch_delay_ps
            return tuple(
                (self._link(nodes[i], nodes[i + 1]),
                 wire + (switch if nodes[i + 1][0] != "host" else 0))
                for i in range(len(nodes) - 1)
            )
        nodes = crossbar_path(src, dst)
        if not nodes:
            return ()
        return (
            (self._link(nodes[0], nodes[1]), self.topology.latency_ps(src, dst)),
            (self._link(nodes[1], nodes[2]), 0),
        )

    def _route_for(self, pkt: Packet) -> tuple:
        msg = pkt.message
        route = self._routes.get(msg.msg_id)
        if route is None:
            route = self._routes[msg.msg_id] = self._build_route(msg)
        if pkt.payload_offset + pkt.payload_len >= msg.length:
            del self._routes[msg.msg_id]  # last packet: route no longer needed
        return route

    # -- the per-link walk -------------------------------------------------
    def _dispatch(self, pkt: Packet, latency: int) -> None:
        route = self._route_for(pkt)
        if not route:  # loopback: same zero-latency delivery as LogGP
            self.env.schedule_fn(latency, partial(self._deliver, pkt))
            return
        self._enter(pkt, route, 0)

    def _enter(self, pkt: Packet, route: tuple, hop: int) -> None:
        """Packet tail reaches hop ``hop``: admit (or tail-drop), then wait
        out the queueing delay and forward the head."""
        link, _delay = route[hop]
        env = self.env
        wait = link.admit(env._now, pkt.wire_bytes * self._G, self._depth)
        if self._link_probe is not None:
            self._link_probe(link, env._now, wait, pkt)
        if wait < 0:
            self.packets_dropped_links += 1
            return
        env.schedule_fn(wait, partial(self._departed, pkt, route, hop))

    def _departed(self, pkt: Packet, route: tuple, hop: int) -> None:
        """Tail left hop ``hop``: propagate the head onward."""
        link, delay = route[hop]
        nxt = hop + 1
        if nxt == len(route):
            self.env.schedule_fn(delay, partial(self._deliver, pkt))
        else:
            self.env.schedule_fn(delay, partial(self._enter, pkt, route, nxt))

    # -- introspection -----------------------------------------------------
    def link_stats(self, elapsed_ps: Optional[int] = None) -> dict[str, dict]:
        """Per-link accounting, keyed by ``"srcnode->dstnode"`` name."""
        elapsed = self.env.now if elapsed_ps is None else elapsed_ps
        return {
            link.name: link.stats(elapsed)
            for _key, link in sorted(self.links.items())
        }

    def total_link_drops(self) -> int:
        return self.packets_dropped_links

    def max_link_queue(self) -> int:
        """Deepest buffer occupancy observed on any link (packets)."""
        return max((l.max_queue for l in self.links.values()), default=0)

    def max_link_utilization(self, elapsed_ps: Optional[int] = None) -> float:
        elapsed = self.env.now if elapsed_ps is None else elapsed_ps
        return max((l.utilization(elapsed) for l in self.links.values()),
                   default=0.0)
