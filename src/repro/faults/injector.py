"""Arms a :class:`~repro.faults.plan.FaultPlan` against a live session.

The injector is the only piece of the fault subsystem that touches a
simulation, and it does so exclusively through narrow hooks the normal
path already pays for (or pays nothing for):

* **packet loss / corruption** — wraps the fabric instance's
  ``_dispatch`` / ``_deliver`` attributes; with no plan the class methods
  run unwrapped, so the default path is bit-for-bit untouched;
* **link down / degraded bandwidth** — flips per-:class:`Link` fault
  fields through :meth:`CongestionFabric.fault_link_down` /
  :meth:`fault_link_degrade` at scheduled times;
* **node crash** — :meth:`Cluster.crash`: fabric detach + dead-source
  marking + stalled-RX reap;
* **handler failure** — installs the NIC's ``_handler_fault`` hook,
  consulted (one ``is not None`` test) per handler invocation.

All randomness comes from ``random.Random(plan.seed)`` owned here; draws
occur in kernel-event order, so identical plans replay identically.
"""

from __future__ import annotations

import random
from typing import Optional
from weakref import ref

from repro.core.handlers import ReturnCode
from repro.faults.plan import (
    FaultPlan,
    HandlerFault,
    LinkDegrade,
    LinkDown,
    NodeCrash,
    PacketCorrupt,
    PacketLoss,
    _ps,
)

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules one plan's faults on one session; owns the fault RNG."""

    def __init__(self, session, plan: FaultPlan):
        self.session = session
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.cluster = session.cluster
        self.fabric = self.cluster.fabric
        self.env = session.env
        #: Ranks crashed so far, in crash order.
        self.crashed: list[int] = []
        #: Stalled receive states reaped at crash time, keyed by rank.
        self.crash_reaped: dict[int, int] = {}
        #: Handler invocations whose return code this plan replaced, in a
        #: cell the NIC hooks share (see :meth:`_make_handler_hook`).
        self._handler_hits = [0]
        #: In-flight corrupted packets: id(pkt) → pkt (identity-checked at
        #: delivery; keeping the object alive pins the id).
        self._corrupted: dict[int, object] = {}
        self._arm()

    # -- introspection ------------------------------------------------------
    @property
    def handler_faults_injected(self) -> int:
        """Handler invocations whose return code this plan replaced."""
        return self._handler_hits[0]

    @property
    def last_link_clear_ps(self) -> Optional[int]:
        """When the final link-outage window ends (recovery-time anchor)."""
        downs = self.plan.of_type(LinkDown)
        if not downs:
            return None
        return max(_ps(f.at_ns + f.duration_ns) for f in downs)

    def summary(self) -> dict:
        """JSON-ready fault accounting for scenario results."""
        out = {
            "crashes": len(self.crashed),
            "handler_faults": self.handler_faults_injected,
            "fault_packets_lost": self.fabric.fault_packets_lost,
            "fault_packets_corrupted": self.fabric.fault_packets_corrupted,
        }
        if hasattr(self.fabric, "fault_link_down_events"):
            out["link_down_events"] = self.fabric.fault_link_down_events
        return out

    # -- arming -------------------------------------------------------------
    def _at(self, at_ps: int, fn) -> None:
        delay = at_ps - self.env._now
        self.env.schedule_fn(delay if delay > 0 else 0, fn)

    def _arm(self) -> None:
        plan = self.plan
        nodes = len(self.cluster)
        for fault in plan.of_type(NodeCrash, HandlerFault):
            if fault.rank >= nodes:
                raise ValueError(
                    f"{fault!r} names rank {fault.rank}, but the cluster "
                    f"has {nodes} nodes"
                )
        link_faults = plan.of_type(LinkDown, LinkDegrade)
        if link_faults and not hasattr(self.fabric, "fault_link_down"):
            raise ValueError(
                "link faults need the congestion fabric "
                "(ClusterSpec(fabric='congestion'))"
            )
        for fault in link_faults:
            self._arm_link(fault)
        for fault in plan.of_type(NodeCrash):
            self._at(_ps(fault.at_ns), lambda rank=fault.rank: self._crash(rank))
        packet_faults = plan.of_type(PacketLoss, PacketCorrupt)
        if packet_faults:
            self._arm_packet_faults(packet_faults)
        handler_faults = plan.of_type(HandlerFault)
        if handler_faults:
            self._arm_handler_faults(handler_faults)

    def _arm_link(self, fault) -> None:
        fabric = self.fabric
        start, stop = _ps(fault.at_ns), _ps(fault.at_ns + fault.duration_ns)
        if isinstance(fault, LinkDown):
            self._at(start, lambda p=fault.pattern: fabric.fault_link_down(p, True))
            self._at(stop, lambda p=fault.pattern: fabric.fault_link_down(p, False))
        else:
            scale = fault.tx_scale
            self._at(start, lambda p=fault.pattern:
                     fabric.fault_link_degrade(p, scale))
            self._at(stop, lambda p=fault.pattern:
                     fabric.fault_link_degrade(p, 1, undo=scale))

    def _crash(self, rank: int) -> None:
        if rank in self.crashed:
            return
        reaped = self.cluster.crash(rank)
        self.crashed.append(rank)
        self.crash_reaped[rank] = reaped

    def _arm_packet_faults(self, faults) -> None:
        fabric = self.fabric
        env = self.env
        rng = self.rng
        corrupted = self._corrupted
        windows = tuple(
            (_ps(f.start_ns),
             None if f.stop_ns is None else _ps(f.stop_ns),
             f.probability,
             isinstance(f, PacketCorrupt))
            for f in faults
        )
        # Wrap the *instance* attributes: the class methods stay pristine,
        # so un-faulted fabrics (and the golden traces) never see this code.
        # The wrappers live on the fabric, so they reach it through a weak
        # reference and call its class methods: a closure over the fabric
        # or its bound methods would form a reference cycle.
        fabric_ref = ref(fabric)
        fabric_cls = type(fabric)

        def dispatch(pkt, latency) -> None:
            fabric = fabric_ref()
            now = env._now
            for start, stop, p, corrupt in windows:
                if now >= start and (stop is None or now < stop):
                    if rng.random() < p:
                        if corrupt:
                            # Corrupted packets still traverse (and
                            # congest) the fabric; the receiver's CRC
                            # discards them on arrival.
                            corrupted[id(pkt)] = pkt
                            break
                        fabric.fault_packets_lost += 1
                        return
            fabric_cls._dispatch(fabric, pkt, latency)

        def deliver(pkt) -> None:
            fabric = fabric_ref()
            if corrupted and corrupted.get(id(pkt)) is pkt:
                del corrupted[id(pkt)]
                fabric.fault_packets_corrupted += 1
                return
            fabric_cls._deliver(fabric, pkt)

        fabric._dispatch = dispatch
        fabric._deliver = deliver

        # A corrupted packet the congestion fabric tail-drops (or drops in
        # an outage window) never reaches _deliver; purge its mark at the
        # drop site, or the id-keyed dict grows for the rest of the run
        # (and pins the packet alive, inviting id reuse).  The loggp
        # fabric has no _enter and never drops.
        if hasattr(fabric_cls, "_enter"):

            def enter(pkt, route, hop) -> None:
                fabric = fabric_ref()
                before = fabric.packets_dropped_links
                fabric_cls._enter(fabric, pkt, route, hop)
                if (fabric.packets_dropped_links != before and corrupted
                        and corrupted.get(id(pkt)) is pkt):
                    del corrupted[id(pkt)]

            fabric._enter = enter

    def _arm_handler_faults(self, faults) -> None:
        by_rank: dict[int, list] = {}
        for f in faults:
            by_rank.setdefault(f.rank, []).append((
                _ps(f.start_ns),
                None if f.stop_ns is None else _ps(f.stop_ns),
                f.probability,
                ReturnCode.SEGV if f.segv else ReturnCode.FAIL,
            ))
        for rank, specs in by_rank.items():
            self.cluster[rank].nic._handler_fault = self._make_handler_hook(
                tuple(specs))

    def _make_handler_hook(self, specs):
        # The hook lives on a NIC of this injector's cluster, so it counts
        # into a shared cell instead of closing over the injector.
        env = self.env
        rng = self.rng
        hits = self._handler_hits

        def hook(label: str, code: ReturnCode) -> ReturnCode:
            now = env._now
            for start, stop, p, fault_code in specs:
                if now >= start and (stop is None or now < stop):
                    if p >= 1.0 or rng.random() < p:
                        hits[0] += 1
                        return fault_code
            return code

        return hook
