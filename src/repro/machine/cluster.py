"""Machine and cluster assembly.

A :class:`Machine` wires together one rank's host memory, CPU, memory port,
DMA engine, Portals NI, and NIC model.  A :class:`Cluster` builds N machines
on a shared fat-tree fabric — the complete simulated system of §4.2.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.nic import SpinNIC
from repro.des.engine import Environment, Event
from repro.des.resources import Server
from repro.des.trace import Timeline
from repro.machine.config import MachineConfig, discrete_config
from repro.machine.dma import DMAEngine
from repro.machine.host import HostCPU, HostMemory
from repro.network.congestion import CongestionFabric
from repro.network.fabric import Fabric
from repro.network.packets import Message, reset_msg_ids
from repro.network.topology import FatTree
from repro.portals.counters import Counter
from repro.portals.events import EventQueue, PortalsEvent
from repro.portals.limits import NILimits
from repro.portals.matching import MatchEntry
from repro.portals.ni import MemoryDescriptor, NetworkInterface

__all__ = ["Cluster", "FABRIC_FLAVOURS", "Machine"]

#: Fabric model registry: flavour name → fabric class.  ``"loggp"`` is the
#: contention-free pipe the paper assumes (full bisection, endpoint-only
#: contention); ``"congestion"`` adds routed paths and per-link queues.
FABRIC_FLAVOURS = {
    "loggp": Fabric,
    "congestion": CongestionFabric,
}


#: Shared NILimits instances keyed by MTU — frozen dataclass, so every
#: Machine with the same MTU can use the same object instead of re-running
#: the dataclass machinery per rank.
_LIMITS_BY_MTU: dict[int, NILimits] = {}


def _limits_for_mtu(mtu: int) -> NILimits:
    limits = _LIMITS_BY_MTU.get(mtu)
    if limits is None:
        limits = _LIMITS_BY_MTU[mtu] = NILimits(max_payload_size=mtu)
    return limits


class Machine:
    """One simulated endpoint: host + NIC + DMA + Portals NI.

    Ownership runs one way: the cluster owns its machines and the fabric,
    and a machine owns its memory, CPU, DMA engine, NI and NIC.  A child
    keeps no strong reference to its owner (``nic.machine`` is a weak
    reference), so a finished simulation has no reference cycle and is
    freed by reference count as soon as nothing references its cluster.
    """

    def __init__(
        self,
        env: Environment,
        rank: int,
        config: MachineConfig,
        fabric: Fabric,
        timeline: Optional[Timeline] = None,
        with_memory: bool = True,
    ):
        self.env = env
        self.rank = rank
        self.config = config
        self.fabric = fabric
        self.timeline = timeline or Timeline(enabled=False)
        self.memory: Optional[HostMemory] = (
            HostMemory(config.host_memory_bytes) if with_memory else None
        )
        self.mem_port = Server(env, name=f"mem[{rank}]")
        self.cpu = HostCPU(
            env, config.host, self.mem_port, rank=rank, timeline=self.timeline
        )
        limits = _limits_for_mtu(config.loggp.mtu)
        self.ni = NetworkInterface(rank, limits=limits, memory=self.memory)
        self.dma = DMAEngine(
            env,
            config.nic,
            self.mem_port,
            memory=self.memory,
            rank=rank,
            timeline=self.timeline,
            mem_G_ps_per_byte=config.host.mem_G_ps_per_byte,
        )
        self.nic = SpinNIC(env, self)
        fabric.attach(rank, self.nic.on_packet)

    # -- Portals conveniences --------------------------------------------------
    def new_eq(self, capacity: int = 1 << 16) -> EventQueue:
        return EventQueue(capacity=capacity, name=f"eq[{self.rank}]")

    def new_counter(self, name: str = "") -> Counter:
        return Counter(name=name or f"ct[{self.rank}]")

    def post_me(self, pt_index: int, entry: MatchEntry, overflow: bool = False) -> MatchEntry:
        if pt_index not in self.ni.portal_table:
            self.ni.pt_alloc(pt_index)
        return self.ni.me_append(pt_index, entry, overflow=overflow)

    def bind_md(self, md: MemoryDescriptor) -> MemoryDescriptor:
        return self.ni.md_bind(md)

    # -- host-initiated operations (charge o on a core) ----------------------
    def _put_message(self, target: int, nbytes: int, match_bits: int,
                     pt_index: int = 0, payload=None, offset: int = 0,
                     hdr_data: int = 0, user_hdr: Any = None, ack: bool = False,
                     md: Optional[MemoryDescriptor] = None) -> Message:
        return Message(
            source=self.rank,
            target=target,
            length=nbytes,
            kind="put",
            match_bits=match_bits,
            offset=offset,
            hdr_data=hdr_data,
            user_hdr=user_hdr,
            payload=payload,
            meta={
                "pt_index": pt_index,
                "ack": ack,
                "md_id": md.md_id if md else -1,
            },
        )

    def host_put(
        self,
        target: int,
        nbytes: int,
        match_bits: int = 0,
        pt_index: int = 0,
        payload=None,
        offset: int = 0,
        hdr_data: int = 0,
        user_hdr: Any = None,
        ack: bool = False,
        md: Optional[MemoryDescriptor] = None,
    ) -> Generator[object, object, Event]:
        """PtlPut from this host; returns the injection-done event."""
        yield from self.cpu.run(self.config.loggp.o_ps, "post")
        return self.nic.send(self._put_message(
            target, nbytes, match_bits, pt_index, payload, offset, hdr_data,
            user_hdr, ack, md))

    def host_put_fn(self, target: int, nbytes: int, k: Any,
                    match_bits: int = 0) -> None:
        """Chain flavour of :meth:`host_put`: ``k(done)`` gets the
        injection-done event once the post overhead has been charged.

        Same kernel events at the same positions as the generator (the
        ``o`` charge on a core, then the NIC send), minus the process
        scaffolding; see :meth:`HostCPU.run_fn`.
        """
        self.cpu.run_fn(
            self.config.loggp.o_ps, "post",
            lambda: k(self.nic.send(self._put_message(target, nbytes,
                                                      match_bits))))

    def host_get(
        self,
        target: int,
        nbytes: int,
        match_bits: int = 0,
        pt_index: int = 0,
        get_offset: int = 0,
        reply_offset: int = 0,
        md: Optional[MemoryDescriptor] = None,
    ) -> Generator[object, object, Event]:
        """PtlGet from this host; the reply lands in ``md``."""
        yield from self.cpu.run(self.config.loggp.o_ps, "post")
        msg = Message(
            source=self.rank,
            target=target,
            length=0,
            kind="get",
            match_bits=match_bits,
            meta={
                "pt_index": pt_index,
                "get_length": nbytes,
                "get_offset": get_offset,
                "reply_offset": reply_offset,
                "md_id": md.md_id if md else -1,
            },
        )
        return self.nic.send(msg, from_host=False)

    def wait_event(self, eq: EventQueue) -> Generator[object, object, PortalsEvent]:
        """Block until an event arrives, then charge the poll cost."""
        gate = self.env.event()
        eq.on_next(gate.succeed)
        event: PortalsEvent = yield gate
        yield from self.cpu.poll()
        return event


class Cluster:
    """N machines on one fabric — the complete simulated system."""

    def __init__(
        self,
        nprocs: int,
        config: Optional[MachineConfig] = None,
        topology: Any = None,
        trace: bool = False,
        with_memory: bool = True,
        fabric: str = "loggp",
    ):
        self.config = config or discrete_config()
        reset_msg_ids()  # fresh id space: traces are run-to-run identical
        self.env = Environment()
        self.timeline = Timeline(enabled=trace)
        if topology is None:
            topology = FatTree(params=self.config.network, nhosts=max(nprocs, 2))
        self.topology = topology
        try:
            fabric_cls = FABRIC_FLAVOURS[fabric]
        except KeyError:
            raise ValueError(
                f"unknown fabric flavour {fabric!r} "
                f"(use {sorted(FABRIC_FLAVOURS)})"
            ) from None
        self.fabric = fabric_cls(
            self.env, topology, self.config.network, timeline=self.timeline
        )
        self.machines = [
            Machine(
                self.env,
                rank,
                self.config,
                self.fabric,
                timeline=self.timeline,
                with_memory=with_memory,
            )
            for rank in range(nprocs)
        ]

    def __len__(self) -> int:
        return len(self.machines)

    def __getitem__(self, rank: int) -> Machine:
        return self.machines[rank]

    def crash(self, rank: int) -> int:
        """Fail-stop node ``rank`` mid-run (fault injection).

        Detaches it from the fabric (inbound packets are dropped), marks
        it dead so in-flight sends from its own HPUs/host vanish instead
        of raising, and reaps its stalled receive states.  Returns the
        reap count.  Crashes are permanent for the run — there is no
        rejoin protocol in this model.
        """
        machine = self.machines[rank]
        self.fabric.detach(rank)
        self.fabric.mark_dead(rank)
        return machine.nic.reap_stalled()

    def run(self, until=None):
        return self.env.run(until=until)

    @property
    def now_ns(self) -> float:
        return self.env.now_ns
