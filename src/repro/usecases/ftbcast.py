"""Fault-tolerant broadcast on a binomial graph (§5.4).

Redundant delivery over a binomial graph tolerates < log2(P) failures
without failure detectors [50].  Normally every redundant copy is
delivered to host memory; with sPIN the header handler forwards and
delivers only the **first** copy of each broadcast, dropping duplicates on
the NIC — a transparent reliable-broadcast service.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.handlers import ReturnCode
from repro.machine.config import MachineConfig, config_by_name
from repro.sim.session import Session

__all__ = ["FaultTolerantBroadcast", "binomial_graph_peers"]

FTB_TAG = 95


def binomial_graph_peers(rank: int, nprocs: int) -> list[int]:
    """Neighbors of ``rank`` in the binomial graph: rank ± 2^k mod P."""
    peers = []
    k = 1
    while k < nprocs:
        peers.append((rank + k) % nprocs)
        peers.append((rank - k) % nprocs)
        k <<= 1
    return sorted(set(p for p in peers if p != rank))


class FaultTolerantBroadcast:
    """Broadcast service with redundant forwarding and NIC deduplication."""

    def __init__(self, nprocs: int = 8, config: MachineConfig | str = "int",
                 failed: Optional[set[int]] = None):
        if isinstance(config, str):
            config = config_by_name(config)
        self.nprocs = nprocs
        self.failed = failed or set()
        #: Ranks fail-stopped *after* construction (see :meth:`crash`).
        #: Deliberately NOT consulted by the forwarding handler: the
        #: protocol has no failure detector, so live ranks keep forwarding
        #: into crashed peers and redundancy alone must carry delivery.
        self.crashed: set[int] = set()
        self.session = Session.pair(config, nodes=nprocs)
        self.cluster = self.session.cluster
        self.env = self.session.env
        self.delivered: dict[int, set[int]] = {}   # bcast id → ranks delivered
        self.duplicates_dropped = 0
        self.forwards = 0
        ftb = self

        def make_handler(rank: int):
            def ftb_header_handler(ctx, h):
                ctx.charge(10)
                bcast_id = h.hdr_data
                seen = ctx.state.vars.setdefault("seen", set())
                if bcast_id in seen:
                    # Redundant copy: drop on the NIC, never touches host.
                    ftb.duplicates_dropped += 1
                    return ReturnCode.DROP
                seen.add(bcast_id)
                ftb.delivered.setdefault(bcast_id, set()).add(rank)
                # Forward redundantly along the binomial graph.
                for peer in binomial_graph_peers(rank, ftb.nprocs):
                    if peer in ftb.failed:
                        continue
                    ctx.charge(4)
                    ftb.forwards += 1
                    yield from ctx.put_from_device(
                        None, target=peer, match_bits=FTB_TAG,
                        nbytes=max(h.length, 1), hdr_data=bcast_id,
                    )
                return ReturnCode.PROCEED  # first copy delivered to host

            return ftb_header_handler

        for rank in range(nprocs):
            if rank in self.failed:
                self.cluster.fabric.detach(rank)
                continue
            self.session.connect(
                rank,
                match_bits=FTB_TAG, length=1 << 20,
                header_handler=make_handler(rank),
                hpu_mem_bytes=1024,
            )

    def crash(self, rank: int) -> int:
        """Fail-stop ``rank`` mid-protocol; returns reaped receive states.

        Unlike the constructor's ``failed`` set (ranks dead from the
        start, which peers route around), a crash is invisible to the
        survivors — their forwards toward the dead rank vanish in the
        fabric.  Delivery checks must use :meth:`live_ranks`.
        """
        if rank in self.failed or rank in self.crashed:
            return 0
        self.crashed.add(rank)
        return self.cluster.crash(rank)

    def live_ranks(self) -> set[int]:
        """Ranks neither failed at construction nor crashed since."""
        return (set(range(self.nprocs)) - self.failed) - self.crashed

    def delivered_to_all_live(self, bcast_id: int = 1) -> bool:
        """Did every currently-live rank deliver ``bcast_id``?"""
        return self.live_ranks() <= self.delivered.get(bcast_id, set())

    def broadcast(self, root: int = 0, bcast_id: int = 1,
                  nbytes: int = 64) -> Generator:
        """Root injects the broadcast to its binomial-graph peers."""
        self.delivered.setdefault(bcast_id, set()).add(root)
        # Mark the root's own dedup state.
        root_me = None
        for entry in self.cluster[root].ni.pt(0).match_list.priority:
            if entry.match_bits == FTB_TAG and entry.spin is not None:
                root_me = entry
                break
        if root_me is not None:
            root_me.spin.hpu_memory.vars.setdefault("seen", set()).add(bcast_id)
        for peer in binomial_graph_peers(root, self.nprocs):
            if peer in self.failed:
                continue
            yield from self.cluster[root].host_put(
                peer, nbytes, match_bits=FTB_TAG, hdr_data=bcast_id,
            )

    def run_broadcast(self, root: int = 0, bcast_id: int = 1) -> set[int]:
        """Broadcast and drain; returns the set of ranks that delivered."""
        proc = self.env.process(self.broadcast(root, bcast_id))
        self.env.run(until=proc)
        self.env.run()
        return self.delivered.get(bcast_id, set())
