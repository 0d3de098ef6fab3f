"""Distributed-transaction access logging (§5.4).

The header handlers of all incoming RDMA puts are introspected: each access
(initiator, address range, timestamp) is recorded at line rate into a log
in HPU/host memory; conflict validation then runs on the host at commit
time by evaluating the logs — no per-packet CPU involvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.core.handlers import ReturnCode
from repro.machine.config import MachineConfig, config_by_name
from repro.sim.session import Session

__all__ = ["AccessRecord", "TransactionLog"]

TXN_TAG = 80


@dataclass(frozen=True)
class AccessRecord:
    """One introspected remote access."""

    initiator: int
    offset: int
    length: int
    when_ps: int
    txn_id: int


class TransactionLog:
    """A server whose incoming writes are logged by the NIC."""

    def __init__(self, nclients: int = 2, config: MachineConfig | str = "int"):
        if isinstance(config, str):
            config = config_by_name(config)
        self.session = Session.pair(config, nodes=nclients + 1)
        self.cluster = self.session.cluster
        self.env = self.session.env
        self.server = self.session[nclients]
        self.clients = [self.session[i] for i in range(nclients)]
        self.log: list[AccessRecord] = []
        log = self.log

        def introspect_header_handler(ctx, h):
            # Record the access at line rate (§5.4: "the introspection can
            # be performed at line rate").
            ctx.charge(8)
            log.append(AccessRecord(
                initiator=h.source,
                offset=h.offset,
                length=h.length,
                when_ps=ctx.env.now,
                txn_id=h.hdr_data,
            ))
            return ReturnCode.PROCEED  # the write proceeds as normal

        self.session.connect(
            nclients,
            match_bits=TXN_TAG, length=1 << 30,
            header_handler=introspect_header_handler,
            hpu_mem_bytes=4096,
        )

    def remote_write(self, client_index: int, offset: int, nbytes: int,
                     txn_id: int) -> Generator:
        client = self.clients[client_index]
        done = yield from client.host_put(
            self.server.rank, nbytes, match_bits=TXN_TAG,
            offset=offset, hdr_data=txn_id,
        )
        yield done

    # -- commit-time validation on the host -------------------------------
    def conflicts(self) -> list[tuple[AccessRecord, AccessRecord]]:
        """Pairs of accesses from different transactions that overlap."""
        out = []
        for i, a in enumerate(self.log):
            for b in self.log[i + 1:]:
                if a.txn_id == b.txn_id:
                    continue
                if a.offset < b.offset + b.length and b.offset < a.offset + a.length:
                    out.append((a, b))
        return out

    def validate(self, txn_id: int) -> bool:
        """A transaction commits iff none of its accesses conflict."""
        return not any(
            txn_id in (a.txn_id, b.txn_id) for a, b in self.conflicts()
        )
