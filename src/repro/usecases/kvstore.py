"""Distributed key-value store with offloaded inserts (§5.4).

Two-level hashing: H1(key) picks the node, H2(key) the bucket.  The client
sends ``(H2(k), len(k), k, v)``; the server's **header handler** walks the
bucket chain in host memory (bounded number of steps to avoid backing up
the network) and links the record — or defers to the host CPU when the
walk budget is exhausted.  ``get`` follows the same request-reply shape as
the conditional read.
"""

from __future__ import annotations

import hashlib
from typing import Generator

from repro.core.handlers import ReturnCode
from repro.machine.config import MachineConfig, config_by_name
from repro.sim.session import Session

__all__ = ["KVStore"]

KV_INSERT_TAG = 60
#: Header-handler walk budget (steps) before deferring to the host.
MAX_WALK_STEPS = 4


def h1(key: bytes, nnodes: int) -> int:
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little") % nnodes


def h2(key: bytes, nbuckets: int) -> int:
    return int.from_bytes(
        hashlib.blake2b(key, digest_size=8, salt=b"bucket2").digest(), "little"
    ) % nbuckets


class KVStore:
    """A client plus ``nservers`` sPIN-accelerated storage nodes."""

    def __init__(self, nservers: int = 2, nbuckets: int = 64,
                 config: MachineConfig | str = "int"):
        if isinstance(config, str):
            config = config_by_name(config)
        self.nbuckets = nbuckets
        self.session = Session.pair(config, nodes=nservers + 1)
        self.cluster = self.session.cluster
        self.env = self.session.env
        self.client = self.cluster[0]
        self.servers = [self.cluster[i + 1] for i in range(nservers)]
        #: Python-dict shadow stores standing in for the host-memory hash
        #: tables (buckets → list of (key, value)).
        self.tables = [
            {b: [] for b in range(nbuckets)} for _ in range(nservers)
        ]
        self.inserted_by_nic = 0
        self.deferred_to_host = 0
        for idx in range(nservers):
            self.session.connect(
                idx + 1,
                match_bits=KV_INSERT_TAG,
                header_handler=self._make_insert_handler(idx),
                hpu_mem_bytes=256,
            )

    def _make_insert_handler(self, server_index: int):
        store = self

        def insert_header_handler(ctx, h):
            user = h.user_hdr
            bucket, key, value = user["bucket"], user["key"], user["value"]
            chain = store.tables[server_index][bucket]
            # Bounded chain walk: one DMA-ish pointer chase per step.
            steps = min(len(chain), MAX_WALK_STEPS)
            ctx.charge(12 + 8 * steps)
            if len(chain) >= MAX_WALK_STEPS:
                # Don't back up the network: deposit a work item for the CPU.
                store.deferred_to_host += 1

                def host_side():
                    yield from store.servers[server_index].cpu.run(
                        ctx.nic.machine.config.host.dram_latency_ps * (len(chain) + 1),
                        "kv-host-insert",
                    )
                    chain.append((key, value))

                ctx.env.process(host_side())
                return ReturnCode.DROP
            chain.append((key, value))
            store.inserted_by_nic += 1
            return ReturnCode.DROP

        return insert_header_handler

    # -- client API ----------------------------------------------------------
    def insert(self, key: bytes, value: bytes) -> Generator:
        """Insert (k, v): H1 picks the node, H2 the bucket (the §5.4 flow)."""
        import numpy as np

        node = h1(key, len(self.servers))
        bucket = h2(key, self.nbuckets)
        yield from self.client.host_put(
            self.servers[node].rank,
            len(key) + len(value),
            match_bits=KV_INSERT_TAG,
            payload=np.frombuffer(key + value, dtype=np.uint8),
            user_hdr={"bucket": bucket, "key": key, "value": value,
                      "len_k": len(key)},
        )

    def lookup_local(self, key: bytes):
        """Reference lookup against the shadow tables (correctness check)."""
        node = h1(key, len(self.servers))
        bucket = h2(key, self.nbuckets)
        for k, v in reversed(self.tables[node][bucket]):
            if k == key:
                return v
        return None


from repro.campaign.registry import Param, scenario as campaign_scenario


@campaign_scenario(
    "kvstore_insert",
    params=[
        Param("nservers", int, default=2),
        Param("nkeys", int, default=32, help="keys inserted by the client"),
        Param("value_bytes", int, default=32),
        Param("config", str, default="int", choices=("int", "dis")),
    ],
    description="Section 5.4 KV-store NIC-side insert workload",
    tiny={"nkeys": 8},
    sweep={"nservers": (1, 2, 4), "nkeys": (32, 128)},
    tags=("usecase", "kvstore"),
)
def _kvstore_scenario(nservers: int, nkeys: int, value_bytes: int,
                      config: str) -> dict:
    store = KVStore(nservers=nservers, config=config)
    env = store.env

    def client():
        for i in range(nkeys):
            yield from store.insert(f"key{i}".encode(), b"v" * value_bytes)

    proc = env.process(client())
    env.run(until=proc)
    store.cluster.run()
    return {
        "total_ns": env.now / 1000.0,
        "nic_inserts": store.inserted_by_nic,
        "host_fallback": store.deferred_to_host,
    }
