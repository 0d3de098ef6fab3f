"""Distributed key-value store with offloaded inserts (§5.4).

Two-level hashing: H1(key) picks the node, H2(key) the bucket.  The client
sends ``(H2(k), len(k), k, v)``; the server's **header handler**
(:func:`repro.handlers_library.make_kv_insert_handler`) walks the bucket
chain in host memory (bounded number of steps to avoid backing up the
network) and links the record — or defers to the host CPU when the walk
budget is exhausted.
"""

from __future__ import annotations

from typing import Generator

from repro.handlers_library import kv_hash, make_kv_insert_handler
from repro.machine.config import MachineConfig, config_by_name
from repro.sim.session import Session

__all__ = ["KVStore"]

KV_INSERT_TAG = 60


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
        self.counters = {"nic_inserts": 0, "host_fallback": 0}
        for idx in range(nservers):
            self.session.connect(
                idx + 1,
                match_bits=KV_INSERT_TAG,
                header_handler=make_kv_insert_handler(self.tables[idx],
                                                      self.counters),
                hpu_mem_bytes=256,
            )

    # -- client API ----------------------------------------------------------
    def insert(self, key: bytes, value: bytes) -> Generator:
        """Insert (k, v): H1 picks the node, H2 the bucket (the §5.4 flow)."""
        import numpy as np

        node = kv_hash(key, len(self.servers))
        bucket = kv_hash(key, self.nbuckets, salt=b"bucket2")
        yield from self.client.host_put(
            self.servers[node].rank,
            len(key) + len(value),
            match_bits=KV_INSERT_TAG,
            payload=np.frombuffer(key + value, dtype=np.uint8),
            user_hdr={"bucket": bucket, "key": key, "value": value,
                      "len_k": len(key)},
        )


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
        "nic_inserts": store.counters["nic_inserts"],
        "host_fallback": store.counters["host_fallback"],
    }
