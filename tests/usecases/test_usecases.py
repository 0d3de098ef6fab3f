"""Tests for the §5.4 use cases."""

import math

import networkx as nx
import pytest

from repro.handlers_library import kv_hash
from repro.usecases import (
    ConditionalReader,
    DistributedGraph,
    FaultTolerantBroadcast,
    KVStore,
    TransactionLog,
    binomial_graph_peers,
)


class TestKVStore:
    def test_insert_and_lookup(self):
        store = KVStore(nservers=2)
        env = store.env

        def client():
            for i in range(10):
                yield from store.insert(f"key{i}".encode(), f"val{i}".encode())

        proc = env.process(client())
        env.run(until=proc)
        env.run()
        stored = {}
        for node, table in enumerate(store.tables):
            for bucket, chain in table.items():
                for key, value in chain:
                    # Each record sits where H1 and H2 say it belongs.
                    assert kv_hash(key, 2) == node
                    assert kv_hash(key, 64, salt=b"bucket2") == bucket
                    stored[key] = value
        assert stored == {f"key{i}".encode(): f"val{i}".encode()
                          for i in range(10)}
        assert store.counters == {"nic_inserts": 10, "host_fallback": 0}

    def test_long_chain_defers_to_host(self):
        store = KVStore(nservers=1, nbuckets=1)  # everything collides
        env = store.env

        def client():
            for i in range(8):
                yield from store.insert(f"k{i}".encode(), b"v")

        proc = env.process(client())
        env.run(until=proc)
        env.run()
        assert store.counters["host_fallback"] > 0
        # Every record is eventually stored (NIC fast path or host slow path).
        total = sum(len(c) for c in store.tables[0].values())
        assert total == 8

    def test_distribution_across_servers(self):
        store = KVStore(nservers=4)
        env = store.env

        def client():
            for i in range(40):
                yield from store.insert(f"spread{i}".encode(), b"x")

        proc = env.process(client())
        env.run(until=proc)
        env.run()
        used = [s for s in range(4)
                if any(store.tables[s][b] for b in store.tables[s])]
        assert len(used) >= 2  # H1 spreads keys


class TestConditionalRead:
    def rows(self):
        return [{"id": i, "name": f"emp{i}", "dept": i % 3} for i in range(50)]

    def test_select_returns_matches(self):
        reader = ConditionalReader(self.rows())
        env = reader.env

        def client():
            return (yield from reader.select(lambda r: r["id"] == 7))

        proc = env.process(client())
        matches, elapsed = env.run(until=proc)
        assert [r["id"] for r in matches] == [7]
        assert elapsed > 0
        assert reader.scans_served == 1

    def test_bandwidth_savings_accounted(self):
        reader = ConditionalReader(self.rows())
        env = reader.env

        def client():
            return (yield from reader.select(lambda r: r["dept"] == 0))

        proc = env.process(client())
        matches, _ = env.run(until=proc)
        expected_saved = (50 - len(matches)) * reader.row_bytes
        assert reader.bytes_saved == expected_saved
        assert reader.bytes_saved > 0.5 * len(reader.rows) * reader.row_bytes


class TestTransactions:
    def test_accesses_logged_at_nic(self):
        log = TransactionLog(nclients=2)
        env = log.env

        def client0():
            yield from log.remote_write(0, offset=0, nbytes=64, txn_id=1)

        def client1():
            yield from log.remote_write(1, offset=128, nbytes=64, txn_id=2)

        env.process(client0())
        env.process(client1())
        env.run()
        assert len(log.log) == 2
        assert log.server.cpu.busy_ps == 0  # introspection is CPU-free

    def test_conflict_detection(self):
        log = TransactionLog(nclients=2)
        env = log.env

        def clients():
            yield from log.remote_write(0, offset=0, nbytes=100, txn_id=1)
            yield from log.remote_write(1, offset=50, nbytes=100, txn_id=2)
            yield from log.remote_write(1, offset=500, nbytes=10, txn_id=3)

        proc = env.process(clients())
        env.run(until=proc)
        env.run()
        assert len(log.conflicts()) == 1
        assert not log.validate(1)
        assert not log.validate(2)
        assert log.validate(3)


class TestGraph:
    def test_sssp_matches_networkx(self):
        g = nx.Graph()
        g.add_weighted_edges_from([
            (0, 1, 2), (1, 2, 3), (0, 2, 10), (2, 3, 1), (1, 3, 7),
        ])
        dg = DistributedGraph(g, nparts=2)
        measured = dg.run_sssp(0)
        assert measured == dg.reference_sssp(0)
        assert dg.handler_updates >= 4

    def test_rejected_updates_counted(self):
        g = nx.cycle_graph(6)
        dg = DistributedGraph(g, nparts=3)
        dg.run_sssp(0)
        # A cycle always produces some stale (rejected) relaxations.
        assert dg.handler_rejects > 0
        assert dg.run_sssp(0) == dg.reference_sssp(0)


class TestFTBroadcast:
    def test_binomial_graph_degree(self):
        peers = binomial_graph_peers(0, 16)
        assert len(peers) <= 2 * math.ceil(math.log2(16))
        assert 1 in peers and 15 in peers

    def test_all_ranks_delivered_once(self):
        ftb = FaultTolerantBroadcast(nprocs=8)
        delivered = ftb.run_broadcast(root=0)
        assert delivered == set(range(8))
        assert ftb.duplicates_dropped > 0  # redundancy existed and was culled

    def test_survives_failures(self):
        """< log2(P) failures: all surviving ranks still deliver."""
        ftb = FaultTolerantBroadcast(nprocs=8, failed={3, 5})
        delivered = ftb.run_broadcast(root=0)
        assert delivered == set(range(8)) - {3, 5}

    def test_duplicates_never_reach_host(self):
        ftb = FaultTolerantBroadcast(nprocs=8)
        ftb.run_broadcast(root=0)
        for bcast_ranks in ftb.delivered.values():
            assert len(bcast_ranks) == len(set(bcast_ranks))
