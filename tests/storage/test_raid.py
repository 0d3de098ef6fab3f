"""Tests for the RAID-5 storage cluster: data integrity + protocol timing."""

import numpy as np
import pytest

from repro.experiments import raid_update_completion_ns
from repro.faults import FaultPlan, HandlerFault
from repro.storage import RaidCluster


def run_writes(raid, sizes):
    env = raid.env

    def client():
        for size, offset in sizes:
            yield from raid.client_write(size, offset=offset)
        return env.now

    proc = env.process(client())
    env.run(until=proc)
    raid.cluster.run()


class TestDataIntegrity:
    @pytest.mark.parametrize("mode", ["rdma", "spin"])
    def test_single_write_parity_correct(self, mode):
        raid = RaidCluster(mode, "int", region_bytes=64 * 1024, with_memory=True)
        run_writes(raid, [(16 * 1024, 0)])
        assert raid.verify()

    @pytest.mark.parametrize("mode", ["rdma", "spin"])
    def test_overlapping_rewrites_keep_parity(self, mode):
        """p' = p ⊕ n ⊕ n' must hold across repeated updates."""
        raid = RaidCluster(mode, "int", region_bytes=32 * 1024, with_memory=True)
        run_writes(raid, [(8 * 1024, 0), (8 * 1024, 1024), (4 * 1024, 0)])
        assert raid.verify()

    def test_multi_packet_chunks_spin(self):
        """Chunks above the MTU produce several diff messages per server."""
        raid = RaidCluster("spin", "int", region_bytes=256 * 1024, with_memory=True)
        run_writes(raid, [(64 * 1024, 0)])  # 16 KiB per node = 4 packets
        assert raid.verify()

    def test_ack_counting(self):
        raid = RaidCluster("spin", "int", region_bytes=64 * 1024, with_memory=True)
        assert raid.acks_for_write(16 * 1024) == 4      # 4 KiB/node = 1 pkt each
        assert raid.acks_for_write(64 * 1024) == 16     # 16 KiB/node = 4 each
        raid_rdma = RaidCluster("rdma", "int", region_bytes=64 * 1024)
        assert raid_rdma.acks_for_write(64 * 1024) == 4  # one ACK per server


class TestReads:
    @pytest.mark.parametrize("mode", ["rdma", "spin"])
    def test_read_completes(self, mode):
        raid = RaidCluster(mode, "int", region_bytes=64 * 1024)
        env = raid.env

        def client():
            start = env.now
            yield from raid.client_read(0, 8192)
            return env.now - start

        proc = env.process(client())
        elapsed = env.run(until=proc)
        assert elapsed > 0
        assert raid.read_counter.success == 1

    def test_spin_read_skips_server_cpu(self):
        """The sPIN read header handler serves without the server CPU."""

        def read_latency(mode):
            raid = RaidCluster(mode, "dis", region_bytes=64 * 1024)
            env = raid.env

            def client():
                start = env.now
                yield from raid.client_read(0, 4096)
                return env.now - start

            proc = env.process(client())
            elapsed = env.run(until=proc)
            busy = sum(n.cpu.busy_ps for n in raid.data_nodes)
            return elapsed, busy

        t_spin, busy_spin = read_latency("spin")
        t_rdma, busy_rdma = read_latency("rdma")
        assert t_spin < t_rdma
        assert busy_spin == 0 and busy_rdma > 0


class TestProtocolShape:
    def test_comparable_small_spin_wins_large(self):
        """Fig 7c: similar small-transfer latency, sPIN wins big blocks."""
        small_rdma = raid_update_completion_ns(64, "rdma", "int")
        small_spin = raid_update_completion_ns(64, "spin", "int")
        assert small_spin == pytest.approx(small_rdma, rel=0.6)

        large_rdma = raid_update_completion_ns(1 << 18, "rdma", "int")
        large_spin = raid_update_completion_ns(1 << 18, "spin", "int")
        assert large_spin < large_rdma

    def test_server_cpus_idle_under_spin(self):
        raid = RaidCluster("spin", "int", region_bytes=64 * 1024)
        run_writes(raid, [(16 * 1024, 0)])
        assert all(n.cpu.busy_ps == 0 for n in raid.data_nodes)
        assert raid.parity_node.cpu.busy_ps == 0

    def test_discrete_slower_than_integrated(self):
        for mode in ("rdma", "spin"):
            assert raid_update_completion_ns(4096, mode, "dis") > \
                raid_update_completion_ns(4096, mode, "int")


class TestFaults:
    #: Far beyond a healthy 16 KiB write (a few microseconds): a faulted
    #: write may never be ACKed, so the run is bounded by time.
    BOUND_PS = 1_000_000_000

    def _write(self, plan):
        raid = RaidCluster("spin", "int", region_bytes=64 * 1024,
                           with_memory=True)
        with raid.session:
            inj = raid.session.attach_faults(plan) if plan else None
            proc = raid.env.process(raid.client_write(16 * 1024))
            raid.env.run(until=self.BOUND_PS)
        return raid, inj, proc

    def test_healthy_write_completes_within_the_bound(self):
        raid, _, proc = self._write(None)
        assert proc.triggered
        assert raid.verify()

    def test_handler_fault_plan_reaches_a_data_server(self):
        data_server = 1
        raid, inj, proc = self._write(FaultPlan(
            (HandlerFault(rank=data_server, probability=1.0),), seed=5))
        assert inj.summary()["handler_faults"] > 0
        assert raid.cluster[data_server].nic.handler_errors
        assert not proc.triggered
        assert not raid.verify()
