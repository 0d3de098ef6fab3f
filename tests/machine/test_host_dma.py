"""Tests for host memory, host CPU, and the DMA engine."""

import numpy as np
import pytest

from repro.des import Environment, Server, ns
from repro.des.engine import SimulationError
from repro.machine import DMAEngine, HostCPU, HostMemory, HostParams
from repro.machine.config import NICParams, discrete_config, integrated_config


class TestHostMemory:
    def test_alloc_bump_and_alignment(self):
        mem = HostMemory(1024)
        a = mem.alloc(10)
        b = mem.alloc(10)
        assert a == 0
        assert b == 64  # 64-byte aligned bump

    def test_alloc_exhaustion(self):
        mem = HostMemory(128)
        mem.alloc(100)
        with pytest.raises(MemoryError):
            mem.alloc(100)

    def test_write_read_round_trip(self):
        mem = HostMemory(256)
        data = np.arange(32, dtype=np.uint8)
        mem.write(10, data)
        assert np.array_equal(mem.read(10, 32), data)

    def test_view_is_mutable_window(self):
        mem = HostMemory(64)
        view = mem.view(8, 4)
        view[:] = 7
        assert np.array_equal(mem.read(8, 4), np.full(4, 7, np.uint8))

    def test_out_of_bounds_rejected(self):
        mem = HostMemory(64)
        with pytest.raises(IndexError):
            mem.read(60, 8)
        with pytest.raises(IndexError):
            mem.write(-1, np.zeros(2, np.uint8))


def make_cpu(env, cores=8):
    port = Server(env, "mem")
    cpu = HostCPU(env, HostParams(cores=cores), port)
    return cpu, port


class TestHostCPU:
    def test_run_occupies_core_for_duration(self):
        env = Environment()
        cpu, _ = make_cpu(env)

        def proc():
            yield from cpu.run(ns(100))
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == ns(100)
        assert cpu.busy_ps == ns(100)

    def test_core_pool_limits_parallelism(self):
        env = Environment()
        cpu, _ = make_cpu(env, cores=2)
        done = []

        def proc():
            yield from cpu.run(ns(10))
            done.append(env.now)

        for _ in range(4):
            env.process(proc())
        env.run()
        assert done == [ns(10), ns(10), ns(20), ns(20)]

    def test_memcpy_charges_two_passes(self):
        env = Environment()
        cpu, port = make_cpu(env)

        def proc():
            yield from cpu.memcpy(1000)

        env.process(proc())
        env.run()
        # 2 * 1000 B * 6.7 ps/B of memory-port traffic
        assert port.busy_time == round(2 * 1000 * 6.7)

    def test_negative_work_rejected(self):
        env = Environment()
        cpu, _ = make_cpu(env)

        def proc():
            yield from cpu.run(-1)

        env.process(proc())
        with pytest.raises(SimulationError, match="negative"):
            env.run()
        with pytest.raises(SimulationError, match="negative"):
            cpu.run_fn(-1, "work", lambda: None)

    def test_poll_and_match_costs(self):
        env = Environment()
        cpu, _ = make_cpu(env)

        def proc():
            yield from cpu.poll()
            yield from cpu.match()
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == ns(51) + ns(60)


class TestDMAEngine:
    def make(self, env, config=None, mem_size=4096):
        cfg = config or discrete_config()
        port = Server(env, "mem")
        mem = HostMemory(mem_size)
        dma = DMAEngine(
            env, cfg.nic, port, memory=mem,
            mem_G_ps_per_byte=cfg.host.mem_G_ps_per_byte,
        )
        return dma, mem, port

    def test_effective_G_discrete_vs_integrated(self):
        env = Environment()
        dma_dis, _, _ = self.make(env, discrete_config())
        dma_int, _, _ = self.make(env, integrated_config())
        assert dma_dis.G_eff == pytest.approx(15.6)  # PCIe bound
        assert dma_int.G_eff == pytest.approx(6.7)   # memory bound

    def test_blocking_read_costs_two_latencies(self):
        env = Environment()
        dma, mem, _ = self.make(env)
        mem.write(0, np.arange(100, dtype=np.uint8))

        def proc():
            data = yield from dma.read(0, 100)
            return env.now, data

        p = env.process(proc())
        t, data = env.run(until=p)
        assert t == 2 * ns(250) + ns(10) + round(100 * 15.6)
        assert np.array_equal(data, np.arange(100, dtype=np.uint8))

    def test_write_posts_fast_lands_after_latency(self):
        env = Environment()
        dma, mem, _ = self.make(env)
        data = np.full(100, 9, np.uint8)

        def proc():
            completed = yield from dma.write(50, data)
            posted_at = env.now
            landed_at = yield completed
            return posted_at, landed_at

        p = env.process(proc())
        posted, landed = env.run(until=p)
        assert posted == ns(10) + round(100 * 15.6)  # per-op + bandwidth
        assert landed == posted + ns(250)           # + one latency
        assert np.array_equal(mem.read(50, 100), data)

    def test_data_not_visible_before_completion(self):
        env = Environment()
        dma, mem, _ = self.make(env)

        def proc():
            completed = yield from dma.write(0, np.full(10, 1, np.uint8))
            before = mem.read(0, 10).copy()
            yield completed
            after = mem.read(0, 10)
            return before, after

        p = env.process(proc())
        before, after = env.run(until=p)
        assert before.sum() == 0 and after.sum() == 10

    def test_transfers_contend_on_memory_port(self):
        env = Environment()
        dma, _, port = self.make(env)
        done = []

        def writer():
            completed = yield from dma.write(0, np.zeros(1000, np.uint8))
            yield completed
            done.append(env.now)

        env.process(writer())
        env.process(writer())
        env.run()
        bw = ns(10) + round(1000 * 15.6)
        assert done == [bw + ns(250), 2 * bw + ns(250)]

    def test_cas_success_and_failure(self):
        env = Environment()
        dma, mem, _ = self.make(env)
        mem.write(0, np.frombuffer((42).to_bytes(8, "little"), np.uint8))

        def proc():
            ok, seen = yield from dma.cas(0, 42, 99)
            bad, seen2 = yield from dma.cas(0, 42, 7)
            return ok, seen, bad, seen2

        p = env.process(proc())
        ok, seen, bad, seen2 = env.run(until=p)
        assert ok and seen == 42
        assert not bad and seen2 == 99

    def test_fetch_add(self):
        env = Environment()
        dma, mem, _ = self.make(env)

        def proc():
            before0 = yield from dma.fetch_add(0, 5)
            before1 = yield from dma.fetch_add(0, 3)
            return before0, before1

        p = env.process(proc())
        assert env.run(until=p) == (0, 5)
        assert int.from_bytes(mem.read(0, 8).tobytes(), "little") == 8

    def test_negative_sizes_rejected(self):
        env = Environment()
        dma, _, _ = self.make(env)

        def proc():
            yield from dma.read(0, -1)

        env.process(proc())
        with pytest.raises(ValueError):
            env.run()
