"""Coverage for the remaining PtlHandler* actions (Appendix B.6)."""

import numpy as np
import pytest

from repro.core import PtlHPUAllocMem, ReturnCode, spin_me
from repro.machine import Cluster, integrated_config
from repro.portals import Counter
from repro.portals.matching import MatchEntry


def spin_cluster(n=2):
    return Cluster(n, config=integrated_config())


def send(cluster, src, dst, nbytes, match_bits=1, payload=None, **kw):
    def proc():
        yield from cluster[src].host_put(dst, nbytes, match_bits=match_bits,
                                         payload=payload, **kw)

    cluster.env.process(proc())


class TestNonBlockingDMA:
    def test_nb_read_returns_data_via_handle(self):
        cluster = spin_cluster()
        buf = cluster[1].memory.alloc(64)
        cluster[1].memory.write(buf, np.full(8, 3, np.uint8))
        got = {}

        def ph(ctx, pay):
            handle = yield from ctx.dma_from_host_nb(0, 8)
            assert not ctx.dma_test(handle)  # not yet complete
            yield from ctx.dma_wait(handle)
            assert ctx.dma_test(handle)
            got["data"] = handle.value
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, start=buf, length=64,
                                      payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 8)
        cluster.run()
        assert np.array_equal(got["data"], np.full(8, 3, np.uint8))

    def test_nb_write_overlaps_compute(self):
        """A non-blocking write lets the handler compute while data lands."""
        cluster = spin_cluster()
        buf = cluster[1].memory.alloc(4096)
        times = {}

        def ph(ctx, pay):
            handle = yield from ctx.dma_to_host_nb(pay.payload, 0,
                                                   nbytes=pay.payload_len)
            t0 = ctx.env.now
            ctx.charge(2500)  # 1 us of compute overlapping the write
            yield from ctx.elapse()
            times["compute_done"] = ctx.env.now
            yield from ctx.dma_wait(handle)
            times["write_done"] = ctx.env.now
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, start=buf, length=4096,
                                      payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 512, payload=np.full(512, 9, np.uint8))
        cluster.run()
        # The write completed during (or right at) the compute window.
        assert times["write_done"] <= times["compute_done"] + 1
        assert np.array_equal(cluster[1].memory.read(buf, 512),
                              np.full(512, 9, np.uint8))


class TestHostAtomicsFromHandlers:
    def test_dma_cas_and_fadd(self):
        cluster = spin_cluster()
        buf = cluster[1].memory.alloc(64)
        results = {}

        def ph(ctx, pay):
            ok, seen = yield from ctx.dma_cas(0, 0, 77)
            results["cas"] = (ok, seen)
            before = yield from ctx.dma_fetch_add(8, 5)
            results["fadd_before"] = before
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, start=buf, length=64,
                                      payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 8)
        cluster.run()
        assert results["cas"] == (True, 0)
        assert results["fadd_before"] == 0
        assert int.from_bytes(cluster[1].memory.read(buf, 8).tobytes(),
                              "little") == 77
        assert int.from_bytes(cluster[1].memory.read(buf + 8, 8).tobytes(),
                              "little") == 5


class TestHandlerHostMem:
    def test_handler_host_mem_region(self):
        """HANDLER_HOST_MEM addresses the second host region (B.2)."""
        cluster = spin_cluster()
        me_buf = cluster[1].memory.alloc(64)
        stats_buf = cluster[1].memory.alloc(64)

        def ph(ctx, pay):
            yield from ctx.dma_to_host_b(np.full(4, 0xAB, np.uint8), 0,
                                         options="handler")
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(
            match_bits=1, start=me_buf, length=64, payload_handler=ph,
            hpu_memory=PtlHPUAllocMem(cluster[1], 64),
            host_mem_start=stats_buf, host_mem_length=64,
        ))
        send(cluster, 0, 1, 8)
        cluster.run()
        assert np.array_equal(cluster[1].memory.read(stats_buf, 4),
                              np.full(4, 0xAB, np.uint8))
        assert cluster[1].memory.read(me_buf, 4).sum() == 0

    def test_bad_option_faults_handler(self):
        cluster = spin_cluster()

        def ph(ctx, pay):
            yield from ctx.dma_from_host_b(0, 4, options="bogus")
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 8)
        cluster.run()
        assert cluster[1].nic.handler_errors[0][1] == ReturnCode.SEGV


class TestCountersAndYield:
    def test_ct_manipulation(self):
        cluster = spin_cluster()
        ct = Counter("handler-ct")
        seen = {}

        def ph(ctx, pay):
            ctx.ct_inc(ct, 2, nbytes=pay.payload_len)
            seen["get"] = ctx.ct_get(ct)
            ctx.ct_set(ct, 10)
            yield from ctx.yield_()
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 16)
        cluster.run()
        assert seen["get"] == (2, 0)
        assert ct.success == 10

    def test_ack_from_handler_message(self):
        """put_from_device with ack=True completes at the issuing NIC."""
        cluster = spin_cluster()
        sender_ct = cluster[1].new_counter()
        from repro.portals.ni import MemoryDescriptor

        # The handler's put originates at rank 1, so its ACK (from rank 0)
        # is consumed by rank 1's MD.
        md = cluster[1].bind_md(MemoryDescriptor(length=64, counter=sender_ct))
        cluster[0].post_me(0, MatchEntry(match_bits=2, length=64))

        def ph(ctx, pay):
            yield from ctx.put_from_device(None, target=0, match_bits=2,
                                           nbytes=4, ack=True, md=md)
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 8)
        cluster.run()
        assert sender_ct.success == 1
