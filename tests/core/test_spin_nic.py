"""Integration tests for the sPIN NIC runtime: dispatch, ordering, actions."""

import numpy as np
import pytest

from repro.core import PtlHPUAllocMem, ReturnCode, connect, spin_me
from repro.des import ns
from repro.machine import Cluster, integrated_config
from repro.network import UniformLatency
from repro.portals import EventKind


def spin_cluster(n=2, config=None, **kw):
    return Cluster(n, config=config or integrated_config(), **kw)


def send(cluster, src, dst, nbytes, match_bits=0, payload=None, **kw):
    def proc():
        yield from cluster[src].host_put(dst, nbytes, match_bits=match_bits,
                                         payload=payload, **kw)

    cluster.env.process(proc())


class TestDispatchOrdering:
    def test_header_handler_called_once_per_message(self):
        cluster = spin_cluster()
        calls = []

        def hh(ctx, hdr):
            calls.append((hdr.source, hdr.length))
            return ReturnCode.PROCEED

        cluster[1].post_me(0, spin_me(match_bits=1, length=1 << 20, header_handler=hh,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 10_000, match_bits=1)
        cluster.run()
        assert calls == [(0, 10_000)]

    def test_payload_handler_per_packet(self):
        cluster = spin_cluster()
        seen = []

        def ph(ctx, pay):
            seen.append((pay.payload_offset, pay.payload_len))
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 10_000, match_bits=1)  # 3 packets at MTU 4096
        cluster.run()
        assert sorted(seen) == [(0, 4096), (4096, 4096), (8192, 10_000 - 8192)]

    @pytest.mark.parametrize(
        "code",
        [ReturnCode.PROCESS_DATA, ReturnCode.PROCEED, ReturnCode.DROP],
        ids=["process", "proceed", "drop"],
    )
    def test_no_payload_handler_before_header_done(self, code):
        """Packets that arrive while the header handler runs are held, then
        take the header handler's decision in arrival order."""
        cluster = spin_cluster(trace=True)
        dst = cluster[1]
        buf = dst.memory.alloc(12_000)
        data = np.resize(np.arange(256, dtype=np.uint8), 12_000)
        landed = []
        write = dst.memory.write

        def logged_write(offset, payload):
            landed.append(offset)
            write(offset, payload)

        dst.memory.write = logged_write
        dropped = []

        def hh(ctx, hdr):
            ctx.charge(10_000)  # 4 us of header work: later packets arrive
            return code

        def ph(ctx, pay):
            return ReturnCode.SUCCESS

        def ch(ctx, dropped_bytes, flow_control_triggered):
            dropped.append(dropped_bytes)
            return ReturnCode.SUCCESS

        dst.post_me(0, spin_me(match_bits=1, start=buf, length=12_000,
                               header_handler=hh, payload_handler=ph,
                               completion_handler=ch,
                               hpu_memory=PtlHPUAllocMem(dst, 64)))
        send(cluster, 0, 1, 12_000, match_bits=1, payload=data)  # 3 packets
        cluster.run()

        spans = [s for s in cluster.timeline.spans if s.rank == 1]
        (hh_span,) = [s for s in spans if s.label == "hh"]
        cams = [s for s in spans if s.label == "cam"]
        rx = [s for s in spans if s.lane == "DMA" and s.label.startswith("rx m")]
        phs = [s for s in spans if s.label == "ph"]
        assert len(cams) == 2
        assert any(s.end < hh_span.end for s in cams)  # really held
        assert all(s.start >= hh_span.end for s in rx + phs)
        if code is ReturnCode.PROCESS_DATA:
            assert len(phs) == 3 and not rx
            assert dropped == [0]
        elif code is ReturnCode.PROCEED:
            assert not phs and len(rx) == 3
            # Spans open at the memory-port request, so held packets share
            # a start; the port serves them one at a time, in packet order.
            assert rx[0].end < rx[1].end < rx[2].end
            assert landed == [buf, buf + 4096, buf + 8192]
            assert np.array_equal(dst.memory.read(buf, 12_000), data)
            assert dropped == [0]
        else:
            assert not phs and not rx
            assert dropped == [12_000]
        assert dst.nic.pending_rx == 0

    def test_payload_handlers_parallel_across_hpus(self):
        cluster = spin_cluster(config=integrated_config(hpu_count=4))
        running = {"now": 0, "max": 0}

        def ph(ctx, pay):
            running["now"] += 1
            running["max"] = max(running["max"], running["now"])
            ctx.charge(10_000)  # 4 us each: packets must overlap

            def finish():
                yield from ctx.elapse()
                running["now"] -= 1
                return ReturnCode.SUCCESS

            return finish()

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 16_384, match_bits=1)  # 4 packets
        cluster.run()
        assert running["max"] >= 2  # genuine HPU-level parallelism

    def test_completion_handler_runs_after_payload_and_before_event(self):
        cluster = spin_cluster()
        env = cluster.env
        order = []

        def ph(ctx, pay):
            order.append(("ph", env.now))
            return ReturnCode.SUCCESS

        def ch(ctx, dropped, fc):
            order.append(("ch", env.now))
            assert dropped == 0 and not fc
            return ReturnCode.SUCCESS

        eq = cluster[1].new_eq()
        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      completion_handler=ch, event_queue=eq,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 9000, match_bits=1)
        event_time = []
        eq.on_next(lambda ev: event_time.append(env.now))
        cluster.run()
        kinds = [k for k, _ in order]
        assert kinds.count("ph") == 3 and kinds[-1] == "ch"
        assert event_time[0] >= order[-1][1]


class TestSteering:
    def test_proceed_deposits_to_host(self):
        cluster = spin_cluster()
        buf = cluster[1].memory.alloc(8192)
        data = np.arange(5000 % 256, dtype=np.uint8)
        data = np.resize(np.arange(256, dtype=np.uint8), 5000)

        def hh(ctx, hdr):
            return ReturnCode.PROCEED

        cluster[1].post_me(0, spin_me(match_bits=1, start=buf, length=8192,
                                      header_handler=hh,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 5000, match_bits=1, payload=data)
        cluster.run()
        assert np.array_equal(cluster[1].memory.read(buf, 5000), data)

    def test_process_data_does_not_auto_deposit(self):
        cluster = spin_cluster()
        buf = cluster[1].memory.alloc(8192)

        def ph(ctx, pay):
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, start=buf, length=8192,
                                      payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 4096, match_bits=1,
             payload=np.full(4096, 7, np.uint8))
        cluster.run()
        assert cluster[1].memory.read(buf, 4096).sum() == 0  # untouched

    def test_header_drop_discards_message(self):
        cluster = spin_cluster()
        ph_calls = []
        dropped = []

        def hh(ctx, hdr):
            return ReturnCode.DROP

        def ph(ctx, pay):
            ph_calls.append(1)
            return ReturnCode.SUCCESS

        def ch(ctx, dropped_bytes, fc):
            dropped.append(dropped_bytes)
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, header_handler=hh,
                                      payload_handler=ph, completion_handler=ch,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 10_000, match_bits=1)
        cluster.run()
        assert ph_calls == []
        assert dropped == [10_000]

    def test_payload_drop_counts_bytes(self):
        cluster = spin_cluster()
        dropped = []

        def ph(ctx, pay):
            # Drop the second packet only.
            return ReturnCode.DROP if pay.payload_offset else ReturnCode.SUCCESS

        def ch(ctx, dropped_bytes, fc):
            dropped.append((dropped_bytes, fc))
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      completion_handler=ch,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 6000, match_bits=1)  # packets: 4096 + 1904
        cluster.run()
        assert dropped == [(1904, False)]

    def test_pending_suppresses_completion(self):
        cluster = spin_cluster()
        eq = cluster[1].new_eq()
        ct = cluster[1].new_counter()

        def hh(ctx, hdr):
            return ReturnCode.PROCEED_PENDING

        cluster[1].post_me(0, spin_me(match_bits=1, length=1 << 20, header_handler=hh,
                                      event_queue=eq, counter=ct,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 256, match_bits=1)
        cluster.run()
        assert len(eq) == 0
        assert ct.success == 0


class TestActions:
    def test_put_from_device_pingpong(self):
        cluster = spin_cluster()
        env = cluster.env
        pong_eq = cluster[0].new_eq()
        cluster[0].post_me(0, spin_me(match_bits=2, length=4096, event_queue=pong_eq))

        def ph(ctx, pay):
            yield from ctx.put_from_device(pay.payload, target=ctx.message.source,
                                           match_bits=2)
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 64, match_bits=1,
             payload=np.arange(64, dtype=np.uint8))
        got = []
        pong_eq.on_next(lambda ev: got.append(env.now))
        cluster.run()
        assert len(got) == 1

    def test_put_from_device_size_limit(self):
        cluster = spin_cluster()
        errors = cluster[1].nic.handler_errors

        def ph(ctx, pay):
            # 2*MTU exceeds max_payload_size: must SEGV-fail the handler.
            yield from ctx.put_from_device(None, target=0, nbytes=8192)
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 64, match_bits=1)
        cluster.run()
        assert errors and errors[0][1] == ReturnCode.SEGV

    def test_handler_dma_write_visible_to_host_after_event(self):
        cluster = spin_cluster()
        env = cluster.env
        buf = cluster[1].memory.alloc(4096)
        eq = cluster[1].new_eq()

        def ph(ctx, pay):
            doubled = (np.asarray(pay.payload) * 2).astype(np.uint8)
            yield from ctx.dma_to_host_b(doubled, pay.payload_offset)
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, start=buf, length=4096,
                                      payload_handler=ph, event_queue=eq,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 100, match_bits=1,
             payload=np.arange(100, dtype=np.uint8))
        result = []
        eq.on_next(lambda ev: result.append(cluster[1].memory.read(buf, 100)))
        cluster.run()
        assert np.array_equal(result[0], (np.arange(100) * 2).astype(np.uint8))

    def test_handler_dma_read_sees_host_data(self):
        cluster = spin_cluster()
        buf = cluster[1].memory.alloc(4096)
        cluster[1].memory.write(buf, np.full(16, 5, np.uint8))
        got = []

        def ph(ctx, pay):
            data = yield from ctx.dma_from_host_b(0, 16)
            got.append(data)
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, start=buf, length=4096,
                                      payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 8, match_bits=1)
        cluster.run()
        assert np.array_equal(got[0], np.full(16, 5, np.uint8))

    def test_hpu_atomics(self):
        cluster = spin_cluster()
        results = {}

        def ph(ctx, pay):
            results["cas_ok"] = ctx.hpu_cas(0, 0, 42)
            results["cas_fail"] = ctx.hpu_cas(0, 0, 7)
            results["fadd_before"] = ctx.hpu_fadd(8, 5)
            results["fadd_after"] = ctx.state.load_u64(8)
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 8, match_bits=1)
        cluster.run()
        assert results == {
            "cas_ok": True, "cas_fail": False,
            "fadd_before": 0, "fadd_after": 5,
        }

    def test_initial_state_and_params_visible(self):
        cluster = spin_cluster()
        seen = {}

        def hh(ctx, hdr):
            seen["state0"] = int(ctx.state.raw[0])
            seen["param"] = ctx.params["knob"]
            return ReturnCode.PROCEED

        cluster[1].post_me(0, spin_me(
            match_bits=1, length=1 << 20, header_handler=hh,
            hpu_memory=PtlHPUAllocMem(cluster[1], 64),
            initial_state=b"\x2a", params={"knob": "value"},
        ))
        send(cluster, 0, 1, 8, match_bits=1)
        cluster.run()
        assert seen == {"state0": 42, "param": "value"}

    def test_initial_state_copied_once_and_state_persists(self):
        cluster = spin_cluster()
        seen = []

        def hh(ctx, hdr):
            ctx.state.raw[0] += 1
            seen.append(int(ctx.state.raw[0]))
            return ReturnCode.PROCEED

        cluster[1].post_me(0, spin_me(
            match_bits=1, length=1 << 20, header_handler=hh,
            hpu_memory=PtlHPUAllocMem(cluster[1], 64), initial_state=b"\x05",
        ))
        send(cluster, 0, 1, 8, match_bits=1)
        send(cluster, 0, 1, 8, match_bits=1)
        cluster.run()
        assert seen == [6, 7]


class TestTimingModel:
    def test_handler_cycles_advance_simulated_time(self):
        """500 instructions at 2.5 GHz must take 200 ns on the HPU."""
        cfg = integrated_config()
        cluster = Cluster(2, config=cfg, topology=UniformLatency(latency=0))
        spans = []

        def ph(ctx, pay):
            start = ctx.env.now
            ctx.charge(500)

            def rest():
                yield from ctx.elapse()
                spans.append(ctx.env.now - start)
                return ReturnCode.SUCCESS

            return rest()

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 64, match_bits=1)
        cluster.run()
        # 500 charged cycles + 2 invoke cycles pending at first elapse.
        assert spans[0] == ns(200.8)

    def test_hpu_busy_accounting(self):
        cluster = spin_cluster()

        def ph(ctx, pay):
            ctx.charge(250)  # 100 ns
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 64, match_bits=1)
        cluster.run()
        pool = cluster[1].nic.hpus
        assert pool.handlers_run == 1
        # invoke(2) + charge(250) + return(1) = 253 cycles = 101.2 ns
        assert pool.busy_ps == ns(101.2)


class TestFaults:
    def test_flow_control_on_hpu_exhaustion(self):
        cfg = integrated_config(hpu_count=1, max_pending_packets=1)
        cluster = spin_cluster(config=cfg)
        completions = []

        def ph(ctx, pay):
            ctx.charge(1_000_000)  # 400 us: all later packets pile up
            return ReturnCode.SUCCESS

        def ch(ctx, dropped, fc):
            completions.append((dropped, fc))
            return ReturnCode.SUCCESS

        eq = cluster[1].new_eq()
        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      completion_handler=ch, event_queue=eq,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 40_960, match_bits=1)  # 10 packets
        cluster.run()
        dropped, fc = completions[0]
        assert fc is True
        assert dropped > 0
        assert not cluster[1].ni.pt(0).enabled
        assert cluster[1].nic.flow_control_trips >= 1

    def test_handler_error_raises_event_once(self):
        cluster = spin_cluster()
        eq = cluster[1].new_eq()

        def ph(ctx, pay):
            return ReturnCode.FAIL

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      event_queue=eq,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 12_000, match_bits=1)  # 3 packets, 3 FAILs
        cluster.run()
        errors = [e for e in eq.drain() if e.kind == EventKind.HANDLER_ERROR]
        assert len(errors) == 1  # only the first error is reported (§B.4)

    def test_segv_on_bad_hpu_access(self):
        cluster = spin_cluster()

        def ph(ctx, pay):
            ctx.state.read(1 << 20, 4)  # way out of bounds
            return ReturnCode.SUCCESS

        cluster[1].post_me(0, spin_me(match_bits=1, payload_handler=ph,
                                      hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
        send(cluster, 0, 1, 64, match_bits=1)
        cluster.run()
        assert cluster[1].nic.handler_errors[0][1] == ReturnCode.SEGV


class TestChannel:
    def test_connect_installs_handlers(self):
        cluster = spin_cluster()
        got = []

        def ph(ctx, pay):
            got.append(bytes(pay.payload))
            return ReturnCode.SUCCESS

        chan = connect(cluster[1], peer=0, payload_handler=ph, hpu_mem_bytes=256)
        assert chan.channel_id > 0
        assert chan.hpu_memory.size == 256
        send(cluster, 0, 1, 5, match_bits=0, payload=np.frombuffer(b"hello", np.uint8))
        cluster.run()
        assert got == [b"hello"]

    def test_channel_peer_filter(self):
        cluster = spin_cluster(3)
        got = []

        def ph(ctx, pay):
            got.append(ctx.message.source)
            return ReturnCode.SUCCESS

        connect(cluster[2], peer=0, payload_handler=ph)
        # From rank 1: no matching channel → flow control; from rank 0: handled.
        send(cluster, 0, 2, 8)
        cluster.run()
        assert got == [0]
