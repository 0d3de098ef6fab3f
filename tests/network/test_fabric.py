"""Tests for the packet-level fabric (timing and delivery semantics)."""

import numpy as np
import pytest

from repro.des import Environment, Timeline, ns
from repro.network import Fabric, LogGPParams, Message, NetworkParams, UniformLatency


def make_fabric(env, latency=ns(100), mtu=4096, g=ns(6.7), G=20, timeline=None):
    params = NetworkParams(loggp=LogGPParams(g_ps=g, G_ps_per_byte=G, mtu=mtu))
    return Fabric(env, UniformLatency(latency=latency), params, timeline=timeline)


def collect_rx(fabric, nid):
    received = []
    fabric.attach(nid, lambda pkt: received.append((fabric.env.now, pkt)))
    return received


class TestDelivery:
    def test_single_packet_arrival_time(self):
        env = Environment()
        fabric = make_fabric(env, latency=ns(100))
        rx = collect_rx(fabric, 1)
        fabric.attach(0, lambda p: None)
        msg = Message(source=0, target=1, length=64,
                      payload=np.full(64, ord("x"), np.uint8))
        fabric.inject(msg)
        env.run()
        # serialization 64B*20ps = 1.28ns, then L = 100ns
        assert len(rx) == 1
        assert rx[0][0] == 64 * 20 + ns(100)

    def test_multi_packet_message_pipelining(self):
        env = Environment()
        fabric = make_fabric(env, latency=ns(100), mtu=1024)
        rx = collect_rx(fabric, 1)
        fabric.attach(0, lambda p: None)
        msg = Message(source=0, target=1, length=4096)
        fabric.inject(msg)
        env.run()
        assert len(rx) == 4
        ser = 1024 * 20  # per-packet serialization
        arrivals = [t for t, _ in rx]
        assert arrivals == [ser + ns(100) + i * ser for i in range(4)]
        # Packets arrive in order.
        assert [p.seq for _, p in rx] == [0, 1, 2, 3]

    def test_message_rate_gap_between_messages(self):
        env = Environment()
        fabric = make_fabric(env, latency=0, g=ns(1000), G=0)
        rx = collect_rx(fabric, 1)
        fabric.attach(0, lambda p: None)
        for _ in range(3):
            fabric.inject(Message(source=0, target=1, length=1))
        env.run()
        arrivals = [t for t, _ in rx]
        assert arrivals == [0, ns(1000), ns(2000)]

    def test_distinct_sources_do_not_serialize(self):
        env = Environment()
        fabric = make_fabric(env, latency=0, g=ns(1000), G=0)
        rx = collect_rx(fabric, 2)
        fabric.attach(0, lambda p: None)
        fabric.attach(1, lambda p: None)
        fabric.inject(Message(source=0, target=2, length=1))
        fabric.inject(Message(source=1, target=2, length=1))
        env.run()
        assert [t for t, _ in rx] == [0, 0]

    def test_loopback_zero_latency(self):
        env = Environment()
        fabric = make_fabric(env, latency=ns(500), G=0)
        rx = collect_rx(fabric, 0)
        fabric.inject(Message(source=0, target=0, length=1))
        env.run()
        assert rx[0][0] == 0

    def test_payload_travels_intact(self):
        env = Environment()
        fabric = make_fabric(env, mtu=16)
        rx = collect_rx(fabric, 1)
        fabric.attach(0, lambda p: None)
        data = np.arange(64, dtype=np.uint8)
        fabric.inject(Message(source=0, target=1, length=64, payload=data))
        env.run()
        got = np.concatenate([p.payload for _, p in rx])
        assert np.array_equal(got, data)


class TestErrorsAndEdge:
    def test_unattached_source_rejected(self):
        env = Environment()
        fabric = make_fabric(env)
        with pytest.raises(ValueError):
            fabric.inject(Message(source=9, target=1, length=1))

    def test_double_attach_rejected(self):
        env = Environment()
        fabric = make_fabric(env)
        fabric.attach(0, lambda p: None)
        with pytest.raises(ValueError):
            fabric.attach(0, lambda p: None)

    def test_detached_destination_drops_packets(self):
        env = Environment()
        fabric = make_fabric(env)
        fabric.attach(0, lambda p: None)
        rx = collect_rx(fabric, 1)
        fabric.detach(1)
        fabric.inject(Message(source=0, target=1, length=8))
        env.run()
        assert rx == []
        assert fabric.packets_delivered == 0
        assert fabric.packets_dropped == 1

    def test_detach_drop_accounting_per_packet(self):
        """Regression: detached-node losses used to vanish without a
        counter — every undeliverable packet must be accounted."""
        env = Environment()
        fabric = make_fabric(env, mtu=1024)
        fabric.attach(0, lambda p: None)
        collect_rx(fabric, 1)
        fabric.inject(Message(source=0, target=1, length=4096))
        # Detach mid-flight: all 4 packets are already on the wire.
        fabric.detach(1)
        env.run()
        assert fabric.packets_dropped == 4
        assert fabric.packets_delivered == 0
        # A healthy destination afterwards is unaffected.
        collect_rx(fabric, 2)
        fabric.inject(Message(source=0, target=2, length=4096))
        env.run()
        assert fabric.packets_delivered == 4
        assert fabric.packets_dropped == 4

    def test_counters(self):
        env = Environment()
        fabric = make_fabric(env, mtu=1024)
        collect_rx(fabric, 1)
        fabric.attach(0, lambda p: None)
        fabric.inject(Message(source=0, target=1, length=4096))
        env.run()
        assert fabric.messages_injected == 1
        assert fabric.packets_delivered == 4

    def test_timeline_spans_recorded(self):
        env = Environment()
        tl = Timeline()
        fabric = make_fabric(env, timeline=tl, mtu=1024)
        collect_rx(fabric, 1)
        fabric.attach(0, lambda p: None)
        fabric.inject(Message(source=0, target=1, length=2048))
        env.run()
        assert tl.busy_time(0, "NIC-tx") == 2048 * 20

    def test_inject_event_fires_at_tx_complete(self):
        env = Environment()
        fabric = make_fabric(env, latency=ns(1000), mtu=1024, g=0)
        collect_rx(fabric, 1)
        fabric.attach(0, lambda p: None)
        done = fabric.inject(Message(source=0, target=1, length=2048))
        result = env.run(until=done)
        # TX completes after serializing both packets, before arrival+latency.
        assert result == 2 * 1024 * 20


class TestDetachLeaks:
    def test_detach_removes_all_node_state(self):
        """Regression: detach used to pop only _rx, leaking the node's
        RateLimiter and wire Server forever."""
        env = Environment()
        fabric = make_fabric(env)
        for nid in range(3):
            fabric.attach(nid, lambda p: None)
        fabric.detach(1)
        assert 1 not in fabric._rx
        assert 1 not in fabric._msg_limiter
        assert 1 not in fabric._wire

    def test_attach_detach_cycles_do_not_grow_state(self):
        env = Environment()
        fabric = make_fabric(env)
        fabric.attach(0, lambda p: None)
        for _ in range(50):
            fabric.attach(7, lambda p: None)
            msg = Message(source=0, target=7, length=256)
            fabric.inject(msg)
            env.run()
            fabric.detach(7)
        assert len(fabric._rx) == 1
        assert len(fabric._msg_limiter) == 1
        assert len(fabric._wire) == 1

    def test_packets_to_detached_node_dropped_without_residue(self):
        env = Environment()
        fabric = make_fabric(env, latency=ns(100))
        fabric.attach(0, lambda p: None)
        seen = collect_rx(fabric, 1)
        msg = Message(source=0, target=1, length=8192)
        fabric.inject(msg)
        # Detach the destination while packets are on the wire.
        fabric.detach(1)
        env.run()
        assert seen == []
        assert fabric.packets_delivered == 0
        assert fabric.packets_dropped == 2
        assert 1 not in fabric._wire and 1 not in fabric._msg_limiter
