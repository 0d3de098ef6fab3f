"""Congestion fabric: link queues, tail-drop, and two contracts.

* **LogGP reduction** — a single uncontended flow sees exactly the
  delivery times the base fabric computes;
* **contention pins** — under randomized contention, the walk's
  timings, drops and link accounting match pinned digests.
"""

import hashlib
import json
import random

import pytest

from repro.des import Environment, ns
from repro.network import (
    CongestionFabric,
    Fabric,
    FatTree,
    LogGPParams,
    Message,
    NetworkParams,
    UniformLatency,
)


def params(mtu=4096, g=ns(6.7), G=20, depth=64, routing="ecmp", radix=4):
    return NetworkParams(
        loggp=LogGPParams(g_ps=g, G_ps_per_byte=G, mtu=mtu),
        link_queue_depth=depth,
        routing=routing,
        switch_radix=radix,
    )


def make(fabric_cls, p=None, topology=None):
    env = Environment()
    topo = topology or UniformLatency(latency=ns(100))
    return env, fabric_cls(env, topo, p or params())


def attach_sink(fabric, nid):
    received = []
    fabric.attach(nid, lambda pkt: received.append((fabric.env.now, pkt)))
    return received


class TestLogGPReduction:
    @pytest.mark.parametrize("length", (64, 4096, 16384))
    def test_single_message_delivery_times_identical(self, length):
        arrivals = {}
        for cls in (Fabric, CongestionFabric):
            env, fabric = make(cls)
            rx = attach_sink(fabric, 1)
            fabric.attach(0, lambda p: None)
            fabric.inject(Message(source=0, target=1, length=length))
            env.run()
            arrivals[cls] = [(t, p.seq) for t, p in rx]
        assert arrivals[Fabric] == arrivals[CongestionFabric]

    def test_single_flow_stream_identical(self):
        """Back-to-back messages of one flow: still exactly LogGP."""
        from repro.network.packets import reset_msg_ids

        rng = random.Random(7)
        sizes = [rng.choice((1, 512, 4096, 10000)) for _ in range(20)]
        arrivals = {}
        for cls in (Fabric, CongestionFabric):
            reset_msg_ids()
            env, fabric = make(cls)
            rx = attach_sink(fabric, 1)
            fabric.attach(0, lambda p: None)
            for size in sizes:
                fabric.inject(Message(source=0, target=1, length=size))
            env.run()
            arrivals[cls] = [(t, p.message.msg_id, p.seq) for t, p in rx]
        assert arrivals[Fabric] == arrivals[CongestionFabric]

    def test_single_flow_never_queues(self):
        env, fabric = make(CongestionFabric)
        attach_sink(fabric, 1)
        fabric.attach(0, lambda p: None)
        for _ in range(10):
            fabric.inject(Message(source=0, target=1, length=16384))
        env.run()
        assert fabric.max_link_queue() == 0
        assert fabric.total_link_drops() == 0

    def test_fattree_uncontended_matches_topology_latency(self):
        p = params()
        tree = FatTree(params=p, nhosts=16)
        env, fabric = make(CongestionFabric, p, topology=tree)
        rx = attach_sink(fabric, 15)
        fabric.attach(0, lambda pkt: None)
        fabric.inject(Message(source=0, target=15, length=64))
        env.run()
        assert rx[0][0] == 64 * 20 + tree.latency_ps(0, 15)

    def test_loopback_takes_no_links(self):
        env, fabric = make(CongestionFabric)
        rx = attach_sink(fabric, 0)
        fabric.inject(Message(source=0, target=0, length=64))
        env.run()
        assert rx[0][0] == 64 * 20  # source serialization only, zero latency
        assert fabric.links == {}  # loopback takes no links


class TestContention:
    def test_incast_serializes_on_ingress_port(self):
        """Two simultaneous senders: the second message's packets queue
        behind the first on the destination ingress link."""
        env, fabric = make(CongestionFabric, params(G=20, g=0))
        rx = attach_sink(fabric, 2)
        fabric.attach(0, lambda p: None)
        fabric.attach(1, lambda p: None)
        fabric.inject(Message(source=0, target=2, length=4096))
        fabric.inject(Message(source=1, target=2, length=4096))
        env.run()
        ser = 4096 * 20
        arrivals = sorted(t for t, _ in rx)
        # First packet at ser + L; the second had to wait a full slot.
        assert arrivals == [ser + ns(100), 2 * ser + ns(100)]
        assert fabric.max_link_queue() == 1
        ingress = fabric.links[(("xbar", 0), ("host", 2))]
        assert ingress.packets == 2
        assert ingress.wait_ps == ser

    def test_distinct_destinations_do_not_interfere(self):
        env, fabric = make(CongestionFabric, params(g=0))
        rx1 = attach_sink(fabric, 2)
        rx2 = attach_sink(fabric, 3)
        fabric.attach(0, lambda p: None)
        fabric.attach(1, lambda p: None)
        fabric.inject(Message(source=0, target=2, length=4096))
        fabric.inject(Message(source=1, target=3, length=4096))
        env.run()
        assert rx1[0][0] == rx2[0][0] == 4096 * 20 + ns(100)

    def test_tail_drop_at_depth(self):
        """depth=1: a burst of simultaneous single-packet messages keeps at
        most one waiter per link; the overflow is dropped and counted."""
        env, fabric = make(CongestionFabric, params(depth=1, g=0))
        rx = attach_sink(fabric, 8)
        for nid in range(8):
            fabric.attach(nid, lambda p: None)
        for src in range(8):
            fabric.inject(Message(source=src, target=8, length=4096))
        env.run()
        assert fabric.total_link_drops() > 0
        assert len(rx) + fabric.total_link_drops() == 8
        ingress = fabric.links[(("xbar", 0), ("host", 8))]
        assert ingress.drops == fabric.total_link_drops()
        assert ingress.max_queue <= 1

    def test_link_stats_shape(self):
        env, fabric = make(CongestionFabric)
        attach_sink(fabric, 1)
        fabric.attach(0, lambda p: None)
        fabric.inject(Message(source=0, target=1, length=8192))
        env.run()
        stats = fabric.link_stats(env.now)
        assert set(stats) == {"host0->xbar0", "xbar0->host1"}
        for s in stats.values():
            assert s["packets"] == 2
            assert s["drops"] == 0
            assert 0.0 < s["utilization"] <= 1.0
        for link in fabric.links.values():
            assert link.stats(env.now)["utilization"] == round(
                link.busy_ps / env.now, 4)
        assert fabric.max_link_utilization(env.now) > 0

    def test_detached_destination_counts_packets_dropped(self):
        env, fabric = make(CongestionFabric)
        fabric.attach(0, lambda p: None)
        attach_sink(fabric, 1)
        fabric.inject(Message(source=0, target=1, length=8192))
        fabric.detach(1)
        env.run()
        assert fabric.packets_dropped == 2
        assert fabric.packets_delivered == 0


def _contended_run(topology_kind, seed):
    """A randomized many-flow workload; returns timings + accounting."""
    p = params(depth=3, g=ns(50))
    if topology_kind == "fattree":
        topo = FatTree(params=p, nhosts=16)
    else:
        topo = UniformLatency(latency=ns(100))
    env = Environment()
    fabric = CongestionFabric(env, topo, p)
    deliveries = []
    for nid in range(16):
        fabric.attach(
            nid,
            lambda pkt: deliveries.append(
                (env.now, pkt.message.msg_id, pkt.seq, pkt.message.target)
            ),
        )
    rng = random.Random(seed)

    def burst():
        for _ in range(60):
            yield env.timeout(rng.randrange(0, 3000))
            src = rng.randrange(16)
            dst = rng.randrange(16)
            fabric.inject(Message(
                source=src, target=dst,
                length=rng.choice((0, 64, 4096, 9000, 20000)),
            ))

    env.process(burst())
    env.run()
    return deliveries, fabric.link_stats(env.now), fabric.total_link_drops()


class TestContentionPins:
    """The contended walk's output — deliveries, per-link accounting and
    the drop count — is pinned under randomized contention."""

    #: sha256 of ``json.dumps(_contended_run(...), sort_keys=True)``.
    DIGESTS = {
        ("xbar", 1): "de4fd5615f835e3e2e4b6ed1bbffb872f3202d3b79c7bfd09683e112ee31e4a5",
        ("xbar", 2): "f6be06e2f231dc1d3d54f567c60e65fccdd0fd0b41f44aa58c65495aecf2c915",
        ("xbar", 3): "6970d1c15788c6ebaddad4082b37d9200ee8ae21fcc3bcad7f755800395e34a4",
        ("fattree", 1): "c3c9eb210e4a242dbf3b2fcb12c3fe65ead66bae3772e1642fa6dde6b3944d51",
        ("fattree", 2): "622498fa043288350fafb93cda789511f732699326cbfe299942c7412178a16e",
        ("fattree", 3): "e028df116961a3d5512467960a6e2869aba7d047f8664c69f833c1524717131c",
    }

    @pytest.mark.parametrize("topology_kind", ("xbar", "fattree"))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_randomized_contention_pinned(self, topology_kind, seed):
        from repro.network.packets import reset_msg_ids

        reset_msg_ids()
        run = _contended_run(topology_kind, seed)
        assert run[2] > 0  # the pattern actually exercised tail-drop
        digest = hashlib.sha256(
            json.dumps(run, sort_keys=True).encode()).hexdigest()
        assert digest == self.DIGESTS[topology_kind, seed]
