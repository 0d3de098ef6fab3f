"""Tests for the §5.1 message-matching protocols (Fig. 5b cases I–IV)."""

import pytest

from repro.core.nic import SpinNIC
from repro.des import ns
from repro.experiments.common import pair_session
from repro.machine.config import integrated_config
from repro.portals.types import ANY_SOURCE
from repro.runtime import MPIEndpoint

EAGER = 1024
LARGE = 1 << 17  # beyond the default eager threshold


def make_pair(protocol, **kw):
    cluster = pair_session(integrated_config(), with_memory=False).cluster
    a = MPIEndpoint(cluster[0], protocol, **kw)
    b = MPIEndpoint(cluster[1], protocol, **kw)
    return cluster, a, b


def run_exchange(cluster, sender_proc, receiver_proc):
    env = cluster.env
    results = {}

    def s():
        results["send"] = yield from sender_proc()

    def r():
        results["recv"] = yield from receiver_proc()

    env.process(s())
    proc = env.process(r())
    env.run(until=proc)
    cluster.run()
    return results


@pytest.mark.parametrize("protocol", ["rdma", "p4", "spin"])
class TestEagerDelivery:
    def test_preposted_receive_completes(self, protocol):
        cluster, a, b = make_pair(protocol)

        def sender():
            yield cluster.env.timeout(ns(500))  # recv posts first
            req = yield from a.send(1, EAGER, tag=7)
            return req

        def receiver():
            req = yield from b.recv(0, EAGER, tag=7)
            yield from b.wait(req)
            return req

        results = run_exchange(cluster, sender, receiver)
        assert results["recv"].done.triggered
        assert not results["recv"].matched_unexpected

    def test_unexpected_receive_completes_with_copy(self, protocol):
        cluster, a, b = make_pair(protocol)

        def sender():
            return (yield from a.send(1, EAGER, tag=7))

        def receiver():
            yield cluster.env.timeout(ns(20_000))  # message arrives first
            req = yield from b.recv(0, EAGER, tag=7)
            yield from b.wait(req)
            return req

        results = run_exchange(cluster, sender, receiver)
        req = results["recv"]
        assert req.done.triggered
        assert req.matched_unexpected
        assert req.copied  # case III: the late receive pays a copy

    def test_wildcard_source(self, protocol):
        cluster, a, b = make_pair(protocol)

        def sender():
            return (yield from a.send(1, EAGER, tag=9))

        def receiver():
            req = yield from b.recv(ANY_SOURCE, EAGER, tag=9)
            yield from b.wait(req)
            return req

        assert run_exchange(cluster, sender, receiver)["recv"].done.triggered


class TestCopyBehaviour:
    def test_rdma_always_copies_eager(self):
        """Fig 5b: RDMA copies even preposted receives; P4/sPIN save it."""
        cluster, a, b = make_pair("rdma")

        def sender():
            yield cluster.env.timeout(ns(500))
            return (yield from a.send(1, EAGER, tag=1))

        def receiver():
            req = yield from b.recv(0, EAGER, tag=1)
            yield from b.wait(req)
            return req

        assert run_exchange(cluster, sender, receiver)["recv"].copied

    @pytest.mark.parametrize("protocol", ["p4", "spin"])
    def test_offloaded_preposted_zero_copy(self, protocol):
        cluster, a, b = make_pair(protocol)

        def sender():
            yield cluster.env.timeout(ns(500))
            return (yield from a.send(1, EAGER, tag=1))

        def receiver():
            req = yield from b.recv(0, EAGER, tag=1)
            yield from b.wait(req)
            return req

        req = run_exchange(cluster, sender, receiver)["recv"]
        assert req.done.triggered and not req.copied


@pytest.mark.parametrize("protocol", ["rdma", "p4", "spin"])
class TestRendezvous:
    def test_preposted_large_transfer_completes(self, protocol):
        cluster, a, b = make_pair(protocol)

        def sender():
            yield cluster.env.timeout(ns(500))
            req = yield from a.send(1, LARGE, tag=3)
            yield from a.wait(req)
            return req

        def receiver():
            req = yield from b.recv(0, LARGE, tag=3)
            yield from b.wait(req)
            return req

        results = run_exchange(cluster, sender, receiver)
        assert results["recv"].done.triggered
        assert results["send"].done.triggered  # sender sees the get served

    def test_unexpected_large_transfer_completes(self, protocol):
        cluster, a, b = make_pair(protocol)

        def sender():
            req = yield from a.send(1, LARGE, tag=3)
            yield from a.wait(req)
            return req

        def receiver():
            yield cluster.env.timeout(ns(30_000))
            req = yield from b.recv(0, LARGE, tag=3)
            yield from b.wait(req)
            return req

        results = run_exchange(cluster, sender, receiver)
        assert results["recv"].done.triggered
        assert results["send"].done.triggered


class TestOverlap:
    """§5.1's core claim: sPIN rendezvous progresses without the CPU."""

    def _overlap_run(self, protocol):
        """recv posted, then the CPU 'computes' while data should flow."""
        cluster, a, b = make_pair(protocol)
        env = cluster.env
        times = {}

        def sender():
            req = yield from a.send(1, LARGE, tag=5)
            yield from a.wait(req)

        def receiver():
            req = yield from b.recv(0, LARGE, tag=5)
            # Long independent computation: an offloaded protocol moves the
            # data during this window; a CPU protocol starts at wait().
            yield from b.machine.cpu.run(ns(400_000), "compute")
            t0 = env.now
            yield from b.wait(req)
            times["wait"] = env.now - t0

        env.process(sender())
        proc = env.process(receiver())
        env.run(until=proc)
        cluster.run()
        return times["wait"]

    def test_spin_overlaps_rendezvous(self):
        """sPIN's wait is (nearly) free; rdma/p4 pay the transfer in wait."""
        spin_wait = self._overlap_run("spin")
        rdma_wait = self._overlap_run("rdma")
        p4_wait = self._overlap_run("p4")
        assert spin_wait < rdma_wait / 3
        assert spin_wait < p4_wait / 3

    def test_stall_accounting(self):
        cluster, a, b = make_pair("rdma")
        env = cluster.env

        def sender():
            req = yield from a.send(1, LARGE, tag=5)
            yield from a.wait(req)

        def receiver():
            req = yield from b.recv(0, LARGE, tag=5)
            yield from b.wait(req)

        env.process(sender())
        proc = env.process(receiver())
        env.run(until=proc)
        cluster.run()
        assert b.rendezvous_stalls == 1


class TestOrderingAndTags:
    def test_two_tags_matched_correctly(self):
        cluster, a, b = make_pair("spin")
        env = cluster.env
        got = {}

        def sender():
            yield from a.send(1, 64, tag=1)
            yield from a.send(1, 128, tag=2)

        def receiver():
            r2 = yield from b.recv(0, 128, tag=2)
            r1 = yield from b.recv(0, 64, tag=1)
            yield from b.wait(r1)
            yield from b.wait(r2)
            got["r1"], got["r2"] = r1, r2

        env.process(sender())
        proc = env.process(receiver())
        env.run(until=proc)
        cluster.run()
        assert got["r1"].done.triggered and got["r2"].done.triggered
