"""FaultInjector behavior against live sessions, fault family by family."""

import pytest

from repro.core.handlers import ReturnCode
from repro.faults import (
    FaultPlan,
    HandlerFault,
    LinkDegrade,
    LinkDown,
    NodeCrash,
    PacketCorrupt,
    PacketLoss,
)
from repro.portals.matching import MatchEntry
from repro.sim import ClusterSpec, Metrics, Session
from repro.sim.drivers import OpenLoopDriver

TAG = 52


def _drive(sess, count=64, size=64, rate=4.0, seed=5, **kwargs):
    metrics = Metrics()
    driver = OpenLoopDriver(
        sess, source=0, target=1, rate_mmps=rate, count=count, size=size,
        match_bits=TAG, seed=seed, metrics=metrics, **kwargs)
    driver.start()
    sess.drain()
    driver.finalize()
    return metrics.summary(elapsed_ps=sess.env.now)


class TestDefaultPathPurity:
    def test_unfaulted_session_carries_no_fault_hooks(self):
        with Session.pair("int") as sess:
            fabric = sess.cluster.fabric
            assert "_dispatch" not in fabric.__dict__
            assert "_deliver" not in fabric.__dict__
            assert "_handler_fault" not in sess[1].nic.__dict__
            assert sess[1].nic._handler_fault is None

    def test_empty_plan_arms_nothing(self):
        with Session.pair("int") as sess:
            inj = sess.attach_faults(FaultPlan())
            assert "_dispatch" not in sess.cluster.fabric.__dict__
            assert inj.summary()["crashes"] == 0


class TestPacketLoss:
    def test_loss_rate_tracks_configured_probability(self):
        p = 0.25
        with Session.pair("int") as sess:
            sess.attach_faults(FaultPlan(faults=(PacketLoss(p),), seed=17))
            sess.install(1, MatchEntry(match_bits=TAG, length=1 << 30))
            _drive(sess, count=200, size=64)
            fabric = sess.cluster.fabric
            lost = fabric.fault_packets_lost
            total = lost + fabric.packets_delivered
        # ~400 single-packet messages+ACKs: 3 sigma of a Bernoulli(0.25)
        # at n=400 is ~0.065 — the band below is comfortably outside it,
        # and the draw sequence is seeded, so this never flakes.
        assert total >= 300
        assert abs(lost / total - p) < 0.08

    def test_loss_window_only_applies_inside_it(self):
        with Session.pair("int") as sess:
            sess.attach_faults(FaultPlan(
                faults=(PacketLoss(1.0, start_ns=0.0, stop_ns=1.0),),
                seed=1,
            ))
            sess.install(1, MatchEntry(match_bits=TAG, length=1 << 30))
            # Injection reaches the fabric after host overhead >> 1 ns...
            # use a window guaranteed over before the first dispatch.
            summary = _drive(sess, count=8)
            assert summary["completed"] == 8
            assert sess.cluster.fabric.fault_packets_lost == 0

    def test_total_loss_completes_nothing(self):
        with Session.pair("int") as sess:
            sess.attach_faults(FaultPlan(faults=(PacketLoss(1.0),), seed=1))
            sess.install(1, MatchEntry(match_bits=TAG, length=1 << 30))
            summary = _drive(sess, count=8)
            assert summary["completed"] == 0
            assert sess.cluster.fabric.fault_packets_lost > 0


class TestPacketCorruption:
    def test_corrupted_packets_traverse_then_die_at_delivery(self):
        with Session.pair("int") as sess:
            sess.attach_faults(FaultPlan(faults=(PacketCorrupt(1.0),), seed=1))
            sess.install(1, MatchEntry(match_bits=TAG, length=1 << 30))
            summary = _drive(sess, count=6)
            fabric = sess.cluster.fabric
            assert summary["completed"] == 0
            assert fabric.fault_packets_corrupted > 0
            assert fabric.packets_delivered == 0
            # The CRC drop happens before any rx state exists: no orphan
            # or stalled receive-side accounting.
            assert fabric.rx_orphan_packets() == 0

    def test_corruption_mark_purged_when_packet_dropped_en_route(self):
        """A corrupted packet the fabric drops never reaches _deliver; its
        mark must be purged at the drop site, not pinned for the run."""
        spec = ClusterSpec(nodes=2, config="int", fabric="congestion")
        with Session(spec) as sess:
            inj = sess.attach_faults(FaultPlan(faults=(
                PacketCorrupt(1.0),
                LinkDown(pattern="->host1", at_ns=0.0, duration_ns=1e9),
            ), seed=1))
            sess.install(1, MatchEntry(match_bits=TAG, length=1 << 30))
            _drive(sess, count=8)
            fabric = sess.cluster.fabric
            assert fabric.total_fault_link_drops() > 0
            assert not inj._corrupted


class TestLinkFaults:
    def test_link_faults_require_congestion_fabric(self):
        with Session.pair("int") as sess:
            with pytest.raises(ValueError, match="congestion"):
                sess.attach_faults(FaultPlan(faults=(
                    LinkDown(pattern="xbar", at_ns=0.0, duration_ns=10.0),)))

    def test_link_down_window_drops_then_heals(self):
        spec = ClusterSpec(nodes=2, config="int", fabric="congestion")
        with Session(spec) as sess:
            sess.attach_faults(FaultPlan(faults=(
                LinkDown(pattern="->host1", at_ns=0.0, duration_ns=8000.0),)))
            sess.install(1, MatchEntry(match_bits=TAG, length=1 << 30))
            summary = _drive(sess, count=16, rate=1.0)
            fabric = sess.cluster.fabric
            assert fabric.total_fault_link_drops() > 0
            assert fabric.fault_link_down_events == 1
            # The outage window closed: later requests got through, and
            # no link is left marked down.
            assert summary["completed"] > 0
            assert fabric.links_down() == 0

    def test_degraded_link_stretches_the_run(self):
        def run(faults):
            spec = ClusterSpec(nodes=2, config="int", fabric="congestion")
            with Session(spec) as sess:
                sess.attach_faults(FaultPlan(faults=faults))
                sess.install(1, MatchEntry(match_bits=TAG, length=1 << 30))
                summary = _drive(sess, count=16, size=4096, rate=8.0)
                assert summary["completed"] == 16
                return sess.env.now

        healthy = run(())
        degraded = run((LinkDegrade(pattern="->host1", at_ns=0.0,
                                    duration_ns=1e6, tx_scale=8),))
        assert degraded > healthy


class TestNodeCrash:
    def test_crash_detaches_and_kills_sends(self):
        with Session.pair("int") as sess:
            inj = sess.attach_faults(FaultPlan(faults=(
                NodeCrash(rank=1, at_ns=0.0),)))
            sess.install(1, MatchEntry(match_bits=TAG, length=1 << 30))
            summary = _drive(sess, count=6)
            fabric = sess.cluster.fabric
            assert inj.crashed == [1]
            assert summary["completed"] == 0
            assert fabric.packets_dropped > 0  # traffic toward the corpse

            # The corpse "sending" vanishes silently instead of raising.
            def from_the_dead():
                yield from sess[1].host_put(0, 64, match_bits=TAG)

            sess.process(from_the_dead())
            sess.drain()
            assert fabric.messages_from_dead == 1

    def test_crash_of_missing_rank_rejected_at_attach(self):
        with Session.pair("int") as sess:
            with pytest.raises(ValueError, match="rank 9.*2 nodes"):
                sess.attach_faults(FaultPlan(faults=(
                    NodeCrash(rank=9, at_ns=10.0),)))
            # Nothing was scheduled: the run reaches quiescence at t=0.
            sess.run()
            assert sess.env.now == 0

    def test_crash_is_idempotent(self):
        with Session.pair("int") as sess:
            inj = sess.attach_faults(FaultPlan(faults=(
                NodeCrash(rank=1, at_ns=0.0),
                NodeCrash(rank=1, at_ns=5.0),)))
            sess.run()
            assert inj.crashed == [1]


class TestHandlerFaults:
    def _channel_session(self):
        sess = Session.pair("int")
        served = []

        def header(ctx, h):
            ctx.charge(8)
            served.append(h.hdr_data)
            return ReturnCode.PROCEED

        sess.connect(1, match_bits=TAG, length=1 << 30,
                     header_handler=header, hpu_mem_bytes=256)
        return sess, served

    def test_handler_fault_drives_error_machinery(self):
        sess, _ = self._channel_session()
        with sess:
            inj = sess.attach_faults(FaultPlan(faults=(
                HandlerFault(rank=1, probability=1.0),)))
            summary = _drive(sess, count=4)
            nic = sess[1].nic
            assert inj.handler_faults_injected > 0
            assert nic.handler_errors
            assert all(code.is_error for _, code in nic.handler_errors)
            # Errored messages still complete toward the initiator (the
            # ME acks), so the driver is not left hanging.
            assert summary["completed"] == 4

    def test_handler_fault_probability_zero_is_a_noop(self):
        sess, served = self._channel_session()
        with sess:
            sess.attach_faults(FaultPlan(faults=(
                HandlerFault(rank=1, probability=0.0),), seed=9))
            summary = _drive(sess, count=4)
            assert summary["completed"] == 4
            assert not sess[1].nic.handler_errors
            assert len(served) == 4

    def test_handler_fault_on_missing_rank_rejected_at_attach(self):
        with Session.pair("int") as sess:
            with pytest.raises(ValueError, match="HandlerFault.*2 nodes"):
                sess.attach_faults(FaultPlan(faults=(
                    HandlerFault(rank=9),)))
            assert all(m.nic._handler_fault is None
                       for m in sess.cluster.machines)
