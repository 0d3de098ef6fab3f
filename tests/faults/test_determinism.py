"""Fault determinism: identical plans replay byte-identically.

The injector's randomness comes from a dedicated ``random.Random`` whose
draws happen in kernel-event order, so a faulted run's canonical trace
bytes must match on every rerun — and a plan with no faults must leave
the trace byte-identical to an unfaulted run.
"""

from repro.faults import FaultPlan, PacketLoss
from repro.sim import Metrics, Session
from repro.sim.drivers import OpenLoopDriver, dedup_channel

TAG = 53

def _lossy_run(plan):
    """A traced lossy run with the full reliability stack engaged."""
    with Session.pair("int", trace=True) as sess:
        if plan is not None:
            sess.attach_faults(plan)
        dedup_channel(sess, 1, match_bits=TAG)
        metrics = Metrics()
        driver = OpenLoopDriver(
            sess, source=0, target=1, rate_mmps=2.0, count=24, size=2048,
            match_bits=TAG, seed=7, metrics=metrics,
            timeout_ns=15000.0, retries=4,
        )
        driver.start()
        sess.drain()
        driver.finalize()
        summary = metrics.summary(elapsed_ps=sess.env.now)
        return (summary["completed"], summary["retransmits"],
                sess.timeline.canonical_bytes())


def test_identical_plan_replays_identically():
    plan = FaultPlan(faults=(PacketLoss(0.3),), seed=23)
    first = _lossy_run(plan)
    assert first[1] > 0, "loss never triggered a retransmit — weak fixture"
    assert _lossy_run(plan) == first


def test_fault_seed_actually_steers_the_draws():
    a = _lossy_run(FaultPlan(faults=(PacketLoss(0.3),), seed=23))
    b = _lossy_run(FaultPlan(faults=(PacketLoss(0.3),), seed=24))
    assert a[2] != b[2]


def test_empty_plan_leaves_trace_byte_identical_to_no_plan():
    unfaulted = _lossy_run(None)
    armed_empty = _lossy_run(FaultPlan())
    assert armed_empty == unfaulted
