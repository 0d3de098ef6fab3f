"""Fault determinism: identical plans replay byte-identically everywhere.

The injector's randomness comes from a dedicated ``random.Random`` whose
draws happen in kernel-event order; both fast-path flavours pin that
order, so a faulted run's canonical trace bytes must match across them —
and a plan with no faults must leave the trace byte-identical to an
unfaulted run.
"""

import pytest

from repro.faults import FaultPlan, PacketLoss
from repro.sim import Metrics, Session
from repro.sim.drivers import OpenLoopDriver, dedup_channel

TAG = 53

#: Walk flavours: the fast callback chains and the generator reference paths.
FLAVOURS = (True, False)


def _set_flavour(monkeypatch, fast: bool) -> None:
    monkeypatch.setenv("REPRO_FABRIC_FAST_PATH", "1" if fast else "0")
    monkeypatch.setenv("REPRO_NIC_FAST_RX", "1" if fast else "0")


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


def test_identical_plan_replays_identically_across_all_flavours(monkeypatch):
    results = []
    for fast in FLAVOURS:
        _set_flavour(monkeypatch, fast)
        results.append(_lossy_run(FaultPlan(faults=(PacketLoss(0.3),),
                                            seed=23)))
    first = results[0]
    assert first[1] > 0, "loss never triggered a retransmit — weak fixture"
    for other, fast in zip(results[1:], FLAVOURS[1:]):
        assert other == first, f"flavour (fast={fast}) diverged"


def test_fault_seed_actually_steers_the_draws(monkeypatch):
    _set_flavour(monkeypatch, True)
    a = _lossy_run(FaultPlan(faults=(PacketLoss(0.3),), seed=23))
    b = _lossy_run(FaultPlan(faults=(PacketLoss(0.3),), seed=24))
    assert a[2] != b[2]


def test_empty_plan_leaves_trace_byte_identical_to_no_plan(monkeypatch):
    _set_flavour(monkeypatch, True)
    unfaulted = _lossy_run(None)
    armed_empty = _lossy_run(FaultPlan())
    assert armed_empty == unfaulted


@pytest.mark.parametrize("fast", FLAVOURS)
def test_same_flavour_rerun_is_bitwise_stable(monkeypatch, fast):
    _set_flavour(monkeypatch, fast)
    plan = FaultPlan(faults=(PacketLoss(0.3),), seed=23)
    assert _lossy_run(plan) == _lossy_run(plan)
