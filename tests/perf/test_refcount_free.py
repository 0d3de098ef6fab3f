"""A finished simulation frees itself by reference count.

Owners hold their children strongly (Session → Cluster → Machine → NIC,
DMA and NI; Cluster → Fabric) and no child holds its owner, so a drained
run that nothing references leaves no reference cycle for the collector
to find.  Each point runs once to warm up (first-run imports and caches
are not garbage), then again with the collector paused; the collection
after it must find nothing.

Runs under an :class:`~repro.obs.capture.ObsCapture` are not covered:
the observer and its session still reference each other.
"""

import gc

import pytest

from repro.campaign.registry import get_scenario, load_builtins
from repro.core.handlers import ReturnCode
from repro.faults import (
    FaultPlan,
    HandlerFault,
    LinkDegrade,
    PacketCorrupt,
    PacketLoss,
)
from repro.sim import ClusterSpec, Metrics, Session
from repro.sim.drivers import OpenLoopDriver

from test_behaviour_contract import builtin_scenarios

load_builtins()

#: Every built-in ``--tiny`` point, plus a 64-process Fig 5a broadcast
#: and a Table 5c MILC run at their figure scale.
POINTS = {f"{name} --tiny": (name, dict(get_scenario(name).tiny))
          for name in builtin_scenarios()}
POINTS["broadcast procs=64"] = ("broadcast", {"procs": 64})
POINTS["apps_matching app=MILC"] = ("apps_matching", {"app": "MILC"})


def cyclic_garbage(run) -> int:
    """Objects a collection finds in reference cycles after ``run()``."""
    run()  # warm-up
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("point", sorted(POINTS))
def test_point_leaves_no_cyclic_garbage(point):
    name, params = POINTS[point]
    scenario = get_scenario(name)
    found = cyclic_garbage(lambda: scenario.run(params))
    assert found == 0, f"{point}: {found} objects left in reference cycles"


def _faulted_run(fabric: str, faults: tuple) -> None:
    """A lossy ping-pong (retransmits through an ACKed header-handler
    channel) with ``faults`` attached."""
    with Session(ClusterSpec(nodes=2, fabric=fabric)) as sess:
        def header(ctx, h):
            ctx.charge(8)
            return ReturnCode.PROCEED

        sess.connect(1, match_bits=7, length=1 << 30, header_handler=header,
                     hpu_mem_bytes=256)
        sess.attach_faults(FaultPlan(faults=faults, seed=3))
        driver = OpenLoopDriver(
            sess, source=0, target=1, rate_mmps=2.0, count=32, size=2048,
            match_bits=7, seed=5, metrics=Metrics(), timeout_ns=20000.0,
            retries=6)
        driver.start()
        sess.drain()
        driver.finalize()


FAULTED = {
    "loggp loss+corrupt+handler": ("loggp", (
        PacketLoss(0.1), PacketCorrupt(0.1),
        HandlerFault(rank=1, probability=0.3))),
    "congestion loss+corrupt+degrade": ("congestion", (
        PacketLoss(0.1), PacketCorrupt(0.1),
        LinkDegrade("->host1", at_ns=0.0, duration_ns=5000.0))),
}


@pytest.mark.parametrize("case", sorted(FAULTED))
def test_faulted_run_leaves_no_cyclic_garbage(case):
    fabric, faults = FAULTED[case]
    found = cyclic_garbage(lambda: _faulted_run(fabric, faults))
    assert found == 0, f"{case}: {found} objects left in reference cycles"
