#!/usr/bin/env python3
"""Load-testing the NIC: workload drivers + first-class metrics.

Shows the ``repro.sim`` load layer end to end: an open-loop offered-rate
sweep against a handler channel (latency percentiles to saturation), then
a closed-loop client population with think time, then the registered
``mixed_tenants`` campaign scenario.

Run:  python examples/load_testing.py
"""

from repro.campaign.registry import get_scenario
from repro.core import ReturnCode
from repro.sim import (ClosedLoopDriver, Metrics, OpenLoopDriver, Session,
                       run_drivers)

LOAD_TAG = 40


def open_loop_sweep() -> None:
    print("open-loop offered-rate sweep, 16 KiB puts into a sPIN channel:")
    print(f"{'offered':>8s} {'achieved':>9s} {'p50':>9s} {'p99':>9s}")
    for rate_mmps in (0.5, 1.0, 2.0, 4.0):
        with Session.pair("int") as sess:
            def count_header_handler(ctx, h):
                ctx.charge(16)
                return ReturnCode.PROCEED

            sess.connect(1, match_bits=LOAD_TAG, length=1 << 30,
                         header_handler=count_header_handler)
            metrics = Metrics()
            run_drivers(sess, [OpenLoopDriver(
                sess, source=0, target=1, rate_mmps=rate_mmps, count=64,
                size=16384, match_bits=LOAD_TAG, seed=1, metrics=metrics,
            )])
            s = metrics.summary(elapsed_ps=sess.env.now)
        achieved = s["completed"] / (sess.env.now / 1e6)
        print(f"{rate_mmps:7.1f}M {achieved:8.2f}M "
              f"{s['p50_ns']:8.0f}n {s['p99_ns']:8.0f}n")
    print("(the 50 GB/s wire saturates near 3 Mmps at 16 KiB: latency"
          " blows up past the knee)\n")


def closed_loop_population() -> None:
    print("closed-loop population, 8 clients on 2 hosts, 1 us think time:")
    with Session.pair("int", nodes=3) as sess:
        def serve_header_handler(ctx, h):
            ctx.charge(32)
            return ReturnCode.DROP

        sess.connect(2, match_bits=LOAD_TAG,
                     header_handler=serve_header_handler)
        metrics = Metrics()
        run_drivers(sess, [ClosedLoopDriver(
            sess, sources=(0, 1), clients=8, requests_per_client=12,
            think_ns=1000.0, target=2, size=512, match_bits=LOAD_TAG,
            seed=7, metrics=metrics,
        )])
        s = metrics.summary(elapsed_ps=sess.env.now)
    print(f"  {s['completed']} requests, p50 {s['p50_ns']:.0f} ns, "
          f"p99 {s['p99_ns']:.0f} ns, "
          f"{s['throughput_rps'] / 1e6:.2f} M requests/s\n")


def campaign_scenario() -> None:
    print("mixed_tenants campaign scenario (count/scan/echo channels on"
          " one NIC):")
    result = get_scenario("mixed_tenants").run()
    for key in sorted(result):
        print(f"  {key} = {result[key]}")


if __name__ == "__main__":
    open_loop_sweep()
    closed_loop_population()
    campaign_scenario()
