#!/usr/bin/env python3
"""A million simulated clients in fixed memory: the serving-at-scale stack.

Shows the aggregated population layer end to end: a
:class:`PopulationDriver` representing 1,000,000 closed-loop clients as a
*rate* (machine-repairman arrivals — per-request state exists only while
a request is in flight), latencies accumulated in fixed-memory sketches
(``Metrics(sketch_capacity=512)``), and the registered ``kv_serving``
scenario with its time-resolved SLO curve.

This example doubles as the CI memory gate: it asserts that peak RSS
stays inside a fixed budget no matter the population size — the property
that makes million-client serving simulations possible at all.

Run:  python examples/million_clients.py
"""

import resource
import sys

from repro.campaign.registry import get_scenario
from repro.core import ReturnCode
from repro.sim import (Metrics, PopulationDriver, Session, ZipfSampler,
                       run_drivers)
from repro.sim.serving import diurnal_profile

TAG = 40

#: Peak-RSS ceiling for the whole script (MiB).  The interpreter plus the
#: simulator baseline is well under half of this; the headroom is there so
#: the gate trips on O(population) regressions, not on allocator noise.
RSS_BUDGET_MIB = 512


def peak_rss_mib() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return usage / 1024.0 if sys.platform != "darwin" else usage / (1 << 20)


def million_client_population() -> None:
    print("1,000,000 closed-loop clients, 250 ms think -> 4 Mmps offered:")
    with Session.pair("int", nodes=3) as sess:
        def serve_header_handler(ctx, h):
            ctx.charge(24)
            return ReturnCode.DROP

        sess.connect(2, match_bits=TAG, length=1 << 30,
                     header_handler=serve_header_handler)
        metrics = Metrics(sketch_capacity=512)  # fixed-memory latency sinks
        driver = PopulationDriver(
            sess, sources=(0, 1), population=1_000_000, requests=3000,
            think_ns=2.5e8, target=2, match_bits=TAG, seed=1,
            metrics=metrics, max_in_flight=4096,
            load_profile=diurnal_profile(500_000.0),  # day/night swing
        )
        run_drivers(sess, [driver])
        s = metrics.summary(elapsed_ps=sess.env.now)
    print(f"  completed {s['completed']}, p50 {s['p50_ns']:.0f} ns, "
          f"p99 {s['p99_ns']:.0f} ns, p999 {s['p999_ns']:.0f} ns")
    print(f"  peak in-flight requests: {driver.peak_in_flight} "
          f"(the only per-request state that ever existed)")
    sketch = metrics.total().sketch
    print(f"  latency samples retained: {sketch.retained()} of "
          f"{sketch.count} recorded (bounded sketch)\n")
    assert s["completed"] == 3000
    assert driver.peak_in_flight <= 4096


def zipf_head() -> None:
    print("Zipf(0.99) over 1M keys — the head the KV tier actually sees:")
    zipf = ZipfSampler(1_000_000, theta=0.99, seed=1)
    draws = [zipf.sample() for _ in range(20_000)]
    for rank in range(3):
        print(f"  rank {rank}: analytic {zipf.probability(rank):.3%}, "
              f"empirical {draws.count(rank) / len(draws):.3%}")
    print()


def kv_serving_scenario() -> None:
    print("registered kv_serving scenario (tiny point, 1M clients):")
    result = get_scenario("kv_serving").run({"requests": 1200,
                                             "window_ns": 50_000.0})
    print(f"  offered {result['offered_mmps']} Mmps, achieved "
          f"{result['achieved_mmps']} Mmps, p99 {result['p99_ns']:.0f} ns")
    print(f"  SLO curve: {result['windows_met_p99']}/{result['windows_active']}"
          f" windows met the p99 target "
          f"(attainment {result['slo_attainment']})")
    print(f"  NIC inserts {result['nic_inserts']}, host fallbacks "
          f"{result['host_fallback']} (Zipf-hot chains overflow the "
          f"handler walk budget)\n")
    assert result["population"] == 1_000_000


def main() -> None:
    million_client_population()
    zipf_head()
    kv_serving_scenario()
    rss = peak_rss_mib()
    print(f"peak RSS: {rss:.0f} MiB (budget {RSS_BUDGET_MIB} MiB)")
    # The CI memory gate: a million-client run must stay O(in-flight),
    # never O(population).  A per-client object regression lands here.
    assert rss < RSS_BUDGET_MIB, (
        f"peak RSS {rss:.0f} MiB blew the {RSS_BUDGET_MIB} MiB budget — "
        "population state is no longer fixed-memory"
    )
    print("ok: a million clients fit the fixed memory budget")


if __name__ == "__main__":
    main()
