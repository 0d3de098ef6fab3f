"""The perf basket: fixed scenario mixes whose kernel-event counts are pinned.

Seven baskets cover the simulator's load profiles:

* **small-message** — message-rate-bound pingpongs (64 B), every protocol;
* **large-message** — bandwidth-bound 64 KiB pingpongs (16 packets/msg),
  the fabric serialization pipeline dominates;
* **storage-trace** — SPC-style trace replay over the RAID cluster, both
  RDMA and sPIN protocols (deep pipelines, heavy contention);
* **app-scale** — full-application trace matching at 16 ranks;
* **congestion** — incast and permutation mixes on the congestion fabric
  (per-link routed walks dominate);
* **kernel-ops** — pure event-queue churn with no model code, isolating
  the event core itself;
* **serving** — million-client population serving: fluid arrival
  callbacks, streaming sketch inserts, Zipf draws, windowed SLO tracking.

``run_baskets`` executes each basket under a :class:`KernelMeter` and
reports kernel events, environments, wall seconds and events/sec.  The
simulation is deterministic, so the event and environment counts are
exact: ``tests/perf/test_perf.py`` pins them per basket, and a change
that moves one fails as a named diff.  Wall time and events/sec are
informational; host-time verdicts come from ``perfbench/``.
``python -m repro.campaign perf`` is the CLI.

Basket definitions are append-only by convention: changing an existing
basket invalidates its pinned counts, so add a new basket instead.
"""

from __future__ import annotations

import platform
import sys
from typing import Callable, Optional

from repro.perf.meter import KernelMeter

__all__ = ["BASKETS", "run_baskets"]


def _small_message(scale: int) -> None:
    from repro.experiments.pingpong import PINGPONG_MODES, pingpong_half_rtt_ns

    for _ in range(2 * scale):
        for mode in PINGPONG_MODES:
            pingpong_half_rtt_ns(64, mode, "int")


def _large_message(scale: int) -> None:
    from repro.experiments.pingpong import PINGPONG_MODES, pingpong_half_rtt_ns

    for _ in range(scale):
        for mode in PINGPONG_MODES:
            pingpong_half_rtt_ns(65536, mode, "int")
        pingpong_half_rtt_ns(262144, "rdma", "int")
        pingpong_half_rtt_ns(262144, "spin_stream", "int")


def _storage_trace(scale: int) -> None:
    from repro.storage.spc import (
        generate_financial_trace,
        generate_websearch_trace,
        replay_trace_ns,
    )

    fin = generate_financial_trace(nops=30 * scale, seed=11)
    web = generate_websearch_trace(nops=30 * scale, seed=11)
    for mode in ("rdma", "spin"):
        replay_trace_ns(fin, mode, "int")
        replay_trace_ns(web, mode, "int")


def _app_scale(scale: int) -> None:
    from repro.apps.simulator import matching_speedup
    from repro.apps.tracegen import APP_TRACES

    for app in ("MILC", "POP"):
        gen = APP_TRACES[app][0]
        matching_speedup(gen(nprocs=16, iters=scale), eager_threshold=16384)


def _congestion(scale: int) -> None:
    from repro.campaign.registry import get_scenario

    incast = get_scenario("incast_load")
    permutation = get_scenario("permutation_traffic")
    for _ in range(scale):
        incast.run({"fanin": 8, "count": 16, "seed": 3})
        permutation.run({"nhosts": 16, "shift": 4, "count": 8,
                         "routing": "ecmp", "seed": 3})
        permutation.run({"nhosts": 16, "shift": 4, "count": 8,
                         "routing": "dmodk", "seed": 3})


def _kernel_ops(scale: int) -> None:
    """Pure event-kernel churn: no machines, just the queue core.

    The scenario baskets are dominated by model code (NIC chains, fabric,
    matching), so a queue-core regression can hide inside their noise.
    This basket schedules and drains events with no model at all,
    exercising every queue path the simulator leans on: near-term pushes,
    far-future timers, urgent-vs-normal priority ties, mid-drain nested
    scheduling, and cancellations.  The mix is a fixed xorshift64 stream —
    identical run to run.
    """
    from repro.des.engine import PRIORITY_URGENT, Environment

    unit = 1 << 20  # delay unit in ps (~1 µs), part of the basket definition
    for rep in range(scale):
        env = Environment()
        seed = 88172645463325252 + rep

        def rng() -> int:
            nonlocal seed
            seed ^= (seed << 13) & 0xFFFFFFFFFFFFFFFF
            seed ^= seed >> 7
            seed ^= (seed << 17) & 0xFFFFFFFFFFFFFFFF
            return seed

        def tick(depth: int) -> None:
            # Mid-drain push: what driver chains do on every hop.
            if depth:
                r = rng()
                delay = r % (unit if r & 1 else 64 * unit)
                env.schedule_fn(delay, lambda: tick(depth - 1),
                                PRIORITY_URGENT if r & 4 else 1)

        handles = []
        for _ in range(2000):
            r = rng()
            if r & 7 == 0:
                delay = unit * (r % 512)     # far-future timers
            else:
                delay = r % (2 * unit)       # near-term
            if r & 3 == 0:
                handles.append(env.schedule_callback(delay, lambda: None))
            else:
                env.schedule_fn(delay, lambda: tick(2))
        for handle in handles[::2]:
            handle.cancel()
        env.run()


def _serving(scale: int) -> None:
    """Million-client serving mixes on the aggregated population stack.

    Exercises the paths the other baskets never touch: fluid arrival
    callbacks (machine-repairman rate engine), streaming sketch inserts
    on every latency record, Zipf key draws, and windowed SLO tracking.
    The population stays at the scenario default (10^6 clients) — the
    whole point is that cost scales with requests, not clients.
    """
    from repro.campaign.registry import get_scenario

    kv = get_scenario("kv_serving")
    tenants = get_scenario("tenant_overload")
    for rep in range(scale):
        kv.run({"requests": 1500, "window_ns": 60_000.0, "seed": 3 + rep})
        tenants.run({"tenants": 2, "population": 50_000, "requests": 600,
                     "window_ns": 40_000.0, "seed": 3 + rep})


#: name -> (workload fn taking a scale factor, scale).  The scales keep
#: every basket to well under a second; the pinned counts depend on them.
BASKETS: dict[str, tuple[Callable[[int], None], int]] = {
    "small-message": (_small_message, 8),
    "large-message": (_large_message, 2),
    "storage-trace": (_storage_trace, 2),
    "app-scale": (_app_scale, 1),
    "congestion": (_congestion, 1),
    "kernel-ops": (_kernel_ops, 8),
    "serving": (_serving, 1),
}


def run_baskets(
    names: Optional[list[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the basket and return the measurement document (JSON-ready)."""
    wanted = names or list(BASKETS)
    unknown = [n for n in wanted if n not in BASKETS]
    if unknown:
        raise ValueError(f"unknown baskets {unknown}; known: {list(BASKETS)}")
    baskets = {}
    for name in wanted:
        fn, scale = BASKETS[name]
        fn(1)  # warm imports and caches out of the measured window
        with KernelMeter() as meter:
            fn(scale)
        baskets[name] = {
            "scale": scale,
            "wall_s": round(meter.wall_s, 4),
            "kernel_events": meter.events,
            "events_per_sec": round(meter.events_per_sec, 1),
            "environments": meter.environments,
        }
        if progress is not None:
            progress(
                f"{name:>14}: {meter.events} events in {meter.wall_s:.2f}s "
                f"-> {meter.events_per_sec:,.0f} events/s"
            )
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "baskets": baskets,
    }
