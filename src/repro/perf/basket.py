"""The perf basket: fixed scenario mixes whose throughput we track per PR.

Seven baskets cover the simulator's load profiles:

* **small-message** — message-rate-bound pingpongs (64 B), every protocol;
* **large-message** — bandwidth-bound 64 KiB pingpongs (16 packets/msg),
  the fabric serialization pipeline dominates;
* **storage-trace** — SPC-style trace replay over the RAID cluster, both
  RDMA and sPIN protocols (deep pipelines, heavy contention);
* **app-scale** — full-application trace matching at 16 ranks;
* **congestion** — incast and permutation mixes on the congestion fabric
  (per-link routed walks dominate; added with the fabric in PR 4);
* **kernel-ops** — pure event-queue churn with no model code, isolating
  the event core itself (added in PR 6);
* **serving** — million-client population serving: fluid arrival
  callbacks, streaming sketch inserts, Zipf draws, windowed SLO tracking
  (added with the population driver in PR 10).

``run_baskets`` executes each basket under a :class:`KernelMeter` and
reports wall seconds, kernel events, and events/sec.  ``python -m
repro.campaign perf`` is the CLI; ``BENCH_<n>.json`` files committed at the
repo root record the trajectory (see ROADMAP "Performance tracking").

Basket definitions are append-only by convention: changing an existing
basket invalidates the committed trajectory, so add a new basket instead.
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Callable, Optional

from repro.perf.meter import KernelMeter

__all__ = ["BASKETS", "compare_to_baseline", "run_baskets"]


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


#: name -> (workload fn taking a scale factor, full-run scale, tiny scale)
#: Tiny scales are sized so each measurement window is tens of ms at least;
#: shorter windows make events/sec hostage to a single scheduler preemption.
BASKETS: dict[str, tuple[Callable[[int], None], int, int]] = {
    "small-message": (_small_message, 400, 8),
    "large-message": (_large_message, 60, 2),
    "storage-trace": (_storage_trace, 12, 2),
    "app-scale": (_app_scale, 6, 1),
    "congestion": (_congestion, 12, 1),
    "kernel-ops": (_kernel_ops, 120, 8),
    "serving": (_serving, 10, 1),
}


def run_baskets(
    tiny: bool = False,
    names: Optional[list[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    repeats: int = 1,
) -> dict:
    """Run the basket and return the measurement document (JSON-ready).

    ``repeats`` re-runs each basket and keeps the best (lowest-wall)
    measurement — one scheduler preemption inside a short window otherwise
    halves events/sec, so regression gates should use ``repeats >= 3``
    (matching how committed BENCH numbers are captured).
    """
    wanted = names or list(BASKETS)
    unknown = [n for n in wanted if n not in BASKETS]
    if unknown:
        raise ValueError(f"unknown baskets {unknown}; known: {list(BASKETS)}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    baskets = {}
    for name in wanted:
        fn, full_scale, tiny_scale = BASKETS[name]
        scale = tiny_scale if tiny else full_scale
        fn(1)  # warm imports and caches out of the timed window
        best = None
        for _ in range(repeats):
            with KernelMeter() as meter:
                fn(scale)
            if best is None or meter.wall_s < best.wall_s:
                best = meter
        baskets[name] = {
            "scale": scale,
            "wall_s": round(best.wall_s, 4),
            "kernel_events": best.events,
            "events_per_sec": round(best.events_per_sec, 1),
            "environments": best.environments,
        }
        if progress is not None:
            progress(
                f"{name:>14}: {best.events} events in {best.wall_s:.2f}s "
                f"-> {best.events_per_sec:,.0f} events/s"
            )
    return {
        "tiny": tiny,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "baskets": baskets,
    }


def compare_to_baseline(measured: dict, baseline: dict) -> dict:
    """Per-basket events/sec ratios of ``measured`` over ``baseline``.

    Both arguments are measurement documents from :func:`run_baskets` (the
    baseline typically parsed from a committed ``BENCH_<n>.json``'s
    ``"baseline"`` key).  Baskets missing on either side are skipped.
    """
    ratios = {}
    for name, m in measured.get("baskets", {}).items():
        b = baseline.get("baskets", {}).get(name)
        if b and b.get("events_per_sec"):
            ratios[name] = round(m["events_per_sec"] / b["events_per_sec"], 3)
    return ratios


def load_bench(path) -> dict:
    """Parse a committed BENCH_*.json."""
    with open(path) as fh:
        return json.load(fh)
