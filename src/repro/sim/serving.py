"""Serving-at-scale scenarios: million-client populations, SLO curves.

The north star is "heavy traffic from millions of users" (sPIN's target
regime); these scenarios are where the aggregated
:class:`~repro.sim.drivers.PopulationDriver` + streaming metrics stack
earns its keep:

* ``kv_serving`` — a sharded KV tier (the §5.4 bounded-chain-walk insert
  handler) serving a **million-client** closed-loop population with
  Zipf-skewed keys.  Latencies land in fixed-memory streaming sinks and
  a :class:`~repro.sim.metrics.WindowedMetrics` time series, so the
  report includes a time-resolved SLO curve (windows meeting the p99
  target), not just end-of-run scalars.
* ``tenant_overload`` — per-tenant populations sharing one target NIC,
  one tenant driven into overload while every tenant's ``load_profile``
  swings diurnally.  Per-tenant windowed percentiles show whether the
  victim tenants keep their SLO while the aggressor saturates.

Memory contract: the population is a rate, in-flight requests are the
only per-request objects, and every latency sink is a bounded sketch —
so the million-client runs fit a fixed RSS budget (asserted in CI via
``examples/million_clients.py``).  Determinism contract: all randomness
flows from ``random.Random(seed)`` / :class:`~repro.sim.zipf.
ZipfSampler`; reruns give byte-identical ``Timeline.canonical_bytes()``,
and the behaviour contract pins each scenario point's trace digest.
"""

from __future__ import annotations

import math
import random

from repro.campaign.registry import Param, scenario as campaign_scenario
from repro.core.handlers import ReturnCode
from repro.sim.drivers import PopulationDriver, run_drivers
from repro.sim.metrics import Metrics, WindowedMetrics
from repro.sim.scenarios import KV_WALK_BUDGET, LOAD_TAG, _kv_hash, _round2
from repro.sim.session import Session
from repro.sim.zipf import ZipfSampler

__all__ = ["diurnal_profile"]


def diurnal_profile(period_ns: float, *, floor: float = 0.25,
                    peak: float = 1.75, phase: float = 0.0):
    """A smooth day/night load multiplier for ``PopulationDriver``.

    Returns a pure function of absolute sim time (ns) oscillating
    between ``floor`` and ``peak`` with the given period — mean 1.0 for
    the defaults, so the configured think time stays the *average* load.
    ``phase`` (in periods) staggers tenants so their peaks don't align.
    """
    if period_ns <= 0:
        raise ValueError("period_ns must be positive")
    if not 0 <= floor <= peak:
        raise ValueError(f"need 0 <= floor <= peak, got [{floor}, {peak}]")
    mid = (peak + floor) / 2.0
    amp = (peak - floor) / 2.0

    def profile(t_ns: float) -> float:
        return mid + amp * math.sin(2.0 * math.pi * (t_ns / period_ns + phase))

    return profile


def _slo_curve(windowed: WindowedMetrics, slo_ns: float,
               stream=None) -> dict:
    """Time-resolved SLO attainment: windows whose p99 met the target."""
    p99 = windowed.timeseries(stream)["bins"]
    active = [b["p99_ns"] for b in p99 if b["p99_ns"] is not None]
    met = sum(1 for v in active if v <= slo_ns)
    return {
        "windows": len(p99),
        "windows_active": len(active),
        "windows_met_p99": met,
        "slo_attainment": _round2(met / len(active)) if active else 1.0,
    }


# ---------------------------------------------------------------------------
# kv_serving
# ---------------------------------------------------------------------------

@campaign_scenario(
    "kv_serving",
    params=[
        Param("population", int, default=1_000_000,
              help="simulated closed-loop clients (a rate, not objects)"),
        Param("requests", int, default=8000,
              help="total requests issued by the population"),
        Param("nservers", int, default=4, help="KV shard servers"),
        Param("nclients", int, default=2, help="client host machines"),
        Param("think_ns", float, default=2.5e8,
              help="mean exponential client think time (population/think "
                   "sets the offered rate: 1M clients at 250 ms think "
                   "offer 4 Mmps)"),
        Param("nkeys", int, default=1_000_000, help="key space size"),
        Param("theta", float, default=0.99,
              help="Zipf skew (0 uniform, 0.99 YCSB-hot)"),
        Param("value_bytes", int, default=64),
        Param("nbuckets", int, default=256, help="hash buckets per server"),
        Param("slo_ns", float, default=4000.0, help="p99 latency SLO target"),
        Param("window_ns", float, default=200_000.0,
              help="SLO-curve window width"),
        Param("max_in_flight", int, default=4096,
              help="hard cap on concurrent in-flight requests (the memory "
                   "guarantee under saturation)"),
        Param("config", str, default="int", choices=("int", "dis")),
        Param("seed", int, default=1),
    ],
    description="KV tier serving a million-client Zipf population with "
                "time-resolved SLO curves",
    tiny={"requests": 1200, "window_ns": 50_000.0},
    sweep={"theta": (0.0, 0.99), "nservers": (2, 4, 8)},
    tags=("load", "kvstore", "serving", "usecase"),
)
def _kv_serving(population: int, requests: int, nservers: int, nclients: int,
                think_ns: float, nkeys: int, theta: float, value_bytes: int,
                nbuckets: int, slo_ns: float, window_ns: float,
                max_in_flight: int, config: str, seed: int) -> dict:
    nodes = nclients + nservers
    counters = {"nic_inserts": 0, "host_fallback": 0}
    tables = [{b: [] for b in range(nbuckets)} for _ in range(nservers)]
    zipf = ZipfSampler(nkeys, theta=theta, seed=seed)

    with Session.pair(config, nodes=nodes) as sess:
        def make_insert_handler(server_index: int):
            def insert_header_handler(ctx, h):
                user = h.user_hdr
                chain = tables[server_index][user["bucket"]]
                steps = min(len(chain), KV_WALK_BUDGET)
                ctx.charge(12 + 8 * steps)
                if len(chain) >= KV_WALK_BUDGET:
                    counters["host_fallback"] += 1
                    machine = ctx.nic.machine

                    def host_side(chain=chain, user=user, machine=machine):
                        yield from machine.cpu.run(
                            machine.config.host.dram_latency_ps
                            * (KV_WALK_BUDGET + 1),
                            "kv-host-insert",
                        )
                        chain.append(user["key"])

                    ctx.env.process(host_side())
                    return ReturnCode.DROP
                chain.append(user["key"])
                counters["nic_inserts"] += 1
                return ReturnCode.DROP

            return insert_header_handler

        for idx in range(nservers):
            sess.connect(nclients + idx, match_bits=LOAD_TAG,
                         header_handler=make_insert_handler(idx),
                         hpu_mem_bytes=256)

        def make_request(rng: random.Random, index: int) -> dict:
            rank = zipf.sample(rng)
            key = b"k%d" % rank
            node = _kv_hash(key, nservers)
            bucket = _kv_hash(key, nbuckets, salt=b"bucket2")
            return {
                "target": nclients + node,
                "nbytes": len(key) + value_bytes,
                "match_bits": LOAD_TAG,
                "user_hdr": {"bucket": bucket, "key": key},
            }

        metrics = Metrics(sketch_capacity=512)
        metrics.windowed = WindowedMetrics(window_ns=window_ns)
        driver = PopulationDriver(
            sess, sources=tuple(range(nclients)), population=population,
            requests=requests, think_ns=think_ns,
            max_in_flight=max_in_flight, target=-1,
            make_request=make_request, seed=seed, metrics=metrics,
            stream="serve",
        )
        run_drivers(sess, [driver])
        # Server 0 has a portal table; the pure-sender client ranks keep
        # the keys present-but-zero (the observe_pt_drops convention).
        metrics.observe_pt_drops(sess[nclients])
        metrics.observe_pt_drops(sess[0], prefix="client_pt")
        summary = metrics.summary(elapsed_ps=sess.env.now)
        slo = _slo_curve(metrics.windowed, slo_ns)
    stored = sum(len(c) for table in tables for c in table.values())
    return {
        "population": population,
        "completed": summary["completed"],
        "lost": summary["dropped"],
        "offered_mmps": _round2(1000.0 * population / think_ns),
        "achieved_mmps": _round2(summary.get("throughput_rps", 0.0) / 1e6),
        "p50_ns": summary.get("p50_ns", 0.0),
        "p99_ns": summary.get("p99_ns", 0.0),
        "p999_ns": summary.get("p999_ns", 0.0),
        "peak_in_flight": driver.peak_in_flight,
        "nic_inserts": counters["nic_inserts"],
        "host_fallback": counters["host_fallback"],
        "stored": stored,
        "pt_dropped_messages": summary.get("pt_dropped_messages", 0),
        **slo,
    }


# ---------------------------------------------------------------------------
# tenant_overload
# ---------------------------------------------------------------------------

@campaign_scenario(
    "tenant_overload",
    params=[
        Param("tenants", int, default=3,
              help="per-tenant populations sharing one target NIC"),
        Param("population", int, default=100_000,
              help="clients per well-behaved tenant"),
        Param("requests", int, default=1800, help="requests per tenant"),
        Param("think_ns", float, default=5.0e7,
              help="mean think per well-behaved tenant (100k clients at "
                   "50 ms think offer 2 Mmps each)"),
        Param("overload", float, default=8.0,
              help="tenant 0's offered-rate multiplier (its think time is "
                   "divided by this)"),
        Param("period_ns", float, default=300_000.0,
              help="diurnal swing period for every tenant's load profile"),
        Param("slo_ns", float, default=6000.0, help="per-tenant p99 SLO"),
        Param("window_ns", float, default=75_000.0,
              help="SLO-curve window width"),
        Param("config", str, default="int", choices=("int", "dis")),
        Param("seed", int, default=1),
    ],
    description="tenant SLO isolation under one overloading tenant with "
                "diurnal load swings",
    tiny={"tenants": 2, "population": 50_000, "requests": 500,
          "window_ns": 40_000.0},
    sweep={"overload": (1.0, 4.0, 16.0), "tenants": (2, 4)},
    tags=("load", "serving", "multitenancy"),
)
def _tenant_overload(tenants: int, population: int, requests: int,
                     think_ns: float, overload: float, period_ns: float,
                     slo_ns: float, window_ns: float, config: str,
                     seed: int) -> dict:
    if overload < 1.0:
        raise ValueError("overload multiplier must be >= 1")
    target = 0
    with Session.pair(config, nodes=tenants + 1) as sess:
        metrics = Metrics(sketch_capacity=512)
        metrics.windowed = WindowedMetrics(window_ns=window_ns)
        drivers = []
        for tenant in range(tenants):
            match_bits = 100 + tenant

            def make_count_handler():
                def count_header_handler(ctx, h):
                    ctx.charge(10)
                    ctx.state.vars["n"] = ctx.state.vars.get("n", 0) + 1
                    return ReturnCode.DROP

                return count_header_handler

            sess.connect(target, match_bits=match_bits, length=1 << 30,
                         header_handler=make_count_handler(),
                         hpu_mem_bytes=256)
            drivers.append(PopulationDriver(
                sess, sources=(tenant + 1,), population=population,
                requests=requests,
                think_ns=think_ns / (overload if tenant == 0 else 1.0),
                load_profile=diurnal_profile(period_ns,
                                             phase=tenant / tenants),
                target=target, size=256, match_bits=match_bits,
                seed=seed * 7919 + tenant, metrics=metrics,
                stream=f"t{tenant}",
            ))
        run_drivers(sess, drivers)
        metrics.observe_pt_drops(sess[target])
        summary = metrics.summary(elapsed_ps=sess.env.now)
        windowed = metrics.windowed
        out = {
            "tenants": tenants,
            "overload": overload,
            "completed": summary["completed"],
            "lost": summary["dropped"],
            "p50_ns": summary.get("p50_ns", 0.0),
            "p99_ns": summary.get("p99_ns", 0.0),
            "throughput_mmps": _round2(
                summary.get("throughput_rps", 0.0) / 1e6),
            "pt_dropped_messages": summary.get("pt_dropped_messages", 0),
        }
        victims_met = []
        for tenant in range(tenants):
            stream = f"t{tenant}"
            stats = metrics.streams[stream]
            out[f"{stream}_p99_ns"] = (stats.percentile_ns(0.99)
                                       if stats.sample_count else 0.0)
            slo = _slo_curve(windowed, slo_ns, stream=stream)
            out[f"{stream}_slo_attainment"] = slo["slo_attainment"]
            if tenant > 0:
                victims_met.append(slo["slo_attainment"])
        # The isolation headline: how well the non-aggressor tenants hold
        # their SLO while tenant 0 floods the shared NIC.
        out["victim_slo_attainment"] = (
            _round2(sum(victims_met) / len(victims_met))
            if victims_met else 1.0)
    return out
