"""Load-testing scenarios built on the session API.

These are the scenarios the ``repro.sim`` redesign makes cheap: a few
declarative lines each, all registered with the campaign so they sweep,
cache, and parallelise like every other scenario.

* ``pingpong_open_load`` — open-loop offered-rate sweep against one
  server: latency percentiles vs. offered load, to saturation;
* ``kvstore_load`` — closed-loop client population against a sharded
  KV-insert service (the §5.4 bounded-chain-walk handler) with think time;
* ``mixed_tenants`` — heterogeneous handler channels (count / scan /
  echo tenants) sharing one target NIC, each under its own open-loop
  driver, reported per tenant.

The congestion-fabric family (``fabric="congestion"``: routed paths,
per-link queues, tail-drop — :mod:`repro.network.congestion`) exercises
regimes the LogGP pipe cannot:

* ``incast_load`` — N→1 fan-in onto one ingress port: p99 latency and
  queue occupancy vs. fan-in degree;
* ``permutation_traffic`` — all-to-all shift patterns on a small fat
  tree: ECMP hash collisions vs. d-mod-k determinism on the core links;
* ``congested_tenants`` — the mixed-tenant channels with every tenant's
  traffic squeezed through one shared core link (d-mod-k pins all flows
  toward one destination to the same core).

Every scenario draws randomness only from ``random.Random(seed)`` handed
to the drivers, so results are bit-identical under the serial and
multi-worker campaign executors.
"""

from __future__ import annotations

import random

from repro.campaign.registry import Param, scenario as campaign_scenario
from repro.core.handlers import ReturnCode
from repro.handlers_library import kv_hash, make_kv_insert_handler
from repro.machine.config import config_by_name
from repro.network.loggp import ROUTING_POLICIES
from repro.portals.matching import MatchEntry
from repro.sim.drivers import (ClosedLoopDriver, OpenLoopDriver, SizeMix,
                               run_drivers)
from repro.sim.metrics import Metrics
from repro.sim.session import ClusterSpec, Session

__all__ = ["LOAD_TAG", "ECHO_TAG"]

LOAD_TAG = 40
ECHO_TAG = 41


def _round2(value: float) -> float:
    return round(value, 2)


# ---------------------------------------------------------------------------
# pingpong_open_load
# ---------------------------------------------------------------------------

@campaign_scenario(
    "pingpong_open_load",
    params=[
        Param("rate_mmps", float, default=1.0,
              help="offered load, million messages/second"),
        Param("count", int, default=64, help="messages offered"),
        Param("size", int, default=16384, help="message size in bytes"),
        Param("mode", str, default="spin", choices=("rdma", "spin")),
        Param("config", str, default="int", choices=("int", "dis")),
        Param("seed", int, default=1),
    ],
    description="open-loop offered-rate sweep to saturation (session API)",
    tiny={"count": 16, "rate_mmps": 0.5, "size": 2048},
    # The 50 GB/s wire saturates ~3 Mmps at 16 KiB: the grid brackets the
    # knee so the latency blow-up is visible in one default sweep.
    sweep={"rate_mmps": (0.5, 1.0, 2.0, 4.0), "mode": ("rdma", "spin")},
    tags=("load", "latency"),
)
def _pingpong_open_load(rate_mmps: float, count: int, size: int, mode: str,
                        config: str, seed: int) -> dict:
    with Session.pair(config) as sess:
        if mode == "spin":
            def count_header_handler(ctx, h):
                ctx.charge(16)
                ctx.state.vars["served"] = ctx.state.vars.get("served", 0) + 1
                return ReturnCode.PROCEED

            sess.connect(1, match_bits=LOAD_TAG, length=1 << 30,
                         header_handler=count_header_handler,
                         hpu_mem_bytes=256)
        else:
            sess.install(1, MatchEntry(match_bits=LOAD_TAG, length=1 << 30))
        metrics = Metrics()
        driver = OpenLoopDriver(
            sess, source=0, target=1, rate_mmps=rate_mmps, count=count,
            size=size, match_bits=LOAD_TAG, seed=seed, metrics=metrics,
        )
        run_drivers(sess, [driver])
        metrics.observe_pt_drops(sess[1])
        summary = metrics.summary(elapsed_ps=sess.env.now)
    return {
        "offered_mmps": rate_mmps,
        "achieved_mmps": _round2(summary.get("throughput_rps", 0.0) / 1e6),
        "completed": summary["completed"],
        "lost": summary["dropped"],
        "p50_ns": summary.get("p50_ns", 0.0),
        "p99_ns": summary.get("p99_ns", 0.0),
        "max_ns": summary.get("max_ns", 0.0),
        "dropped_messages": summary.get("pt_dropped_messages", 0),
    }


# ---------------------------------------------------------------------------
# kvstore_load
# ---------------------------------------------------------------------------

@campaign_scenario(
    "kvstore_load",
    params=[
        Param("nservers", int, default=2),
        Param("nclients", int, default=2, help="client host machines"),
        Param("clients", int, default=4, help="concurrent client loops"),
        Param("requests", int, default=16, help="inserts per client loop"),
        Param("value_bytes", int, default=64),
        Param("nbuckets", int, default=64),
        Param("think_ns", float, default=500.0,
              help="mean exponential think time per client"),
        Param("config", str, default="int", choices=("int", "dis")),
        Param("seed", int, default=1),
    ],
    description="closed-loop client population vs. KV-insert server count",
    tiny={"clients": 2, "requests": 4},
    sweep={"nservers": (1, 2, 4), "clients": (2, 8)},
    tags=("load", "kvstore", "usecase"),
)
def _kvstore_load(nservers: int, nclients: int, clients: int, requests: int,
                  value_bytes: int, nbuckets: int, think_ns: float,
                  config: str, seed: int) -> dict:
    nodes = nclients + nservers
    counters = {"nic_inserts": 0, "host_fallback": 0}
    tables = [{b: [] for b in range(nbuckets)} for _ in range(nservers)]

    with Session.pair(config, nodes=nodes) as sess:
        for idx in range(nservers):
            sess.connect(nclients + idx, match_bits=LOAD_TAG,
                         header_handler=make_kv_insert_handler(tables[idx],
                                                               counters),
                         hpu_mem_bytes=256)

        def make_request(rng: random.Random, index: int) -> dict:
            key = f"key{rng.randrange(16 * nbuckets)}".encode()
            node = kv_hash(key, nservers)
            bucket = kv_hash(key, nbuckets, salt=b"bucket2")
            return {
                "target": nclients + node,
                "nbytes": len(key) + value_bytes,
                "match_bits": LOAD_TAG,
                "user_hdr": {"bucket": bucket, "key": key,
                             "value": b"v" * value_bytes},
            }

        metrics = Metrics()
        driver = ClosedLoopDriver(
            sess, sources=tuple(range(nclients)), clients=clients,
            requests_per_client=requests, think_ns=think_ns,
            target=-1, make_request=make_request, seed=seed,
            metrics=metrics, stream="insert",
        )
        run_drivers(sess, [driver])
        summary = metrics.summary(elapsed_ps=sess.env.now)
    stored = sum(len(c) for table in tables for c in table.values())
    return {
        "completed": summary["completed"],
        "lost": summary["dropped"],
        "p50_ns": summary.get("p50_ns", 0.0),
        "p99_ns": summary.get("p99_ns", 0.0),
        "throughput_mmps": _round2(summary.get("throughput_rps", 0.0) / 1e6),
        "nic_inserts": counters["nic_inserts"],
        "host_fallback": counters["host_fallback"],
        "stored": stored,
    }


# ---------------------------------------------------------------------------
# mixed_tenants
# ---------------------------------------------------------------------------

#: Tenant handler profiles, cycled over tenant index: heterogeneous work on
#: one shared target NIC.
TENANT_PROFILES = ("count", "scan", "echo")


def _tenant_channel(sess: Session, target: int, tenant: int, profile: str,
                    match_bits: int) -> None:
    if profile == "count":
        def count_header_handler(ctx, h):
            ctx.charge(10)
            ctx.state.vars["n"] = ctx.state.vars.get("n", 0) + 1
            return ReturnCode.DROP

        sess.connect(target, match_bits=match_bits, length=1 << 30,
                     header_handler=count_header_handler, hpu_mem_bytes=256)
    elif profile == "scan":
        def scan_header_handler(ctx, h):
            # Per-byte predicate work, then the default deposit path.
            ctx.charge(10)
            ctx.charge_per_byte(h.length, 0.5)
            return ReturnCode.PROCEED

        sess.connect(target, match_bits=match_bits, length=1 << 30,
                     header_handler=scan_header_handler, hpu_mem_bytes=512)
    elif profile == "echo":
        def echo_payload_handler(ctx, p):
            yield from ctx.put_from_device(
                p.payload, target=ctx.message.source, match_bits=ECHO_TAG,
                nbytes=p.payload_len,
            )
            return ReturnCode.SUCCESS

        sess.connect(target, match_bits=match_bits, length=1 << 30,
                     payload_handler=echo_payload_handler, hpu_mem_bytes=4096)
    else:  # pragma: no cover - profile list is closed
        raise ValueError(f"unknown tenant profile {profile!r}")


@campaign_scenario(
    "mixed_tenants",
    params=[
        Param("tenants", int, default=3,
              help="channels with heterogeneous handlers on one target"),
        Param("count", int, default=32, help="messages per tenant"),
        Param("rate_mmps", float, default=0.5, help="offered rate per tenant"),
        Param("config", str, default="int", choices=("int", "dis")),
        Param("seed", int, default=1),
    ],
    description="heterogeneous handler channels sharing one target NIC",
    tiny={"tenants": 2, "count": 8},
    sweep={"tenants": (2, 4, 6), "rate_mmps": (0.25, 1.0)},
    tags=("load", "multitenancy"),
)
def _mixed_tenants(tenants: int, count: int, rate_mmps: float, config: str,
                   seed: int) -> dict:
    target = 0
    with Session.pair(config, nodes=tenants + 1) as sess:
        metrics = Metrics()
        drivers = []
        for tenant in range(tenants):
            profile = TENANT_PROFILES[tenant % len(TENANT_PROFILES)]
            match_bits = 100 + tenant
            _tenant_channel(sess, target, tenant, profile, match_bits)
            client_rank = tenant + 1
            if profile == "echo":
                # Echoed packets land in a sink ME on the client.
                sess.install(client_rank, MatchEntry(match_bits=ECHO_TAG,
                                                     length=1 << 30))
            drivers.append(OpenLoopDriver(
                sess, source=client_rank, target=target,
                rate_mmps=rate_mmps, count=count,
                size=SizeMix(sizes=(256, 2048), weights=(3.0, 1.0)),
                match_bits=match_bits, seed=seed * 7919 + tenant,
                metrics=metrics, stream=f"t{tenant}_{profile}",
            ))
        run_drivers(sess, drivers)
        metrics.observe_pt_drops(sess[target])
        summary = metrics.summary(elapsed_ps=sess.env.now)
    out = {
        "completed": summary["completed"],
        "lost": summary["dropped"],
        "p50_ns": summary.get("p50_ns", 0.0),
        "p99_ns": summary.get("p99_ns", 0.0),
        "throughput_mmps": _round2(summary.get("throughput_rps", 0.0) / 1e6),
        "dropped_messages": summary.get("pt_dropped_messages", 0),
    }
    for name in sorted(metrics.streams):
        stats = metrics.streams[name]
        # 0.0 = tenant completed nothing (starved/blackholed) — never
        # report another tenant's latency in its place.
        out[f"{name}_p99_ns"] = (stats.percentile_ns(0.99)
                                 if stats.sample_count else 0.0)
    return out


# ---------------------------------------------------------------------------
# congestion-fabric scenarios
# ---------------------------------------------------------------------------

def _fabric_notes(summary: dict) -> dict:
    """The link-accounting scalars ``Metrics.observe_fabric`` contributed."""
    return {
        "link_drops": int(summary.get("fabric_link_drops", 0)),
        "max_link_queue": int(summary.get("fabric_max_link_queue", 0)),
        "max_link_utilization": summary.get("fabric_max_link_utilization", 0.0),
        # Receiver-side fallout of tail-drops: payload packets that lost
        # their header, and matched messages that can never complete.
        "rx_orphan_packets": int(summary.get("fabric_rx_orphan_packets", 0)),
        "rx_stalled_messages": int(
            summary.get("fabric_rx_stalled_messages", 0)),
    }


def _core_link_stats(fabric) -> dict:
    """Occupancy aggregates over the fat tree's core-level links."""
    max_queue = drops = used = 0
    for (u, v), link in fabric.links.items():
        if u[0] != "core" and v[0] != "core":
            continue
        used += 1
        drops += link.drops
        if link.max_queue > max_queue:
            max_queue = link.max_queue
    return {"core_links_used": used, "core_max_queue": max_queue,
            "core_drops": drops}


@campaign_scenario(
    "incast_load",
    params=[
        Param("fanin", int, default=8, help="number of concurrent senders"),
        Param("count", int, default=32, help="messages per sender"),
        Param("size", int, default=4096, help="message size in bytes"),
        Param("rate_mmps", float, default=4.0,
              help="offered rate per sender, million messages/second"),
        Param("depth", int, default=64,
              help="per-link queue depth before tail-drop (packets)"),
        Param("config", str, default="int", choices=("int", "dis")),
        Param("seed", int, default=1),
    ],
    description="N-to-1 fan-in on the congestion fabric: p99 vs fan-in degree",
    tiny={"fanin": 2, "count": 6},
    sweep={"fanin": (2, 4, 8, 16)},
    tags=("load", "congestion"),
)
def _incast_load(fanin: int, count: int, size: int, rate_mmps: float,
                 depth: int, config: str, seed: int) -> dict:
    target = fanin
    spec = ClusterSpec(nodes=fanin + 1, config=config, fabric="congestion",
                       link_queue_depth=depth)
    with Session(spec) as sess:
        sess.install(target, MatchEntry(match_bits=LOAD_TAG, length=1 << 30))
        metrics = Metrics()
        drivers = [
            OpenLoopDriver(
                sess, source=source, target=target, rate_mmps=rate_mmps,
                count=count, size=size, match_bits=LOAD_TAG,
                seed=seed * 6151 + source, metrics=metrics, stream="incast",
            )
            for source in range(fanin)
        ]
        run_drivers(sess, drivers)
        metrics.observe_fabric(sess.cluster.fabric, elapsed_ps=sess.env.now)
        summary = metrics.summary(elapsed_ps=sess.env.now)
    return {
        "fanin": fanin,
        "completed": summary["completed"],
        "lost": summary["dropped"],
        "achieved_mmps": _round2(summary.get("throughput_rps", 0.0) / 1e6),
        "p50_ns": summary.get("p50_ns", 0.0),
        "p99_ns": summary.get("p99_ns", 0.0),
        "max_ns": summary.get("max_ns", 0.0),
        **_fabric_notes(summary),
    }


@campaign_scenario(
    "permutation_traffic",
    params=[
        Param("nhosts", int, default=16, help="hosts on the fat tree"),
        Param("shift", int, default=4,
              help="host i sends to (i+shift) mod nhosts"),
        Param("count", int, default=16, help="messages per host"),
        Param("size", int, default=16384),
        Param("rate_mmps", float, default=1.0, help="offered rate per host"),
        Param("routing", str, default="ecmp", choices=ROUTING_POLICIES),
        Param("radix", int, default=4, help="fat-tree switch radix"),
        Param("config", str, default="int", choices=("int", "dis")),
        Param("seed", int, default=1),
    ],
    description="all-to-all shift pattern vs. ECMP collisions on a fat tree",
    tiny={"nhosts": 8, "count": 4},
    sweep={"shift": (1, 4), "routing": ("ecmp", "dmodk")},
    tags=("load", "congestion"),
)
def _permutation_traffic(nhosts: int, shift: int, count: int, size: int,
                         rate_mmps: float, routing: str, radix: int,
                         config: str, seed: int) -> dict:
    machine_config = config_by_name(config).with_network(switch_radix=radix)
    spec = ClusterSpec(nodes=nhosts, config=machine_config, topology="fattree",
                       fabric="congestion", routing=routing)
    with Session(spec) as sess:
        metrics = Metrics()
        drivers = []
        for host in range(nhosts):
            sess.install(host, MatchEntry(match_bits=LOAD_TAG, length=1 << 30))
        for host in range(nhosts):
            drivers.append(OpenLoopDriver(
                sess, source=host, target=(host + shift) % nhosts,
                rate_mmps=rate_mmps, count=count, size=size,
                match_bits=LOAD_TAG, seed=seed * 6151 + host,
                metrics=metrics, stream="perm",
            ))
        run_drivers(sess, drivers)
        metrics.observe_fabric(sess.cluster.fabric, elapsed_ps=sess.env.now)
        summary = metrics.summary(elapsed_ps=sess.env.now)
        core = _core_link_stats(sess.cluster.fabric)
    return {
        "shift": shift,
        "routing": routing,
        "completed": summary["completed"],
        "lost": summary["dropped"],
        "p50_ns": summary.get("p50_ns", 0.0),
        "p99_ns": summary.get("p99_ns", 0.0),
        "throughput_mmps": _round2(summary.get("throughput_rps", 0.0) / 1e6),
        **core,
        **_fabric_notes(summary),
    }


@campaign_scenario(
    "congested_tenants",
    params=[
        Param("tenants", int, default=3,
              help="handler channels on one cross-pod target"),
        Param("count", int, default=24, help="messages per tenant"),
        Param("rate_mmps", float, default=1.5, help="offered rate per tenant"),
        Param("depth", int, default=64,
              help="per-link queue depth before tail-drop (packets)"),
        Param("config", str, default="int", choices=("int", "dis")),
        Param("seed", int, default=1),
    ],
    description="mixed tenants squeezed through one shared fat-tree core link",
    tiny={"tenants": 2, "count": 6},
    sweep={"tenants": (2, 4, 6), "rate_mmps": (0.5, 1.5)},
    tags=("load", "congestion", "multitenancy"),
)
def _congested_tenants(tenants: int, count: int, rate_mmps: float, depth: int,
                       config: str, seed: int) -> dict:
    # Radix-4 tree: 4 hosts per pod.  The target sits in pod 0; every
    # tenant's client lives in another pod, and d-mod-k routing pins all
    # traffic toward the target to a single core switch — the shared link.
    radix = 4
    hosts_per_pod = (radix // 2) ** 2
    target = 0
    machine_config = config_by_name(config).with_network(switch_radix=radix)
    spec = ClusterSpec(nodes=hosts_per_pod + tenants, config=machine_config,
                       topology="fattree", fabric="congestion",
                       routing="dmodk", link_queue_depth=depth)
    with Session(spec) as sess:
        metrics = Metrics()
        drivers = []
        for tenant in range(tenants):
            profile = TENANT_PROFILES[tenant % len(TENANT_PROFILES)]
            match_bits = 100 + tenant
            _tenant_channel(sess, target, tenant, profile, match_bits)
            client_rank = hosts_per_pod + tenant
            if profile == "echo":
                sess.install(client_rank, MatchEntry(match_bits=ECHO_TAG,
                                                     length=1 << 30))
            drivers.append(OpenLoopDriver(
                sess, source=client_rank, target=target,
                rate_mmps=rate_mmps, count=count,
                size=SizeMix(sizes=(4096, 16384), weights=(1.0, 1.0)),
                match_bits=match_bits, seed=seed * 7919 + tenant,
                metrics=metrics, stream=f"t{tenant}_{profile}",
            ))
        run_drivers(sess, drivers)
        metrics.observe_pt_drops(sess[target])
        metrics.observe_fabric(sess.cluster.fabric, elapsed_ps=sess.env.now)
        summary = metrics.summary(elapsed_ps=sess.env.now)
        core = _core_link_stats(sess.cluster.fabric)
    out = {
        "completed": summary["completed"],
        "lost": summary["dropped"],
        "p50_ns": summary.get("p50_ns", 0.0),
        "p99_ns": summary.get("p99_ns", 0.0),
        "throughput_mmps": _round2(summary.get("throughput_rps", 0.0) / 1e6),
        **core,
        **_fabric_notes(summary),
    }
    for name in sorted(metrics.streams):
        stats = metrics.streams[name]
        out[f"{name}_p99_ns"] = (stats.percentile_ns(0.99)
                                 if stats.sample_count else 0.0)
    return out
