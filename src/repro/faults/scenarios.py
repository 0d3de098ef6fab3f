"""Campaign scenarios exercising the fault-injection + reliability stack.

Three registered scenarios, one per fault family:

* ``ftbcast_faults`` — the §5.4 fault-tolerant broadcast under ``k``
  fail-stop crashes injected through a :class:`~repro.faults.plan.NodeCrash`
  plan.  The binomial graph tolerates any ``k < log2(P)`` failures; with
  adversarial placement (crashing every peer of one victim) delivery
  fails once ``k >= log2(P)`` — both regimes are reachable from the
  default sweep.
* ``lossy_pingpong`` — an open-loop sender over a uniformly lossy fabric
  with the drivers' timeout/retransmit layer and sequence-number dedup at
  the target: goodput and retransmit curves vs. configured loss rate.
* ``link_flap_recovery`` — incast on the congestion fabric through a
  flapping ingress link (:func:`~repro.faults.plan.link_flap`): requests
  in flight during an outage are tail-dropped at the dead link, time out,
  and retransmit; the result reports the time from the final link-up to
  the first completed request (time-to-recovery).

Fault draws come only from ``random.Random(plan.seed)`` inside the
injector and scenario-level placement from ``random.Random(seed)``, so
every result is bit-identical under the serial and multi-worker campaign
executors.
"""

from __future__ import annotations

import math
import random

from repro.campaign.registry import Param, scenario as campaign_scenario
from repro.faults.plan import FaultPlan, NodeCrash, PacketLoss, link_flap
from repro.portals.matching import MatchEntry
from repro.sim.drivers import OpenLoopDriver, dedup_channel, run_drivers
from repro.sim.metrics import Metrics
from repro.sim.session import ClusterSpec, Session
from repro.usecases.ftbcast import FaultTolerantBroadcast, binomial_graph_peers

__all__ = ["FAULT_TAG", "pick_crash_ranks"]

FAULT_TAG = 47


def pick_crash_ranks(nprocs: int, failures: int, placement: str,
                     seed: int, root: int = 0) -> list[int]:
    """Deterministic crash-set selection for ``ftbcast_faults``.

    ``spread`` samples the crashes uniformly from the non-root ranks (the
    regime the binomial graph is built for); ``adversarial`` concentrates
    them on the peers of one victim rank, the placement that actually
    severs a rank once every one of its ``log``-many peers is dead.
    """
    if not 0 <= failures < nprocs:
        raise ValueError(f"failures {failures} outside [0, {nprocs})")
    candidates = [r for r in range(nprocs) if r != root]
    if placement == "spread":
        return sorted(random.Random(seed).sample(candidates, failures))
    if placement != "adversarial":
        raise ValueError(f"unknown placement {placement!r}")
    # To sever a victim, every one of its peers must die — and the root
    # cannot, so the victim must not be a direct peer of the root.  (On
    # tiny groups the binomial graph is complete and no such rank exists;
    # any non-root victim then works, and isolation is simply impossible.)
    root_reach = set(binomial_graph_peers(root, nprocs)) | {root}
    isolatable = [r for r in candidates if r not in root_reach]
    victim = isolatable[0] if isolatable else candidates[-1]
    ranks = [p for p in binomial_graph_peers(victim, nprocs) if p != root]
    ranks += [r for r in candidates if r != victim and r not in ranks]
    return sorted(ranks[:failures])


@campaign_scenario(
    "ftbcast_faults",
    params=[
        Param("nprocs", int, default=8, help="broadcast group size"),
        Param("failures", int, default=2, help="ranks to fail-stop"),
        Param("placement", str, default="spread",
              choices=("spread", "adversarial"),
              help="crash-set shape: uniform or concentrated on one victim"),
        Param("crash_ns", float, default=0.0,
              help="when the crashes land (simulated ns)"),
        Param("config", str, default="int", choices=("int", "dis")),
        Param("seed", int, default=1),
    ],
    description="fault-tolerant broadcast vs. k fail-stop crashes "
                "(delivery holds while k < log2(P))",
    tiny={"nprocs": 8, "failures": 1},
    sweep={"failures": (0, 1, 2, 5), "placement": ("spread", "adversarial")},
    tags=("faults", "usecase"),
)
def _ftbcast_faults(nprocs: int, failures: int, placement: str,
                    crash_ns: float, config: str, seed: int) -> dict:
    crash_ranks = pick_crash_ranks(nprocs, failures, placement, seed)
    ftb = FaultTolerantBroadcast(nprocs=nprocs, config=config)
    try:
        injector = ftb.session.attach_faults(FaultPlan(
            faults=tuple(NodeCrash(rank=r, at_ns=crash_ns)
                         for r in crash_ranks),
            seed=seed,
        ))
        delivered = ftb.run_broadcast(root=0, bcast_id=1)
        # The injector crashes through Cluster.crash; fold its record into
        # the broadcast's own view so the delivery check sees both paths.
        ftb.crashed.update(injector.crashed)
        live = ftb.live_ranks()
        return {
            "nprocs": nprocs,
            "failures": len(injector.crashed),
            "tolerance": int(math.log2(nprocs)),
            "placement": placement,
            "live_ranks": len(live),
            "delivered_live": len(delivered & live),
            "all_live_delivered": ftb.delivered_to_all_live(1),
            "duplicates_dropped": ftb.duplicates_dropped,
            "forwards": ftb.forwards,
            "rx_reaped": sum(injector.crash_reaped.values()),
        }
    finally:
        ftb.session.close()


@campaign_scenario(
    "lossy_pingpong",
    params=[
        Param("loss", float, default=0.1,
              help="per-packet drop probability on the fabric"),
        Param("count", int, default=64, help="requests offered"),
        Param("size", int, default=2048, help="request size in bytes"),
        Param("rate_mmps", float, default=1.0, help="offered rate"),
        Param("timeout_ns", float, default=20000.0,
              help="per-request retransmission timeout"),
        Param("retries", int, default=6, help="retransmission budget"),
        Param("config", str, default="int", choices=("int", "dis")),
        Param("seed", int, default=1),
    ],
    description="goodput / retransmit curves vs. packet-loss rate "
                "(timeout + retransmit + dedup at the target)",
    tiny={"count": 16, "loss": 0.2},
    sweep={"loss": (0.0, 0.05, 0.1, 0.2, 0.4)},
    tags=("faults", "reliability"),
)
def _lossy_pingpong(loss: float, count: int, size: int, rate_mmps: float,
                    timeout_ns: float, retries: int, config: str,
                    seed: int) -> dict:
    with Session.pair(config) as sess:
        faults = (PacketLoss(probability=loss),) if loss > 0.0 else ()
        sess.attach_faults(FaultPlan(faults=faults, seed=seed * 31 + 7))
        channel = dedup_channel(sess, 1, match_bits=FAULT_TAG)
        metrics = Metrics()
        driver = OpenLoopDriver(
            sess, source=0, target=1, rate_mmps=rate_mmps, count=count,
            size=size, match_bits=FAULT_TAG, seed=seed, metrics=metrics,
            timeout_ns=timeout_ns, retries=retries,
        )
        run_drivers(sess, [driver])
        metrics.observe_fabric(sess.cluster.fabric, elapsed_ps=sess.env.now)
        summary = metrics.summary(elapsed_ps=sess.env.now)
        duplicates = channel.entry.spin.hpu_memory.vars.get("dups", 0)
    return {
        "loss": loss,
        "offered": count,
        "completed": summary["completed"],
        "lost": summary["dropped"],
        "timeouts": summary["timeouts"],
        "retransmits": summary["retransmits"],
        "goodput_mmps": round(summary.get("goodput_mmps", 0.0), 3),
        "packets_lost": int(summary.get("fault_packets_lost", 0)),
        "duplicates_dropped": duplicates,
        "p99_ns": summary.get("p99_ns", 0.0),
    }


@campaign_scenario(
    "link_flap_recovery",
    params=[
        Param("fanin", int, default=4, help="concurrent senders"),
        Param("count", int, default=24, help="requests per sender"),
        Param("size", int, default=4096, help="request size in bytes"),
        Param("rate_mmps", float, default=1.0, help="offered rate/sender"),
        Param("depth", int, default=64, help="per-link queue depth"),
        Param("first_down_ns", float, default=4000.0,
              help="first outage start"),
        Param("down_ns", float, default=6000.0, help="outage duration"),
        Param("up_ns", float, default=4000.0, help="gap between outages"),
        Param("cycles", int, default=2, help="down/up cycles"),
        Param("timeout_ns", float, default=6000.0,
              help="per-request retransmission timeout"),
        Param("retries", int, default=8, help="retransmission budget"),
        Param("config", str, default="int", choices=("int", "dis")),
        Param("seed", int, default=1),
    ],
    description="incast through a flapping ingress link: tail-drops, "
                "retransmits, and time-to-recovery after the last flap",
    tiny={"fanin": 2, "count": 8, "cycles": 1},
    sweep={"down_ns": (2000.0, 6000.0, 12000.0)},
    tags=("faults", "congestion", "reliability"),
)
def _link_flap_recovery(fanin: int, count: int, size: int, rate_mmps: float,
                        depth: int, first_down_ns: float, down_ns: float,
                        up_ns: float, cycles: int, timeout_ns: float,
                        retries: int, config: str, seed: int) -> dict:
    target = fanin
    spec = ClusterSpec(nodes=fanin + 1, config=config, fabric="congestion",
                       link_queue_depth=depth)
    with Session(spec) as sess:
        # Flap the victim's ingress link ("xbar0->host<target>"): every
        # packet admitted during an outage window is dropped at the link.
        injector = sess.attach_faults(FaultPlan(
            faults=link_flap(f"->host{target}", first_down_ns=first_down_ns,
                             down_ns=down_ns, up_ns=up_ns, cycles=cycles),
            seed=seed,
        ))
        sess.install(target, MatchEntry(match_bits=FAULT_TAG, length=1 << 30))
        metrics = Metrics()
        metrics.completion_log = []
        drivers = [
            OpenLoopDriver(
                sess, source=source, target=target, rate_mmps=rate_mmps,
                count=count, size=size, match_bits=FAULT_TAG,
                seed=seed * 6151 + source, metrics=metrics, stream="incast",
                timeout_ns=timeout_ns, retries=retries,
            )
            for source in range(fanin)
        ]
        run_drivers(sess, drivers)
        fabric = sess.cluster.fabric
        metrics.observe_fabric(fabric, elapsed_ps=sess.env.now)
        summary = metrics.summary(elapsed_ps=sess.env.now)
        clear_ps = injector.last_link_clear_ps
        first_after = metrics.first_completion_after(clear_ps)
        fault_drops = fabric.total_fault_link_drops()
    return {
        "offered": fanin * count,
        "completed": summary["completed"],
        "lost": summary["dropped"],
        "timeouts": summary["timeouts"],
        "retransmits": summary["retransmits"],
        "fault_link_drops": fault_drops,
        "link_down_events": int(summary.get("fabric_links_down", 0)),
        "last_clear_ns": clear_ps / 1000.0,
        # -1.0 = nothing ever completed after the final link-up (no
        # recovery within the run); finite otherwise.
        "recovery_ns": (-1.0 if first_after is None
                        else (first_after - clear_ps) / 1000.0),
        "goodput_mmps": round(summary.get("goodput_mmps", 0.0), 3),
        "p99_ns": summary.get("p99_ns", 0.0),
    }
