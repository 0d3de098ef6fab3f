"""Per-figure experiment drivers.

Each function runs the sweep behind one table/figure of the paper and
returns a :class:`~repro.bench.harness.Table` whose rows carry both the
measured values and the paper's reference numbers.  ``full=True`` runs the
paper-scale sweeps (slower); the default keeps every target in seconds.

The grid sweeps go through the campaign layer (:mod:`repro.campaign`):
figures plan their parameter grids, the executor runs them (``workers``
fans out over processes, and a ``cache_path`` makes regeneration
incremental), and the tables are assembled from the returned records.
To spread a figure's jobs over hosts, run ``python -m repro.campaign sweep
--shard i/K`` per host, ``python -m repro.campaign merge``, then the figure
over the merged cache (which executes nothing).
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.bench import paper_data
from repro.campaign import run_grid, run_points
from repro.des.trace import render_timeline
from repro.experiments import (
    accumulate_completion_ns,
    max_handler_time_ns,
    pingpong_half_rtt_ns,
)

__all__ = [
    "ablate_eager_threshold",
    "ablate_handler_cost",
    "ablate_hpus",
    "ablate_mtu",
    "traffic_slo",
    "fig3_pingpong",
    "fig3a_timelines",
    "fig3d_accumulate",
    "fig4_hpus",
    "fig5a_broadcast",
    "fig5b_timelines",
    "fig7a_datatype",
    "fig7b_timeline",
    "fig7c_raid",
    "spc_traces",
    "tab5c_apps",
]

_PP_SIZES = (8, 64, 512, 4096, 32_768, 262_144)


def fig3_pingpong(config: str = "int", full: bool = False,
                  workers: int = 1, cache_path=None) -> Table:
    """Fig 3b (int) / 3c (dis): ping-pong half-RTT in microseconds."""
    sizes = _PP_SIZES if not full else tuple(2**k for k in range(2, 19))
    modes = ("rdma", "p4", "spin_store", "spin_stream")
    table = Table(
        title=f"Fig 3{'b' if config == 'int' else 'c'}: ping-pong half-RTT (us), {config} NIC",
        columns=["size_B", "rdma", "p4", "spin_store", "spin_stream"],
    )
    res = run_grid("pingpong", {"size": sizes, "mode": modes},
                   overrides={"config": config},
                   workers=workers, cache_path=cache_path)
    ref = paper_data.FIG3_SMALL_MSG_NS[config]
    for size in sizes:
        row = {
            mode: res.lookup(size=size, mode=mode)["half_rtt_ns"] / 1000.0
            for mode in modes
        }
        paper = (
            f"~{ref['rdma']/1000:.2f}/{ref['p4']/1000:.2f}/{ref['spin']/1000:.2f}us"
            if size == 8
            else ""
        )
        table.add(size_B=size, paper=paper, **row)
    table.note("paper inset (8B): RDMA > P4 > sPIN; streaming wins large messages")
    return table


def fig3a_timelines() -> str:
    """Fig 3a / Appendix C.3.1: ping-pong timelines per protocol variant.

    Renders the simulated CPU/NIC/DMA/HPU lanes for an 8 KiB ping-pong —
    the reproduction's analogue of the appendix trace diagrams (RDMA's
    host commit vs sPIN streaming's per-packet replies are visible).
    """
    from repro.core.api import PtlHPUAllocMem, spin_me
    from repro.experiments.pingpong import PING_TAG
    from repro.handlers_library import PONG_TAG, make_pingpong_handlers
    from repro.machine.config import integrated_config
    from repro.portals.matching import MatchEntry
    from repro.sim.session import Session

    out = []
    for mode, streaming in (("store", False), ("stream", True)):
        with Session.pair(integrated_config(), trace=True) as session:
            cluster = session.cluster
            env = cluster.env
            origin, target = cluster[0], cluster[1]
            pong_eq = origin.new_eq()
            origin.post_me(0, MatchEntry(match_bits=PONG_TAG, length=8192,
                                         event_queue=pong_eq))
            hh, ph, ch = make_pingpong_handlers(streaming=streaming)
            target.post_me(0, spin_me(
                match_bits=PING_TAG, length=8192,
                header_handler=hh, payload_handler=ph, completion_handler=ch,
                hpu_memory=PtlHPUAllocMem(target, 16384),
            ))

            def pinger():
                yield from origin.host_put(1, 8192, match_bits=PING_TAG)

            env.process(pinger())
            cluster.run()
            out.append(f"--- sPIN ({mode}) 8 KiB ping-pong ---")
            out.append(render_timeline(cluster.timeline, width=90))
    return "\n".join(out)


def ablate_mtu(full: bool = False) -> Table:
    """Ablation: streaming ping-pong latency vs MTU (packetization grain)."""
    import dataclasses

    from repro.machine.config import integrated_config
    from repro.network.loggp import LogGPParams

    size = 64 * 1024
    table = Table(
        title="Ablation: 64 KiB sPIN-stream half-RTT (us) vs MTU",
        columns=["mtu_B", "half_rtt_us"],
    )
    for mtu in (1024, 2048, 4096, 8192):
        cfg = integrated_config()
        cfg = dataclasses.replace(
            cfg, network=dataclasses.replace(
                cfg.network, loggp=LogGPParams(mtu=mtu)))
        table.add(mtu_B=mtu,
                  half_rtt_us=pingpong_half_rtt_ns(size, "spin_stream", cfg) / 1000)
    table.note("finer packetization pipelines more but pays per-packet "
               "costs; 4 KiB (the paper's MTU) sits near the optimum")
    return table


def ablate_eager_threshold(full: bool = False) -> Table:
    """Ablation: MILC speedup vs the eager/rendezvous threshold."""
    from repro.apps import matching_speedup, milc_trace

    table = Table(
        title="Ablation: MILC-like offload speedup vs eager threshold",
        columns=["threshold_B", "ovhd_%", "spdup_%"],
    )
    for threshold in (4096, 16384, 65536):
        row = matching_speedup(milc_trace(nprocs=16, iters=3),
                               eager_threshold=threshold)
        table.add(threshold_B=threshold,
                  **{"ovhd_%": row["ovhd_percent"],
                     "spdup_%": row["speedup_percent"]})
    table.note("48 KiB halos: below 64 KiB thresholds they go rendezvous "
               "(handler-issued gets); above, eager copies dominate")
    return table


def fig3d_accumulate(full: bool = False, workers: int = 1,
                     cache_path=None) -> Table:
    """Fig 3d: remote accumulate completion time (us), both NIC types."""
    sizes = (8, 512, 4096, 32_768, 262_144) if not full else tuple(
        2**k for k in range(3, 19)
    )
    table = Table(
        title="Fig 3d: remote accumulate completion time (us)",
        columns=["size_B", "rdma_int", "spin_int", "rdma_dis", "spin_dis"],
    )
    res = run_grid("accumulate", {"size": sizes, "mode": ("rdma", "spin"),
                                  "config": ("int", "dis")},
                   workers=workers, cache_path=cache_path)
    for size in sizes:
        table.add(
            size_B=size,
            **{
                f"{mode}_{cfg}":
                    res.lookup(size=size, mode=mode, config=cfg)["completion_ns"] / 1000
                for mode in ("rdma", "spin") for cfg in ("int", "dis")
            },
            paper="RDMA wins small; sPIN wins large" if size in (8, 262_144) else "",
        )
    table.note("paper: DMA latency penalizes small sPIN accumulates, "
               "pipelined DMA wins large ones")
    return table


def fig4_hpus(full: bool = False, workers: int = 1, cache_path=None) -> Table:
    """Fig 4: HPUs needed for line rate vs packet size and handler time."""
    sizes = (16, 64, 128, 335, 512, 1024, 2048, 4096)
    table = Table(
        title="Fig 4: HPUs needed for line-rate processing",
        columns=["packet_B", "T=100ns", "T=200ns", "T=500ns", "T=1000ns"],
    )
    res = run_grid("linerate", {"packet_bytes": sizes,
                                "handler_ns": (100.0, 200.0, 500.0, 1000.0)},
                   workers=workers, cache_path=cache_path)
    for s in sizes:
        table.add(
            packet_B=s,
            **{
                f"T={t}ns":
                    res.lookup(packet_bytes=s, handler_ns=float(t))["hpus"]
                for t in (100, 200, 500, 1000)
            },
        )
    table.note(
        f"T̂s(8 HPUs, g-bound) = {max_handler_time_ns(8, 64):.1f} ns "
        f"(paper {paper_data.FIG4_POINTS['hat_Ts_ns_8hpus']:.0f} ns); "
        f"T̂l(4096 B) = {max_handler_time_ns(8, 4096):.0f} ns "
        f"(paper {paper_data.FIG4_POINTS['hat_Tl_ns_4096']:.0f} ns); "
        f"crossover g/G = 335 B"
    )
    return table


def fig5a_broadcast(config: str = "dis", full: bool = False,
                    workers: int = 1, cache_path=None) -> Table:
    """Fig 5a: binomial broadcast latency (us) vs process count."""
    procs = (4, 16, 64, 256) if not full else (4, 16, 64, 256, 1024)
    table = Table(
        title=f"Fig 5a: broadcast latency (us), {config} NIC",
        columns=["procs", "rdma_8B", "p4_8B", "spin_8B",
                 "rdma_64KiB", "p4_64KiB", "spin_64KiB"],
    )
    res = run_grid("broadcast", {"procs": procs, "size": (8, 1 << 16),
                                 "mode": ("rdma", "p4", "spin")},
                   overrides={"config": config},
                   workers=workers, cache_path=cache_path)
    for p in procs:
        table.add(
            procs=p,
            **{
                f"{mode}_{label}":
                    res.lookup(procs=p, size=size, mode=mode)["latency_ns"] / 1000
                for mode in ("rdma", "p4", "spin")
                for label, size in (("8B", 8), ("64KiB", 1 << 16))
            },
        )
    table.note("paper: sPIN fastest at both sizes; streaming pipelines 64KiB "
               "through the tree")
    return table


def fig5b_timelines() -> str:
    """Fig 5b: matching-protocol schematics as simulated ASCII timelines."""
    from repro.machine.config import integrated_config
    from repro.runtime.msgmatch import MPIEndpoint
    from repro.des import ns
    from repro.sim.session import Session

    out = []
    for case, (protocol, preposted, nbytes) in {
        "I   (small, preposted, offloaded)": ("spin", True, 1024),
        "II  (large, preposted, offloaded)": ("spin", True, 1 << 17),
        "III (small, late recv)": ("spin", False, 1024),
        "IV  (large, late recv)": ("spin", False, 1 << 17),
    }.items():
        with Session.pair(integrated_config(), trace=True) as session:
            cluster = session.cluster
            a = MPIEndpoint(cluster[0], protocol)
            b = MPIEndpoint(cluster[1], protocol)
            env = cluster.env

            def sender():
                if preposted:
                    yield env.timeout(ns(2000))
                req = yield from a.send(1, nbytes, tag=1)
                yield from a.wait(req)

            def receiver():
                if not preposted:
                    yield env.timeout(ns(30000))
                req = yield from b.recv(0, nbytes, tag=1)
                yield from b.wait(req)

            env.process(sender())
            proc = env.process(receiver())
            env.run(until=proc)
            cluster.run()
            out.append(f"--- case {case} ---")
            out.append(render_timeline(cluster.timeline, width=90))
    return "\n".join(out)


def tab5c_apps(nprocs: int = 16, iters: int = 3, full: bool = False,
               workers: int = 1, cache_path=None) -> Table:
    """Table 5c: full-application speedups from offloaded matching."""
    from repro.apps import APP_TRACES

    if full:
        nprocs, iters = 64, 6
    table = Table(
        title=f"Table 5c: offloaded matching, {nprocs} procs (paper 64/72)",
        columns=["program", "msgs", "ovhd_%", "spdup_%"],
    )
    res = run_grid("apps_matching", {"app": tuple(APP_TRACES)},
                   overrides={"nprocs": nprocs, "iters": iters},
                   workers=workers, cache_path=cache_path)
    for name, (gen, p_procs, p_ovhd, p_spd) in APP_TRACES.items():
        row = res.lookup(app=name)
        table.add(
            program=name,
            msgs=row["messages"],
            **{"ovhd_%": row["ovhd_percent"], "spdup_%": row["speedup_percent"]},
            paper=f"{p_ovhd}% / {p_spd}% @ {p_procs}p",
        )
    table.note("synthetic traces calibrated to the paper's comm structure; "
               "message counts are scaled down (see DESIGN.md)")
    return table


def fig7a_datatype(full: bool = False, workers: int = 1,
                   cache_path=None) -> Table:
    """Fig 7a: 4 MiB strided receive, completion time and bandwidth."""
    message = 4 << 20
    blocks = (256, 1024, 4096, 32_768, 262_144) if not full else tuple(
        2**k for k in range(4, 19)
    )
    table = Table(
        title="Fig 7a: strided receive of 4 MiB (stride = 2 x blocksize)",
        columns=["blocksize_B", "rdma_us", "rdma_GiBs", "spin_us", "spin_GiBs"],
    )
    res = run_grid("datatype_recv", {"blocksize": blocks,
                                     "mode": ("rdma", "spin")},
                   overrides={"message": message, "config": "int"},
                   workers=workers, cache_path=cache_path)
    for b in blocks:
        rdma = res.lookup(blocksize=b, mode="rdma")
        spin = res.lookup(blocksize=b, mode="spin")
        table.add(
            blocksize_B=b,
            rdma_us=rdma["completion_ns"] / 1000,
            rdma_GiBs=rdma["gib_s"],
            spin_us=spin["completion_ns"] / 1000,
            spin_GiBs=spin["gib_s"],
            paper=(
                f"RDMA {paper_data.FIG7A_GIBS['rdma_high']} GiB/s, "
                f"sPIN {paper_data.FIG7A_GIBS['spin_line_rate']} GiB/s"
                if b == 4096 else ""
            ),
        )
    table.note("paper: sPIN reaches line rate from ~256 B blocks; RDMA stays "
               "at 8.7-11.4 GiB/s due to the strided CPU copies")
    return table


def fig7b_timeline() -> str:
    """Fig 7b: the RAID write protocol as a simulated ASCII timeline."""
    from repro.storage import RaidCluster

    out = []
    for mode in ("rdma", "spin"):
        raid = RaidCluster(mode, "int", region_bytes=64 * 1024)
        raid.cluster.timeline.enabled = True
        env = raid.env

        def client():
            yield from raid.client_write(16 * 1024)

        proc = env.process(client())
        env.run(until=proc)
        raid.session.close()
        out.append(f"--- RAID-5 write, {mode} protocol ---")
        out.append(render_timeline(raid.cluster.timeline, width=90))
    return "\n".join(out)


def fig7c_raid(full: bool = False, workers: int = 1, cache_path=None) -> Table:
    """Fig 7c: RAID-5 update completion time (us)."""
    sizes = (64, 4096, 32_768, 262_144) if not full else tuple(
        2**k for k in range(2, 19)
    )
    table = Table(
        title="Fig 7c: RAID-5 update completion time (us)",
        columns=["size_B", "rdma_int", "spin_int", "rdma_dis", "spin_dis"],
    )
    res = run_grid("raid_update", {"size": sizes, "mode": ("rdma", "spin"),
                                   "config": ("int", "dis")},
                   workers=workers, cache_path=cache_path)
    for size in sizes:
        table.add(
            size_B=size,
            **{
                f"{mode}_{cfg}":
                    res.lookup(size=size, mode=mode, config=cfg)["completion_ns"] / 1000
                for mode in ("rdma", "spin") for cfg in ("int", "dis")
            },
            paper="comparable small / sPIN wins large" if size in (64, 262_144) else "",
        )
    return table


def spc_traces(full: bool = False, workers: int = 1, cache_path=None) -> Table:
    """§5.3: SPC trace replay — processing-time improvement."""
    nops = 120 if full else 40
    table = Table(
        title="SPC trace replay: RDMA → sPIN processing-time improvement",
        columns=["trace", "config", "rdma_us", "spin_us", "improvement_%"],
    )
    lo, hi = paper_data.SPC_IMPROVEMENT_RANGE
    traces = (
        ("financial-1", "financial", 11),
        ("financial-2", "financial", 12),
        ("websearch-1", "websearch", 21),
        ("websearch-2", "websearch", 22),
        ("websearch-3", "websearch", 23),
    )
    points = [
        {"family": family, "trace_seed": seed, "nops": nops,
         "mode": mode, "config": config}
        for _, family, seed in traces
        for config in ("int", "dis")
        for mode in ("rdma", "spin")
    ]
    res = run_points("spc_replay", points, workers=workers,
                     cache_path=cache_path)
    for name, family, seed in traces:
        for config in ("int", "dis"):
            rdma = res.lookup(family=family, trace_seed=seed, config=config,
                              mode="rdma")["elapsed_ns"]
            spin = res.lookup(family=family, trace_seed=seed, config=config,
                              mode="spin")["elapsed_ns"]
            table.add(
                trace=name,
                config=config,
                rdma_us=rdma / 1000,
                spin_us=spin / 1000,
                **{"improvement_%": 100 * (rdma - spin) / rdma},
                paper=f"{lo}%..{hi}%, best = int+financial" if config == "int" else "",
            )
    return table


def traffic_slo(full: bool = False, workers: int = 1, cache_path=None) -> Table:
    """Time-resolved SLO view of the traffic scenarios (not in the paper).

    One row per metrics window: the bursting-load run's fabric queue depth
    and completions next to the incast-transient run's per-window p99 —
    the sawtooth (growth during on phases, drain during off phases) and
    the latency collapse/recovery around the synchronized burst, the two
    transients the windowed sink exists to expose.
    """
    cycles = 4 if full else 3
    burst = run_points("bursting_load", [{"cycles": cycles}],
                       workers=workers, cache_path=cache_path)
    incast = run_points("incast_transient", [{}], workers=workers,
                        cache_path=cache_path)
    b, i = burst.lookup(cycles=cycles), incast.lookup()
    table = Table(
        title="Traffic SLO timeline (windowed metrics)",
        columns=["t_ns", "burst_queue", "burst_done",
                 "incast_done", "incast_p99_ns"],
    )
    window_ns = b["window_ns"]
    rows = max(len(b["win_queue_max"]), len(i["win_p99_ns"]))
    for w in range(rows):

        def cell(rec, key):
            series = rec[key]
            return series[w] if w < len(series) else ""

        table.add(
            t_ns=w * window_ns,
            burst_queue=cell(b, "win_queue_max"),
            burst_done=cell(b, "win_completed"),
            incast_done=cell(i, "win_completed"),
            incast_p99_ns=cell(i, "win_p99_ns"),
        )
    table.note(
        f"bursting_load: queue peak {b['queue_peak']}, final "
        f"{b['queue_final']}; incast_transient: p99 collapse at "
        f"{i['collapse_t_ns']:.0f} ns, recovery at "
        f"{i['recovery_t_ns']:.0f} ns"
    )
    return table


def ablate_hpus(full: bool = False) -> Table:
    """Ablation: accumulate throughput vs HPU count (validates Fig 4)."""
    from repro.machine.config import integrated_config

    size = 1 << 17
    table = Table(
        title="Ablation: accumulate completion (us) vs #HPUs (128 KiB, int)",
        columns=["hpus", "completion_us", "speedup_vs_1"],
    )
    base = None
    for hpus in (1, 2, 4, 8, 16):
        cfg = integrated_config(hpu_count=hpus)
        t = accumulate_completion_ns(size, "spin", cfg) / 1000
        base = base or t
        table.add(hpus=hpus, completion_us=t, speedup_vs_1=base / t)
    table.note("diminishing returns once HPUs saturate DMA/wire — the "
               "Little's-law sizing of Fig 4")
    return table


def ablate_handler_cost(full: bool = False) -> Table:
    """Ablation: ping-pong latency vs payload-handler cycles/byte."""
    from repro.core.api import PtlHPUAllocMem, spin_me
    from repro.core.handlers import ReturnCode
    from repro.machine.config import integrated_config
    from repro.portals.matching import MatchEntry
    from repro.sim.session import Session

    table = Table(
        title="Ablation: 4 KiB one-way latency vs handler cycles/byte (int)",
        columns=["cycles_per_byte", "latency_us"],
    )
    for cpb in (0.0, 0.5, 1.0, 2.0, 4.0):
        with Session.pair(integrated_config()) as session:
            cluster = session.cluster
            env = cluster.env
            done = []

            def ph(ctx, pay, cpb=cpb):
                ctx.charge_per_byte(pay.payload_len, cpb)
                return ReturnCode.SUCCESS

            eq = cluster[1].new_eq()
            cluster[1].post_me(0, spin_me(
                match_bits=1, payload_handler=ph, event_queue=eq,
                hpu_memory=PtlHPUAllocMem(cluster[1], 64)))
            eq.on_next(lambda ev: done.append(env.now))

            def sender():
                yield from cluster[0].host_put(1, 4096, match_bits=1)

            env.process(sender())
            cluster.run()
        table.add(cycles_per_byte=cpb, latency_us=done[0] / 1e6)
    table.note("the T̂l(4096) = 650 ns budget of §4.4.2 corresponds to "
               "~0.4 cycles/byte at line rate with 8 HPUs")
    return table
