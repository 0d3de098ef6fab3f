"""Structured run-telemetry reports.

One JSON document per run with a stable, versioned schema: run counters,
the per-resource occupancy table, the ``occ_*`` roll-up, the top-k
hottest handlers and links, kernel-meter stats, and (if the observer
binned them) per-window occupancy series.  Built from pure-reader
observer state plus component ``stats()`` snapshots, so generating a
report perturbs nothing.

``python -m repro.obs view report.json`` pretty-prints one.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.des.trace import span_category
from repro.obs.occupancy import CATEGORIES

__all__ = ["REPORT_SCHEMA", "build_report", "format_report"]

#: Bump the trailing version on any breaking change to the report shape.
REPORT_SCHEMA = "repro.obs/report/v1"

_COUNTER_KEYS = (
    "messages_sent", "messages_received", "handlers_run",
    "flow_control_trips", "packets_delivered", "packets_dropped",
    "link_drops", "dma_bytes_read", "dma_bytes_written",
)


def _session_counters(session, elapsed_ps: int) -> tuple[dict, float]:
    counters = dict.fromkeys(_COUNTER_KEYS, 0)
    cpu_busy_ns = 0.0
    for machine in session.cluster.machines:
        nic = machine.nic
        counters["messages_sent"] += nic.messages_sent
        counters["messages_received"] += nic.messages_received
        counters["flow_control_trips"] += nic.flow_control_trips
        hpus = nic._hpus
        if hpus is not None:
            counters["handlers_run"] += hpus.handlers_run
        dma = machine.dma.stats()
        counters["dma_bytes_read"] += dma["bytes_read"]
        counters["dma_bytes_written"] += dma["bytes_written"]
        cpu_busy_ns += machine.cpu.stats(elapsed_ps)["busy_ns"]
    fabric = session.cluster.fabric
    counters["packets_delivered"] += fabric.packets_delivered
    counters["packets_dropped"] += fabric.packets_dropped
    counters["link_drops"] += getattr(fabric, "packets_dropped_links", 0)
    return counters, cpu_busy_ns


def _link_rows(session, elapsed_ps: int, prefix: str) -> list[dict]:
    fabric = session.cluster.fabric
    if hasattr(fabric, "link_stats"):
        stats = fabric.link_stats(elapsed_ps)
    else:
        stats = fabric.wire_stats(elapsed_ps)
    return [{"link": f"{prefix}{name}", **row} for name, row in stats.items()]


def _merged_occ_summary(observers, elapseds) -> dict[str, float]:
    # Single session: exactly the accumulator's own roll-up (bit-identical
    # to Timeline-derived busy fractions).  Several sessions: mean/max of
    # per-lane fractions across all of them.
    if len(observers) == 1:
        return observers[0].occupancy.category_busy_fracs(elapseds[0])
    fracs: dict[str, list[float]] = {cat: [] for cat in CATEGORIES}
    for obs, elapsed in zip(observers, elapseds):
        occ = obs.occupancy
        for rank, lane in occ.resources():
            cat = span_category(lane)
            if cat in fracs:
                fracs[cat].append(occ.busy_frac(rank, lane, elapsed))
    out: dict[str, float] = {}
    for cat in CATEGORIES:
        values = fracs[cat]
        out[f"occ_{cat}_busy_frac"] = (
            sum(values) / len(values) if values else 0.0)
        out[f"occ_{cat}_max_busy_frac"] = max(values, default=0.0)
    return out


def build_report(
    observers,
    *,
    meter=None,
    scenario: Optional[str] = None,
    params: Optional[dict] = None,
    seed: Optional[int] = None,
    elapsed_ps: Optional[int] = None,
) -> dict:
    """Assemble the telemetry document for one or more observed sessions.

    ``observers`` is a single :class:`~repro.obs.observer.Observer` or a
    sequence of them (one per session — e.g. an :class:`ObsCapture` over
    a multi-session scenario).  With several, resource and link keys get
    an ``s<i>/`` prefix and counters are summed.  ``meter`` is an
    optional :class:`~repro.perf.meter.KernelMeter` whose stats land
    under ``"kernel"``.
    """
    if not isinstance(observers, Sequence):
        observers = [observers]
    if not observers:
        raise ValueError("build_report needs at least one observer")
    many = len(observers) > 1
    elapseds = [obs.elapsed_ps if elapsed_ps is None else elapsed_ps
                for obs in observers]
    top_k = observers[0].config.top_k

    counters = dict.fromkeys(_COUNTER_KEYS, 0)
    cpu_busy_ns = 0.0
    occupancy: dict[str, dict] = {}
    handlers: list[dict] = []
    links: list[dict] = []
    windows: dict[str, dict] = {}
    probe_samples = {"spans": 0, "link": 0, "hpu_queue": 0, "messages": 0}
    for si, (obs, elapsed) in enumerate(zip(observers, elapseds)):
        prefix = f"s{si}/" if many else ""
        session_counters, busy_ns = _session_counters(obs.session, elapsed)
        for key, value in session_counters.items():
            counters[key] += value
        cpu_busy_ns += busy_ns
        occupancy.update(obs.occupancy.table(elapsed, prefix=prefix))
        handlers.extend(obs.occupancy.top_handlers(top_k, prefix=prefix))
        links.extend(_link_rows(obs.session, elapsed, prefix))
        probe_samples["spans"] += len(obs.timeline.spans)
        probe_samples["link"] += len(obs.link_samples)
        probe_samples["hpu_queue"] += len(obs.hpu_queue_samples)
        probe_samples["messages"] += len(obs.message_marks)
        if obs.windowed is not None:
            for resource in obs.windowed.occupancy_resources():
                windows[f"{prefix}{resource}"] = {
                    "window_ns": obs.windowed.window_ps / 1000.0,
                    "busy_frac": obs.windowed.occupancy_series(resource),
                }

    handlers.sort(key=lambda row: (-row["busy_ns"], row["label"], row["rank"]))
    links.sort(key=lambda row: (-row["busy_ns"], row["link"]))
    counters["host_cpu_busy_ns"] = cpu_busy_ns
    return {
        "schema": REPORT_SCHEMA,
        "scenario": scenario,
        "params": params,
        "seed": seed,
        "sessions": len(observers),
        "elapsed_ns": max(elapseds) / 1000.0,
        "counters": counters,
        "occ_summary": _merged_occ_summary(observers, elapseds),
        "occupancy": occupancy,
        "top_handlers": handlers[:top_k],
        "top_links": links[:top_k],
        "probe_samples": probe_samples,
        "kernel": meter.stats() if meter is not None else None,
        "windows": windows or None,
    }


def _fmt_frac(x: float) -> str:
    return f"{100.0 * x:6.2f}%"


def format_report(doc: dict) -> str:
    """Human-readable rendering of a report document (``view`` command)."""
    lines = []
    header = doc.get("scenario") or "run"
    if doc.get("seed") is not None:
        header += f" seed={doc['seed']}"
    lines.append(f"{header}  [{doc.get('schema', '?')}]")
    lines.append(f"  simulated time: {doc.get('elapsed_ns', 0.0):.1f} ns"
                 f"  sessions: {doc.get('sessions', 1)}")

    counters = doc.get("counters", {})
    if counters:
        lines.append("counters:")
        for key in sorted(counters):
            lines.append(f"  {key:<22} {counters[key]}")

    occ = doc.get("occ_summary", {})
    if occ:
        lines.append("occupancy (mean / max busy fraction):")
        for cat in CATEGORIES:
            mean = occ.get(f"occ_{cat}_busy_frac", 0.0)
            peak = occ.get(f"occ_{cat}_max_busy_frac", 0.0)
            lines.append(f"  {cat:<5} {_fmt_frac(mean)} / {_fmt_frac(peak)}")

    table = doc.get("occupancy", {})
    if table:
        busiest = sorted(table.items(),
                         key=lambda kv: (-kv[1]["busy_ns"], kv[0]))[:10]
        lines.append("busiest resources:")
        for name, row in busiest:
            lines.append(
                f"  {name:<24} {_fmt_frac(row['busy_frac'])}"
                f"  {row['busy_ns']:12.1f} ns  {row['spans']:6d} spans")

    handlers = doc.get("top_handlers") or []
    if handlers:
        lines.append("hottest handlers:")
        for row in handlers:
            lines.append(
                f"  {row['label']:<24} rank {row['rank']:<3}"
                f" {row['busy_ns']:12.1f} ns  {row['runs']:6d} runs")

    links = doc.get("top_links") or []
    if links:
        lines.append("hottest links:")
        for row in links:
            lines.append(
                f"  {row['link']:<24} util {row['utilization']:<7}"
                f" {row['packets']:6d} pkts  {row['drops']:4d} drops"
                f"  max queue {row['max_queue']}")

    kernel = doc.get("kernel")
    if kernel:
        lines.append(
            f"kernel: {kernel['events']} events / {kernel['environments']}"
            f" envs in {kernel['wall_s']} s"
            f" ({kernel['events_per_sec']:.0f} ev/s)")
    return "\n".join(lines)


def load_report(path) -> dict:
    """Read a report JSON file, checking the schema marker."""
    with open(path) as fh:
        doc = json.load(fh)
    schema = doc.get("schema", "")
    if not schema.startswith("repro.obs/report/"):
        raise ValueError(f"{path}: not a repro.obs report (schema={schema!r})")
    return doc
