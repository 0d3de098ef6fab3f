"""First-class load metrics: latency distributions, throughput, drops.

Workload drivers feed per-request samples into a :class:`Metrics` sink,
one stream per channel/client/tenant; :meth:`Metrics.summary` folds every
stream into JSON-serialisable scalars (the campaign contract), including
nearest-rank latency percentiles computed from simulation timestamps.
Every stream stores its latencies in one :class:`QuantileSketch`: exact
by default, fixed-memory with ``Metrics(sketch_capacity=N)``.

All arithmetic is integer-picosecond until the final report, so summaries
are bit-identical across runs, worker processes, and hosts.

Windowed (time-resolved) mode
-----------------------------
End-of-run scalars hide transients — burst absorption, incast collapse,
post-fault recovery all vanish into one p99.  :class:`WindowedMetrics`
bins completions, latency, drops, and fabric queue depth into fixed-width
time windows (integer-picosecond bin edges, so window membership is exact
arithmetic with no float drift) and reports a JSON-serialisable
:meth:`~WindowedMetrics.timeseries`.  Per-bin latency lives in
:class:`QuantileSketch` — a deterministic streaming sketch with bounded
memory — so a million-request window costs the same as a ten-request one.
Attach a sink via :attr:`Metrics.windowed` and the drivers feed it
automatically; detached (the default), nothing here runs and summaries
are byte-identical to the pre-windowed code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.sketch import QuantileSketch, percentile_ps

__all__ = [
    "LatencyStats",
    "Metrics",
    "QuantileSketch",
    "WindowedMetrics",
    "percentile_ps",
]


@dataclass
class LatencyStats:
    """Accumulates request latencies (integer picoseconds) for one stream.

    Samples feed one :class:`QuantileSketch` plus an exact running sum,
    so the mean is exact whatever the sketch keeps.  The default
    ``sketch_capacity=None`` never compacts: percentiles are exact
    nearest-rank answers over every sample.  A bounded capacity keeps
    memory fixed no matter how many requests complete, and is still
    exact until the first compaction.
    """

    bytes_total: int = 0
    started: int = 0
    completed: int = 0
    dropped: int = 0
    #: Reliability-layer accounting (see :mod:`repro.sim.drivers`): timer
    #: expiries and retransmitted attempts.  ``completed`` counts unique
    #: logical requests, so goodput is throughput net of retransmits.
    timeouts: int = 0
    retransmits: int = 0
    sketch_capacity: Optional[int] = None
    #: Exact running latency sum — the mean stays exact even when the
    #: percentiles come from a compacted sketch.
    sum_ps: int = 0
    sketch: QuantileSketch = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.sketch = QuantileSketch(self.sketch_capacity)

    def start(self) -> None:
        self.started += 1

    def record(self, latency_ps: int, nbytes: int = 0) -> None:
        if latency_ps < 0:
            raise ValueError(f"negative latency {latency_ps}")
        self.sketch.add(latency_ps)
        self.sum_ps += latency_ps
        self.completed += 1
        self.bytes_total += nbytes

    def drop(self) -> None:
        self.dropped += 1

    @property
    def in_flight(self) -> int:
        return self.started - self.completed - self.dropped

    @property
    def sample_count(self) -> int:
        """Recorded latency samples."""
        return self.sketch.count

    def percentile_ns(self, q: float) -> float:
        return self.sketch.percentile(q) / 1000.0

    def summary(self, elapsed_ps: Optional[int] = None) -> dict:
        """Scalars for this stream (latencies in ns, rates per second)."""
        out: dict = {
            "started": self.started,
            "completed": self.completed,
            "dropped": self.dropped,
            "bytes": self.bytes_total,
            "timeouts": self.timeouts,
            "retransmits": self.retransmits,
        }
        sketch = self.sketch
        if sketch.count:
            p50, p99, p999 = sketch.percentiles((0.50, 0.99, 0.999))
            out.update(
                p50_ns=p50 / 1000.0,
                p99_ns=p99 / 1000.0,
                p999_ns=p999 / 1000.0,
                max_ns=sketch.max / 1000.0,
                mean_ns=self.sum_ps / sketch.count / 1000.0,
            )
        if elapsed_ps is not None:
            # A legitimate zero-elapsed run (nothing ever scheduled) still
            # reports its throughput fields — as zero, not by omission.
            seconds = elapsed_ps * 1e-12
            out["throughput_rps"] = self.completed / seconds if seconds else 0.0
            out["gib_s"] = (self.bytes_total / seconds / (1 << 30)
                            if seconds else 0.0)
            # Unique completions per µs: under retransmission, what the
            # application actually got through the lossy fabric.
            out["goodput_mmps"] = (self.completed / seconds / 1e6
                                   if seconds else 0.0)
        return out


class Metrics:
    """A collection of named latency/throughput streams.

    Streams are created on first use; :meth:`summary` reports each stream
    under its own key plus a ``total`` roll-up.  ``note`` counters hold
    scenario-specific tallies (NIC inserts, host fallbacks, drops observed
    at a portal table) that ride along into the same result dict.
    """

    def __init__(self, *, sketch_capacity: Optional[int] = None) -> None:
        #: Sketch capacity for streams created by :meth:`stream` —
        #: ``None`` keeps exact percentiles; a bound (the population
        #: scenarios use 512) keeps every stream fixed-memory.
        self.sketch_capacity = sketch_capacity
        self.streams: dict[str, LatencyStats] = {}
        self.notes: dict[str, float] = {}
        #: Opt-in completion-timestamp log (integer ps, append order):
        #: set to ``[]`` before driving load and the reliability layer
        #: records every unique completion — the raw material for
        #: time-to-recovery after a fault clears.  ``None`` (default)
        #: records nothing.
        self.completion_log: Optional[list[int]] = None
        #: Opt-in windowed sink: attach a :class:`WindowedMetrics` and the
        #: drivers feed it every completion/drop alongside the scalar
        #: streams.  ``None`` (default) keeps the pre-windowed behaviour
        #: bit-for-bit.
        self.windowed: Optional["WindowedMetrics"] = None

    def stream(self, name: str) -> LatencyStats:
        try:
            return self.streams[name]
        except KeyError:
            stats = self.streams[name] = LatencyStats(
                sketch_capacity=self.sketch_capacity)
            return stats

    def note(self, name: str, value: float) -> None:
        """Record (or overwrite) a scenario-specific scalar."""
        self.notes[name] = value

    def bump(self, name: str, delta: float = 1) -> None:
        self.notes[name] = self.notes.get(name, 0) + delta

    def observe_pt_drops(self, machine, pt_index: int = 0,
                         prefix: str = "pt") -> None:
        """Snapshot a portal-table entry's drop accounting into notes.

        The keys are always present — zero when the portal index was
        never allocated on this machine (e.g. a pure-sender node in a
        heterogeneous cluster) — following the same present-but-zero
        convention :meth:`observe_fabric` uses, so result schemas never
        change shape with the node's role.
        """
        from repro.portals.types import PortalsError
        try:
            pt = machine.ni.pt(pt_index)
        except PortalsError:
            dropped_messages = dropped_bytes = 0
        else:
            dropped_messages = pt.dropped_messages
            dropped_bytes = pt.dropped_bytes
        self.bump(f"{prefix}_dropped_messages", dropped_messages)
        self.bump(f"{prefix}_dropped_bytes", dropped_bytes)

    def observe_fabric(self, fabric, prefix: str = "fabric",
                       elapsed_ps: Optional[int] = None) -> None:
        """Snapshot a fabric's loss/occupancy accounting into notes.

        Works on any :class:`~repro.network.fabric.Fabric` (delivery and
        detached-destination drop counters); a congestion fabric
        additionally reports per-port aggregates — total tail-drops, the
        deepest link queue observed, and the peak link utilization.
        """
        self.note(f"{prefix}_packets_delivered", fabric.packets_delivered)
        self.note(f"{prefix}_packets_dropped", fabric.packets_dropped)
        # Receiver-side fallout of in-network loss: payload packets whose
        # header was dropped (orphans) and matched messages whose payload
        # never finished arriving (stalled receive states).
        self.note(f"{prefix}_rx_orphan_packets", fabric.rx_orphan_packets())
        self.note(f"{prefix}_rx_stalled_messages", fabric.rx_stalled_messages())
        # Fault-injection fallout (zero on un-faulted runs; the keys stay
        # present so result schemas are stable across a loss-rate sweep).
        self.note("fault_packets_lost", fabric.fault_packets_lost)
        self.note("fault_packets_corrupted", fabric.fault_packets_corrupted)
        # Link occupancy keys are present-but-zero on the contention-free
        # LogGP pipe (same contract the fault keys above follow), so a
        # result schema never changes shape with the fabric flavour.
        if hasattr(fabric, "links"):  # congestion flavour
            self.note(f"{prefix}_link_drops", fabric.total_link_drops())
            self.note(f"{prefix}_max_link_queue", fabric.max_link_queue())
            self.note(
                f"{prefix}_max_link_utilization",
                round(fabric.max_link_utilization(elapsed_ps), 4),
            )
            self.note(f"{prefix}_links_down", fabric.fault_link_down_events)
        else:
            self.note(f"{prefix}_link_drops", 0)
            self.note(f"{prefix}_max_link_queue", 0)
            self.note(f"{prefix}_max_link_utilization", 0.0)
            self.note(f"{prefix}_links_down", 0)

    def first_completion_after(self, t_ps: int) -> Optional[int]:
        """Earliest logged completion at or after ``t_ps`` (recovery time).

        Requires :attr:`completion_log` to have been enabled before the
        run; returns ``None`` when nothing completed after ``t_ps``.
        """
        if self.completion_log is None:
            raise ValueError(
                "completion_log was never enabled (set metrics.completion_log"
                " = [] before driving load)"
            )
        after = [t for t in self.completion_log if t >= t_ps]
        return min(after) if after else None

    def total(self) -> LatencyStats:
        """Merged view across every stream (fresh object, order-stable).

        Stream sketches merge in sorted-name order, so the roll-up is
        deterministic regardless of stream creation order.  The roll-up
        is exact when every stream is; otherwise it is bounded by the
        largest stream capacity.
        """
        bounded = [s.sketch_capacity for s in self.streams.values()
                   if s.sketch_capacity is not None]
        merged = LatencyStats(sketch_capacity=max(bounded, default=None))
        for name in sorted(self.streams):
            s = self.streams[name]
            merged.sketch.merge(s.sketch)
            merged.sum_ps += s.sum_ps
            merged.bytes_total += s.bytes_total
            merged.started += s.started
            merged.completed += s.completed
            merged.dropped += s.dropped
            merged.timeouts += s.timeouts
            merged.retransmits += s.retransmits
        return merged

    def summary(self, elapsed_ps: Optional[int] = None,
                per_stream: bool = True) -> dict:
        """Flat, JSON-serialisable scalars: totals + per-stream breakdown."""
        out: dict = {}
        total = self.total()
        for key, value in total.summary(elapsed_ps).items():
            out[key] = value
        if elapsed_ps is not None:
            out["elapsed_ns"] = elapsed_ps / 1000.0
        # Any named stream gets its breakdown — a single-stream workload
        # previously lost its per-stream keys entirely (the breakdown only
        # appeared with two or more streams), so downstream consumers keyed
        # on "<stream>.completed" saw the keys vanish when a sweep point
        # happened to exercise one stream.  (Cache records are keyed by the
        # source digest, so stale summaries age out automatically.)
        if per_stream and self.streams:
            for name in sorted(self.streams):
                for key, value in self.streams[name].summary(elapsed_ps).items():
                    out[f"{name}.{key}"] = value
        for name, value in self.notes.items():
            # A note named like a roll-up or stream key ("completed",
            # "load.p99_ns") would silently corrupt the summary it rides
            # along in; refuse instead of clobbering.
            if name in out:
                raise ValueError(
                    f"note {name!r} collides with a summary key; "
                    f"prefix the note (e.g. 'note_{name}')"
                )
            out[name] = value
        return out


class _WindowBin:
    """Accounting for one fixed-width time window of one series."""

    __slots__ = ("completed", "dropped", "bytes", "sketch", "queue_max",
                 "queue_samples")

    def __init__(self, sketch_capacity: int):
        self.completed = 0
        self.dropped = 0
        self.bytes = 0
        self.sketch = QuantileSketch(sketch_capacity)
        self.queue_max = 0
        self.queue_samples = 0


class WindowedMetrics:
    """Bins completions/latency/drops/queue depth into time windows.

    Bin edges are exact integer arithmetic: window ``i`` covers
    picoseconds ``[i * window_ps, (i + 1) * window_ps)`` with
    ``window_ps = round(window_ns * 1000)``, so membership never drifts
    with float accumulation.  Memory is fixed per bin (counters plus a
    :class:`QuantileSketch`); bins materialise lazily on first
    observation, and :meth:`timeseries` fills the gaps with explicit
    empty bins so consumers see a dense series.

    Streams: every observation lands in the roll-up series; pass
    ``stream=`` to also bin it under that name (per-tenant / per-edge
    time series).  Queue-depth samples are roll-up only.
    """

    def __init__(self, window_ns: float, *, sketch_capacity: int = 128):
        window_ps = round(window_ns * 1000.0)
        if window_ps < 1:
            raise ValueError(
                f"window_ns {window_ns} rounds to zero picoseconds")
        self.window_ps = window_ps
        self.sketch_capacity = sketch_capacity
        self._series: dict[Optional[str], dict[int, _WindowBin]] = {None: {}}
        #: Per-resource busy picoseconds per window (resource → bin → ps),
        #: fed by :meth:`observe_busy` (the observability layer's
        #: time-resolved occupancy).  Exact integer arithmetic: a span is
        #: split across the windows it overlaps, never sampled.
        self._occ: dict[str, dict[int, int]] = {}

    # -- observation -------------------------------------------------------
    def bin_index(self, t_ps: int) -> int:
        if t_ps < 0:
            raise ValueError(f"negative timestamp {t_ps}")
        return t_ps // self.window_ps

    def _bin(self, series: Optional[str], t_ps: int) -> _WindowBin:
        bins = self._series.setdefault(series, {})
        idx = self.bin_index(t_ps)
        try:
            return bins[idx]
        except KeyError:
            b = bins[idx] = _WindowBin(self.sketch_capacity)
            return b

    def observe_completion(self, t_ps: int, latency_ps: int, nbytes: int = 0,
                           stream: Optional[str] = None) -> None:
        targets = (None,) if stream is None else (None, stream)
        for series in targets:
            b = self._bin(series, t_ps)
            b.completed += 1
            b.bytes += nbytes
            b.sketch.add(latency_ps)

    def observe_drop(self, t_ps: int, stream: Optional[str] = None) -> None:
        targets = (None,) if stream is None else (None, stream)
        for series in targets:
            self._bin(series, t_ps).dropped += 1

    def observe_queue_depth(self, t_ps: int, depth: int) -> None:
        b = self._bin(None, t_ps)
        b.queue_samples += 1
        if depth > b.queue_max:
            b.queue_max = depth

    def observe_busy(self, resource: str, start_ps: int, end_ps: int) -> None:
        """Credit a busy interval ``[start_ps, end_ps)`` to ``resource``.

        The span is split exactly across every window it overlaps (a
        span longer than a window credits each full window its whole
        width), so per-window busy fractions are exact integer
        accounting, not samples.
        """
        if start_ps < 0 or end_ps < start_ps:
            raise ValueError(
                f"bad busy interval [{start_ps}, {end_ps}) for {resource!r}")
        occ = self._occ.setdefault(resource, {})
        w = self.window_ps
        idx = start_ps // w
        while start_ps < end_ps:
            edge = (idx + 1) * w
            occ[idx] = occ.get(idx, 0) + (min(end_ps, edge) - start_ps)
            start_ps = edge
            idx += 1

    # -- reporting ---------------------------------------------------------
    def occupancy_resources(self) -> tuple[str, ...]:
        """Resources with busy-time observations, sorted."""
        return tuple(sorted(self._occ))

    def occupancy_series(self, resource: str) -> list[float]:
        """Per-window busy fraction for one resource (dense from t=0).

        The series extends through the resource's last busy window;
        windows with no busy time report 0.0.
        """
        bins = self._occ.get(resource, {})
        n = (max(bins) + 1) if bins else 0
        w = self.window_ps
        return [bins.get(i, 0) / w for i in range(n)]

    def num_bins(self, stream: Optional[str] = None) -> int:
        bins = self._series.get(stream, {})
        return (max(bins) + 1) if bins else 0

    def timeseries(self, stream: Optional[str] = None) -> dict:
        """Dense JSON-serialisable time series for one stream (or the
        roll-up).

        One entry per window from t=0 through the last observed window,
        empty windows included (zero counts, ``None`` percentiles — a
        window with no completions has no latency, and reporting 0.0
        would fake a perfect one).
        """
        bins = self._series.get(stream, {})
        out = []
        for idx in range(self.num_bins(stream)):
            b = bins.get(idx)
            entry: dict = {
                "t_ns": idx * self.window_ps / 1000.0,
                "completed": 0 if b is None else b.completed,
                "dropped": 0 if b is None else b.dropped,
                "bytes": 0 if b is None else b.bytes,
                "queue_max": 0 if b is None else b.queue_max,
                "p50_ns": None,
                "p99_ns": None,
                "max_ns": None,
            }
            if b is not None and b.sketch.count:
                p50, p99 = b.sketch.percentiles((0.50, 0.99))
                entry["p50_ns"] = p50 / 1000.0
                entry["p99_ns"] = p99 / 1000.0
                entry["max_ns"] = b.sketch.max / 1000.0
            seconds = self.window_ps * 1e-12
            entry["throughput_rps"] = entry["completed"] / seconds
            out.append(entry)
        return {
            "window_ns": self.window_ps / 1000.0,
            "stream": stream,
            "bins": out,
        }

    def series(self, key: str, stream: Optional[str] = None,
               default: float = 0.0) -> list:
        """One column of :meth:`timeseries` as a flat list (figures/tests).

        ``None`` cells (empty-window percentiles) are replaced by
        ``default`` so the list is JSON- and table-friendly.
        """
        ts = self.timeseries(stream)
        return [default if b[key] is None else b[key] for b in ts["bins"]]
