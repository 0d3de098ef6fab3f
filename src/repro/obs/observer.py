"""The observer: arms probe slots on one session and collects streams.

Attachment follows the fault-injector pattern (:mod:`repro.faults`):
every probe is a class-level ``None`` slot on the observed component,
set here as an *instance* attribute — detaching pops the attribute and
the component falls back to the neutral class default.  The observer is
a pure reader: it schedules no kernel events and records no spans, so
an observed run's ``Timeline.canonical_bytes()`` is byte-identical to
an unobserved one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.occupancy import OccupancyAccumulator
from repro.sim.metrics import WindowedMetrics

__all__ = ["ObsConfig", "Observer"]


@dataclass(frozen=True)
class ObsConfig:
    """What an :class:`Observer` collects.

    The defaults collect everything the Perfetto exporter and the report
    builder consume; ``window_ns`` additionally bins busy time into a
    :class:`~repro.sim.metrics.WindowedMetrics` occupancy series
    (time-resolved utilisation, exact integer split across windows).
    """

    #: Bin busy spans into fixed-width windows of this many ns (None:
    #: no windowed occupancy series).
    window_ns: Optional[float] = None
    #: Collect per-link queue-depth counter samples (congestion fabric).
    link_counters: bool = True
    #: Collect HPU input-queue depth counter samples (sPIN NICs).
    hpu_counters: bool = True
    #: Collect message-completion instant marks.
    message_marks: bool = True
    #: Rows in the report's hottest-handlers / hottest-links tables.
    top_k: int = 5


class Observer:
    """Collects observability streams from one running session.

    Create via :meth:`repro.sim.session.Session.attach_observer` (or
    ambiently through :class:`~repro.obs.capture.ObsCapture`).  Spans
    already on the timeline at attach time are replayed into the
    accumulator, so occupancy totals always equal the timeline's —
    attaching mid-run loses nothing.
    """

    def __init__(self, session, config: Optional[ObsConfig] = None):
        if config is None:
            config = ObsConfig()
        timeline = session.timeline
        if not timeline.enabled:
            raise ValueError(
                "observer requires a traced session — build it with "
                "ClusterSpec(trace=True) / Session.pair(..., trace=True)"
            )
        self.session = session
        self.config = config
        self.timeline = timeline
        self.occupancy = OccupancyAccumulator()
        self.windowed: Optional[WindowedMetrics] = (
            WindowedMetrics(config.window_ns)
            if config.window_ns is not None else None
        )
        #: Link admission samples, probe order:
        #: (link_name, t_ps, backlog_packets, wait_ps) — ``wait_ps < 0``
        #: is a tail-drop.
        self.link_samples: list[tuple[str, int, int, int]] = []
        #: HPU input-queue samples, probe order: (rank, t_ps, waiting).
        self.hpu_queue_samples: list[tuple[int, int, int]] = []
        #: Message completions, probe order: (rank, t_ps, msg_id).
        self.message_marks: list[tuple[int, int, int]] = []
        self._attached = False
        self._arm()
        for s in timeline.spans:
            self._on_span(s.rank, s.lane, s.start, s.end, s.label)

    # -- probe wiring ------------------------------------------------------
    def _arm(self) -> None:
        self.timeline._probe = self._on_span
        cluster = self.session.cluster
        fabric = cluster.fabric
        if self.config.link_counters and hasattr(fabric, "links"):
            fabric._link_probe = self._on_link
        for machine in cluster.machines:
            nic = machine.nic
            if self.config.message_marks:
                nic._obs_msg_probe = self._on_message
            if self.config.hpu_counters:
                nic._obs_hpu_probe = self._on_hpu_queue
        self._attached = True

    def detach(self) -> None:
        """Pop every armed probe back to its neutral class default."""
        if not self._attached:
            return
        self._attached = False
        self.timeline.__dict__.pop("_probe", None)
        cluster = self.session.cluster
        cluster.fabric.__dict__.pop("_link_probe", None)
        for machine in cluster.machines:
            machine.nic.__dict__.pop("_obs_msg_probe", None)
            machine.nic.__dict__.pop("_obs_hpu_probe", None)

    # -- probe callbacks (pure readers) ------------------------------------
    def _on_span(self, rank: int, lane: str, start: int, end: int,
                 label: str) -> None:
        self.occupancy.observe(rank, lane, start, end, label)
        if self.windowed is not None:
            self.windowed.observe_busy(f"node{rank}/{lane}", start, end)

    def _on_link(self, link, now: int, wait: int, pkt) -> None:
        self.link_samples.append((link.name, now, link.backlog(now), wait))

    def _on_message(self, rank: int, now: int, msg) -> None:
        self.message_marks.append((rank, now, msg.msg_id))

    def _on_hpu_queue(self, rank: int, now: int, waiting: int) -> None:
        self.hpu_queue_samples.append((rank, now, waiting))

    # -- derived views -----------------------------------------------------
    @property
    def elapsed_ps(self) -> int:
        return self.session.env.now

    # -- exports -----------------------------------------------------------
    def export_trace(self, path=None) -> str:
        """Perfetto trace JSON for this session; written to ``path`` if
        given, returned either way."""
        from repro.obs.perfetto import trace_events, trace_json
        text = trace_json(trace_events([self]))
        if path is not None:
            from pathlib import Path
            Path(path).write_text(text + "\n")
        return text

    def build_report(self, **kwargs) -> dict:
        """The structured telemetry report for this session."""
        from repro.obs.report import build_report
        return build_report(self, **kwargs)
