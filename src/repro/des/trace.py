"""Execution timeline tracing.

The paper's appendix shows per-rank timelines with lanes for the CPU, the
NIC, the DMA engine, and each HPU.  :class:`Timeline` collects
:class:`Span` records from the simulation, and :func:`render_timeline`
renders them as ASCII diagrams (the reproduction's analogue of Appendix C's
trace figures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = ["Span", "Timeline", "render_timeline", "span_category"]

#: Span categories, keyed by exact lane name.  Lanes not listed here are
#: classified by prefix in :func:`span_category` (``HPU<i>`` → ``hpu``).
_LANE_CATEGORIES = {
    "CPU": "cpu",
    "NIC": "rx",
    "NIC-tx": "tx",
    "DMA": "dma",
}


def span_category(lane: str) -> str:
    """Coarse resource category for a timeline lane name.

    The observability layer (:mod:`repro.obs`) groups lanes into
    categories — ``cpu``, ``rx`` (match unit), ``tx`` (wire injection),
    ``dma``, ``hpu`` — for occupancy roll-ups and Perfetto track naming.
    Unknown lanes report ``"other"`` rather than raising, so scenario
    code may record custom lanes freely.
    """
    cat = _LANE_CATEGORIES.get(lane)
    if cat is not None:
        return cat
    if lane.startswith("HPU"):
        return "hpu"
    return "other"


@dataclass(frozen=True, slots=True)
class Span:
    """A half-open busy interval [start, end) on one lane of one rank."""

    rank: int
    lane: str
    start: int
    end: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self}")

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Timeline:
    """Collects spans; cheap to disable (``enabled=False`` drops everything).

    ``spans`` is the only state: :meth:`record` appends one span, and
    :meth:`busy_time` and :meth:`extent` scan the list when asked (no
    simulation code asks; tests and tools do).  Spans appended to or edited
    in ``spans`` directly are therefore always counted.
    """

    enabled: bool = True
    spans: list[Span] = field(default_factory=list)

    #: Observer probe slot (see :mod:`repro.obs`): an attached observer
    #: sets an *instance* attribute ``(rank, lane, start, end, label) ->
    #: None`` called after each recorded span.  The class-level ``None``
    #: keeps the default path to one identity test; the probe is a pure
    #: reader — span storage and ``canonical_bytes()`` are unaffected.
    _probe = None

    def record(self, rank: int, lane: str, start: int, end: int, label: str = "") -> None:
        if not self.enabled:
            return
        self.spans.append(Span(rank, lane, start, end, label))
        if self._probe is not None:
            self._probe(rank, lane, start, end, label)

    def lanes(self, rank: Optional[int] = None) -> list[tuple[int, str]]:
        """Distinct (rank, lane) pairs in first-appearance order."""
        seen: dict[tuple[int, str], None] = {}
        for span in self.spans:
            if rank is None or span.rank == rank:
                seen.setdefault((span.rank, span.lane), None)
        return list(seen)

    def busy_time(self, rank: int, lane: str) -> int:
        """Total busy picoseconds on a lane (spans assumed non-overlapping)."""
        return sum(s.end - s.start for s in self.spans
                   if s.rank == rank and s.lane == lane)

    def extent(self) -> tuple[int, int]:
        """(min start, max end) over all spans; (0, 0) if empty."""
        spans = self.spans
        if not spans:
            return (0, 0)
        return (min(s.start for s in spans), max(s.end for s in spans))

    def canonical_bytes(self) -> bytes:
        """Byte-exact encoding of the recorded spans, in recording order.

        Two simulation runs are event-trace identical iff these bytes are
        identical — the golden-trace regression tests hash this.
        """
        return "\n".join(
            f"{s.rank}|{s.lane}|{s.start}|{s.end}|{s.label}" for s in self.spans
        ).encode()

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_bytes`."""
        import hashlib

        return hashlib.sha256(self.canonical_bytes()).hexdigest()


def render_timeline(
    timeline: Timeline,
    width: int = 100,
    ranks: Optional[Iterable[int]] = None,
) -> str:
    """Render collected spans as an ASCII Gantt chart.

    Each (rank, lane) becomes one row; busy intervals are drawn with ``#``.
    The output mirrors the appendix trace diagrams well enough to eyeball
    pipelining (e.g. streaming handlers overlapping the incoming message).
    """
    spans = timeline.spans
    if ranks is not None:
        wanted = set(ranks)
        spans = [s for s in spans if s.rank in wanted]
    if not spans:
        return "(empty timeline)"

    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    extent = max(t1 - t0, 1)
    scale = width / extent

    lanes: dict[tuple[int, str], list[Span]] = {}
    for span in spans:
        lanes.setdefault((span.rank, span.lane), []).append(span)

    label_width = max(len(f"r{r} {lane}") for r, lane in lanes) + 1
    lines = [
        f"{'':<{label_width}}|{'-' * width}|  "
        f"t0={t0 / 1e6:.3f}us span={extent / 1e6:.3f}us"
    ]
    for (rank, lane), lane_spans in sorted(lanes.items()):
        row = [" "] * width
        for span in lane_spans:
            a = int((span.start - t0) * scale)
            b = int((span.end - t0) * scale)
            b = max(b, a + 1)
            for i in range(a, min(b, width)):
                row[i] = "#"
        lines.append(f"{f'r{rank} {lane}':<{label_width}}|{''.join(row)}|")
    return "\n".join(lines)
