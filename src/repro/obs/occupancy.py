"""Incremental resource-occupancy accounting.

Fed one span at a time by an :class:`~repro.obs.observer.Observer`, the
accumulator maintains per-(rank, lane) busy totals, span counts, and
power-of-two span-duration histograms — all O(1) per span, no sample
lists — so a million-span trace costs the same per-resource memory as a
ten-span one.  Busy totals are the *same integers* the timeline's spans
sum to (every recorded span flows through both), so a report's busy fraction
matches :meth:`repro.des.trace.Timeline.busy_time` divided by the
elapsed time exactly.
"""

from __future__ import annotations

from typing import Optional

from repro.des.trace import span_category

__all__ = ["OccupancyAccumulator"]

#: Category keys always present in the ``occ_*`` roll-up, in report order.
CATEGORIES = ("hpu", "cpu", "dma", "tx", "rx")


class _ResourceOcc:
    """Accounting for one (rank, lane) resource."""

    __slots__ = ("busy_ps", "spans", "hist")

    def __init__(self) -> None:
        self.busy_ps = 0
        self.spans = 0
        #: Span-duration histogram: bucket ``b`` counts durations with
        #: ``duration.bit_length() == b`` (i.e. in ``[2**(b-1), 2**b)``
        #: picoseconds; bucket 0 is zero-duration spans).
        self.hist: dict[int, int] = {}

    def add(self, duration_ps: int) -> None:
        self.busy_ps += duration_ps
        self.spans += 1
        bucket = duration_ps.bit_length()
        self.hist[bucket] = self.hist.get(bucket, 0) + 1


class OccupancyAccumulator:
    """Per-resource busy accounting over a span stream."""

    def __init__(self) -> None:
        #: (rank, lane) → accounting.
        self._res: dict[tuple[int, str], _ResourceOcc] = {}
        #: (label, rank) → [busy_ps, runs] for HPU-category spans — the
        #: raw material for the report's top-k hottest handlers.
        self._handlers: dict[tuple[str, int], list[int]] = {}

    # -- observation -------------------------------------------------------
    def observe(self, rank: int, lane: str, start: int, end: int,
                label: str = "") -> None:
        key = (rank, lane)
        res = self._res.get(key)
        if res is None:
            res = self._res[key] = _ResourceOcc()
        duration = end - start
        res.add(duration)
        if lane.startswith("HPU"):
            agg = self._handlers.get((label, rank))
            if agg is None:
                self._handlers[(label, rank)] = [duration, 1]
            else:
                agg[0] += duration
                agg[1] += 1

    # -- queries -----------------------------------------------------------
    def resources(self) -> list[tuple[int, str]]:
        """Observed (rank, lane) pairs, sorted."""
        return sorted(self._res)

    def busy_ps(self, rank: int, lane: str) -> int:
        res = self._res.get((rank, lane))
        return res.busy_ps if res is not None else 0

    def span_count(self, rank: int, lane: str) -> int:
        res = self._res.get((rank, lane))
        return res.spans if res is not None else 0

    def busy_frac(self, rank: int, lane: str, elapsed_ps: int) -> float:
        if elapsed_ps <= 0:
            return 0.0
        return self.busy_ps(rank, lane) / elapsed_ps

    def histogram(self, rank: int, lane: str) -> dict[int, int]:
        """Span-duration histogram (log2-ps bucket → count)."""
        res = self._res.get((rank, lane))
        return dict(res.hist) if res is not None else {}

    # -- roll-ups ----------------------------------------------------------
    def category_busy_fracs(self, elapsed_ps: int) -> dict[str, float]:
        """The ``occ_*`` summary notes: per-category busy fractions.

        ``occ_<cat>_busy_frac`` is the mean busy fraction over the
        category's *observed* lanes (an HPU lane only materialises once a
        handler ran on it); ``occ_<cat>_max_busy_frac`` is the busiest
        single lane.  Every category key is always present — zero when
        the run recorded no such span — so summary schemas keep one
        shape across workloads.
        """
        totals: dict[str, list[int]] = {cat: [] for cat in CATEGORIES}
        for (_rank, lane), res in self._res.items():
            cat = span_category(lane)
            if cat in totals:
                totals[cat].append(res.busy_ps)
        out: dict[str, float] = {}
        for cat in CATEGORIES:
            busy = totals[cat]
            if busy and elapsed_ps > 0:
                out[f"occ_{cat}_busy_frac"] = (
                    sum(busy) / (elapsed_ps * len(busy)))
                out[f"occ_{cat}_max_busy_frac"] = max(busy) / elapsed_ps
            else:
                out[f"occ_{cat}_busy_frac"] = 0.0
                out[f"occ_{cat}_max_busy_frac"] = 0.0
        return out

    def table(self, elapsed_ps: int,
              prefix: str = "") -> dict[str, dict]:
        """The report's occupancy table: one row per observed resource.

        Keys are ``"<prefix>node<rank>/<lane>"``; histogram buckets are
        stringified for JSON round-tripping.
        """
        out = {}
        for (rank, lane) in sorted(self._res):
            res = self._res[(rank, lane)]
            out[f"{prefix}node{rank}/{lane}"] = {
                "category": span_category(lane),
                "busy_ns": res.busy_ps / 1000.0,
                "busy_frac": (res.busy_ps / elapsed_ps
                              if elapsed_ps > 0 else 0.0),
                "spans": res.spans,
                "hist_log2_ps": {str(b): res.hist[b]
                                 for b in sorted(res.hist)},
            }
        return out

    def top_handlers(self, k: int = 5, rank: Optional[int] = None,
                     prefix: str = "") -> list[dict]:
        """The ``k`` hottest handler labels by HPU busy time."""
        rows = [
            {"label": label, "rank": r, "busy_ns": busy / 1000.0,
             "runs": runs}
            for (label, r), (busy, runs) in self._handlers.items()
            if rank is None or r == rank
        ]
        rows.sort(key=lambda row: (-row["busy_ns"], row["label"],
                                   row["rank"]))
        if prefix:
            for row in rows:
                row["label"] = f"{prefix}{row['label']}"
        return rows[:k]
