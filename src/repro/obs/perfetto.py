"""Perfetto / Chrome ``trace_event`` JSON export.

Renders an observer's span stream and probe samples in the Trace Event
Format (the JSON flavour both chrome://tracing and https://ui.perfetto.dev
open): every simulated node becomes a *process* whose *threads* are the
timeline lanes (host CPU, match unit, TX wire, DMA engine, each HPU),
handler executions and packet serialisations are complete-duration
``"X"`` events, link queue depth and HPU input-queue depth are counter
(``"C"``) tracks, and message completions are instant marks.

Determinism: events are built from deterministic integer-picosecond
streams (the golden-trace contract), sorted on integer keys before the
float conversion, and
serialised with fixed separators and sorted keys — so an
identical seed produces byte-identical trace JSON everywhere.

Timestamps are microseconds (the trace_event unit): ``ts = ps / 1e6``.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.des.trace import span_category

__all__ = ["trace_events", "trace_json"]

#: Well-known lane → thread-id mapping; HPU ``i`` maps to ``10 + i`` and
#: unknown lanes are assigned from 100 upward in sorted-name order.
_LANE_TIDS = {"CPU": 0, "NIC": 1, "NIC-tx": 2, "DMA": 3}
_HPU_TID_BASE = 10
_OTHER_TID_BASE = 100

#: pid block reserved per observed session; the fabric's pseudo-process
#: takes the block's last pid.
PID_STRIDE = 1000


def _lane_tid(lane: str, others: dict[str, int]) -> int:
    tid = _LANE_TIDS.get(lane)
    if tid is not None:
        return tid
    if lane.startswith("HPU"):
        try:
            return _HPU_TID_BASE + int(lane[3:])
        except ValueError:
            pass
    tid = others.get(lane)
    if tid is None:
        tid = others[lane] = _OTHER_TID_BASE + len(others)
    return tid


def trace_events(observers: Sequence, pid_stride: int = PID_STRIDE) -> list[dict]:
    """Build the ``traceEvents`` list for one or more observers.

    Each observer (one session) gets a ``pid_stride``-wide pid block:
    node ``r`` of session ``i`` is pid ``i * pid_stride + r`` and the
    session's fabric tracks take the block's last pid.  Event order is
    deterministic: metadata first, then spans sorted per track by start
    time (recording order breaks ties), then counters, then instants.
    """
    meta: list[tuple] = []     # (pid, tid_or_-1, event)
    spans: list[tuple] = []    # (pid, tid, start_ps, idx, event)
    counters: list[tuple] = [] # (pid, name, t_ps, idx, event)
    instants: list[tuple] = [] # (pid, t_ps, idx, event)
    many = len(observers) > 1

    for si, obs in enumerate(observers):
        base = si * pid_stride
        fabric_pid = base + pid_stride - 1
        if len(obs.session) >= pid_stride - 1:
            raise ValueError(
                f"session has {len(obs.session)} nodes; raise pid_stride "
                f"(currently {pid_stride})")
        prefix = f"s{si} " if many else ""
        seen_pids: dict[int, str] = {}
        seen_tids: dict[tuple[int, int], str] = {}
        others_by_rank: dict[int, dict[str, int]] = {}

        for idx, s in enumerate(obs.timeline.spans):
            pid = base + s.rank
            others = others_by_rank.setdefault(s.rank, {})
            tid = _lane_tid(s.lane, others)
            seen_pids.setdefault(pid, f"{prefix}node {s.rank}")
            seen_tids.setdefault((pid, tid), s.lane)
            spans.append((pid, tid, s.start, idx, {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": s.start / 1e6,
                "dur": (s.end - s.start) / 1e6,
                "name": s.label or s.lane,
                "cat": span_category(s.lane),
            }))

        for idx, (link, t, depth, wait) in enumerate(obs.link_samples):
            seen_pids.setdefault(fabric_pid, f"{prefix}fabric")
            name = f"queue {link}"
            counters.append((fabric_pid, name, t, idx, {
                "ph": "C",
                "pid": fabric_pid,
                "tid": 0,
                "ts": t / 1e6,
                "name": name,
                "args": {"packets": depth,
                         "dropped": 1 if wait < 0 else 0},
            }))

        for idx, (rank, t, waiting) in enumerate(obs.hpu_queue_samples):
            pid = base + rank
            seen_pids.setdefault(pid, f"{prefix}node {rank}")
            counters.append((pid, "hpu-queue", t, idx, {
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": t / 1e6,
                "name": "hpu-queue",
                "args": {"waiting": waiting},
            }))

        for idx, (rank, t, msg_id) in enumerate(obs.message_marks):
            pid = base + rank
            tid = _LANE_TIDS["NIC"]
            seen_pids.setdefault(pid, f"{prefix}node {rank}")
            seen_tids.setdefault((pid, tid), "NIC")
            instants.append((pid, t, idx, {
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": t / 1e6,
                "name": f"msg m{msg_id}",
            }))

        for pid in sorted(seen_pids):
            meta.append((pid, -1, {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": seen_pids[pid]},
            }))
        for pid, tid in sorted(seen_tids):
            meta.append((pid, tid, {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": seen_tids[(pid, tid)]},
            }))

    meta.sort(key=lambda entry: entry[:2])
    spans.sort(key=lambda entry: entry[:4])
    counters.sort(key=lambda entry: entry[:4])
    instants.sort(key=lambda entry: entry[:3])
    return ([event for *_key, event in meta]
            + [event for *_key, event in spans]
            + [event for *_key, event in counters]
            + [event for *_key, event in instants])


def trace_json(events: list[dict]) -> str:
    """Serialise events as a trace_event JSON object, byte-stable."""
    return json.dumps(
        {"displayTimeUnit": "ns", "traceEvents": events},
        sort_keys=True, separators=(",", ":"),
    )
