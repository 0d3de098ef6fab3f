"""Opt-in observability: Perfetto export, occupancy probes, telemetry.

The paper's central claims are about *where time goes inside the NIC* —
HPU occupancy, handler latency, DMA/wire overlap (§6) — and end-of-run
scalars cannot show a single run's interior.  This package turns the
existing :class:`~repro.des.trace.Timeline` span stream plus a handful of
probe points (link admissions, HPU queue depth, message completions) into
three artefacts:

* a **Perfetto/Chrome trace** (:mod:`repro.obs.perfetto`) — open the
  exported JSON in https://ui.perfetto.dev and see handler executions,
  packet walks, and queue buildup as nested spans and counter tracks;
* **resource-occupancy accounting** (:mod:`repro.obs.occupancy`) —
  per-HPU/DMA/CPU/link busy fractions and span-duration histograms,
  computed incrementally (O(1) per span, no sample lists) and rolled up
  per category into the report's ``occ_*`` summary;
* a **structured run report** (:mod:`repro.obs.report`) with a stable
  schema — counters, occupancy table, top-k hottest handlers and links,
  kernel-event stats — pretty-printed by ``python -m repro.obs view``.

Zero-overhead invariant
-----------------------
Attachment follows the fault-injector pattern: every probe is a
class-level ``None`` slot armed as an *instance* attribute, so a run
without an observer pays exactly one ``is not None`` test per probe
site and schedules zero extra kernel events.  The observer itself is a
pure reader — it never records spans or schedules events — so an
attached run's ``Timeline.canonical_bytes()`` is byte-identical to a
detached one, and the exporter is deterministic: identical seed ⇒
byte-identical trace JSON.

Quickstart::

    from repro.sim import Session
    with Session.pair("int", trace=True) as sess:
        obs = sess.attach_observer()
        ...  # drive the workload
        obs.export_trace("run.perfetto.json")
        report = obs.build_report()

or ambiently, from the campaign CLI::

    python -m repro.campaign run incast_load --tiny \\
        --trace-out run.perfetto.json --report report.json
    python -m repro.obs view report.json
"""

from repro.obs.capture import ObsCapture
from repro.obs.observer import ObsConfig, Observer
from repro.obs.occupancy import OccupancyAccumulator
from repro.obs.perfetto import trace_events, trace_json
from repro.obs.report import REPORT_SCHEMA, build_report, format_report

__all__ = [
    "ObsCapture",
    "ObsConfig",
    "Observer",
    "OccupancyAccumulator",
    "REPORT_SCHEMA",
    "build_report",
    "format_report",
    "trace_events",
    "trace_json",
]
