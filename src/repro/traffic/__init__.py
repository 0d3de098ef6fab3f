"""Traffic-pattern subsystem: declarative specs lowered onto sessions.

The layers, bottom-up:

* :mod:`repro.traffic.spec` — the vocabulary: source processes
  (:class:`Periodic`, :class:`Poisson`, :class:`BurstyOnOff`,
  :class:`TraceReplay`), :class:`Edge`, graph constructors
  (:func:`all_to_one`, :func:`permutation`, :func:`pairwise`), and the
  composing :class:`TrafficSpec`;
* :mod:`repro.traffic.trace` — :class:`TraceEvent` records plus JSONL
  :func:`save_trace` / :func:`load_trace`;
* :mod:`repro.traffic.run` — :class:`TrafficRun`, which lowers a spec
  onto a live :class:`~repro.sim.session.Session` through the driver
  machinery and optionally feeds a
  :class:`~repro.sim.metrics.WindowedMetrics` time-resolved sink;
* :mod:`repro.traffic.scenarios` — the registered ``traffic`` campaign
  family (``bursting_load``, ``incast_transient``, ``replay_trace``,
  ``burst_under_flap``).
"""

from repro.traffic.run import TrafficRun
from repro.traffic.spec import (
    TRAFFIC_TAG,
    BurstyOnOff,
    Edge,
    Periodic,
    Poisson,
    TraceReplay,
    TrafficSpec,
    all_to_one,
    pairwise,
    permutation,
)
from repro.traffic.trace import TraceEvent, load_trace, save_trace

__all__ = [
    "TRAFFIC_TAG",
    "BurstyOnOff",
    "Edge",
    "Periodic",
    "Poisson",
    "TraceEvent",
    "TraceReplay",
    "TrafficRun",
    "TrafficSpec",
    "all_to_one",
    "load_trace",
    "pairwise",
    "permutation",
    "save_trace",
]
