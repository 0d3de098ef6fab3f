"""The unified session API: declarative simulations, workload, metrics.

The paper's pitch is a *programming model* — write three small handlers
and the NIC does the rest.  This package is that model's front door for
the reproduction:

``session``    :class:`ClusterSpec` + :class:`Session` — declarative
               cluster construction, validated channel/ME installation,
               run control, teardown
``drivers``    load generators over any installed channel, all on one
               :class:`~repro.sim.driver_core.DriverCore`.  Arrivals
               come from a *schedule* (:class:`ScheduleDriver`, and
               :class:`OpenLoopDriver` over Poisson gaps) or from a
               *population* (:class:`ClosedLoopDriver` per client,
               :class:`PopulationDriver` as one aggregated rate for
               millions of clients)
``metrics``    :class:`Metrics` / :class:`LatencyStats` — per-stream
               throughput, completion counts, drops, latency
               percentiles, all stored in one :class:`QuantileSketch`
               per stream: exact by default, fixed-memory with
               ``Metrics(sketch_capacity=512)``
``zipf``       :class:`ZipfSampler` — seeded rejection-free skewed key
               sampling for serving workloads
``scenarios``  the load-scenario family registered with the campaign
               (``pingpong_open_load``, ``kvstore_load``,
               ``mixed_tenants``; serving scale lives in
               :mod:`repro.sim.serving`)

Quick start::

    from repro.sim import Session

    with Session.pair("int") as sess:
        channel = sess.connect(1, payload_handler=my_handler)
        proc = sess.process(my_client())
        sess.run(until=proc)
        sess.drain()
"""

from repro.sim.drivers import (
    ClosedLoopDriver,
    OpenLoopDriver,
    PopulationDriver,
    ScheduleDriver,
    SizeMix,
    run_drivers,
)
from repro.sim.metrics import (
    LatencyStats,
    Metrics,
    QuantileSketch,
    WindowedMetrics,
    percentile_ps,
)
from repro.sim.session import ClusterSpec, Session
from repro.sim.zipf import ZipfSampler

__all__ = [
    "ClosedLoopDriver",
    "ClusterSpec",
    "LatencyStats",
    "Metrics",
    "OpenLoopDriver",
    "PopulationDriver",
    "QuantileSketch",
    "ScheduleDriver",
    "Session",
    "SizeMix",
    "WindowedMetrics",
    "ZipfSampler",
    "percentile_ps",
    "run_drivers",
]
