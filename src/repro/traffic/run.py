"""TrafficRun: lower a declarative TrafficSpec onto a live Session.

The engine reuses the driver machinery from :mod:`repro.sim.drivers` —
per-request tracked puts with issue→ACK latency, the opt-in
timeout/retry reliability layer, drop reconciliation — rather than
hand-wiring N drivers per scenario.  Lowering a spec:

1. materialise every edge's arrival schedule up front, each from its own
   ``random.Random(spec.edge_seed(i))`` stream (kernel-event interleaving
   can never perturb the draws);
2. install one sink matching entry per distinct ``(dst, match_bits)``
   (skip with ``install_sinks=False`` when the scenario installs handler
   channels itself);
3. run one :class:`_EdgeDriver` per edge — a
   :class:`~repro.sim.drivers._DriverBase` whose arrival process walks
   the materialised schedule instead of drawing open-loop gaps;
4. optionally sample fabric queue depth into an attached
   :class:`~repro.sim.metrics.WindowedMetrics` at a fixed period, bounded
   by the schedule horizon plus a configurable tail (the sampler is a
   pure reader: it adds kernel callbacks inside traffic runs only and
   never perturbs model timing, so traces stay byte-identical across
   path flavours).

Passing ``record=[]`` appends one
:class:`~repro.traffic.trace.TraceEvent` per offered request in issue
order — the record half of the record/replay loop.
"""

from __future__ import annotations

import random
from typing import Generator, Optional

from repro.portals.matching import MatchEntry
from repro.sim.drivers import _DriverBase
from repro.sim.metrics import Metrics, WindowedMetrics
from repro.traffic.spec import TraceReplay, TrafficSpec
from repro.traffic.trace import TraceEvent

__all__ = ["TrafficRun"]


def _materialise(source, rng: random.Random) -> tuple[int, ...]:
    """Round a source's exact float-ps offsets to the integer clock.

    Rounding each *absolute* offset (not per-gap) keeps every arrival
    within 0.5 ps of its exact position; clamping enforces monotonicity
    against pathological float behaviour at equal offsets.
    """
    out = []
    prev = 0
    for exact in source.offsets_ps(rng):
        when = round(exact)
        if when < prev:
            when = prev
        out.append(when)
        prev = when
    return tuple(out)


class _EdgeDriver(_DriverBase):
    """One edge's load: a driver walking a pre-materialised schedule.

    Inherits the whole request path — tracked acked puts, per-request
    MD/EQ, timeout/retry/backoff, finalize reconciliation — from
    :class:`~repro.sim.drivers._DriverBase`; only the arrival process
    differs from :class:`~repro.sim.drivers.OpenLoopDriver`.
    """

    def __init__(self, session, *, edge, schedule: tuple[int, ...],
                 rng: random.Random, record: Optional[list] = None,
                 **kwargs):
        super().__init__(session, target=edge.dst, size=edge.size,
                         make_request=edge.make_request, **kwargs)
        self.edge = edge
        self.schedule = schedule
        self._rng = rng
        self._record = record
        self._trace_sizes = (edge.source.sizes
                             if isinstance(edge.source, TraceReplay)
                             else None)

    def request_kwargs(self, rng: random.Random, index: int) -> dict:
        request = super().request_kwargs(rng, index)
        if self._make_request is None and self._trace_sizes is not None:
            request["nbytes"] = self._trace_sizes[index]
        return request

    def start(self):
        return self.session.process(
            self._arrivals(), name=f"edge[{self.stream}]")

    def _arrivals(self) -> Generator:
        env = self.session.env
        machine = self.session[self.edge.src]
        record = self._record
        elapsed = 0
        for index, when in enumerate(self.schedule):
            gap = when - elapsed
            if gap:
                yield env.timeout(gap)
                elapsed = when
            request = self.request_kwargs(self._rng, index)
            if record is not None:
                record.append(TraceEvent(
                    t_ns=env.now / 1000.0, src=self.edge.src,
                    dst=request["target"], nbytes=request["nbytes"]))
            env.process(self._one(machine, request),
                        name=f"{self.stream}[{index}]")

    def _one(self, machine, request: dict) -> Generator:
        yield from self._tracked_put(machine, self.stream, request)
        # The gate resolves on ACK; edge arrivals never wait for it.


class TrafficRun:
    """A lowered TrafficSpec: edge drivers + sinks + optional sampling.

    Typical use::

        windows = WindowedMetrics(window_ns=500.0)
        run = TrafficRun(sess, spec, windows=windows)
        run.run()                      # start + drain + finalize
        ts = windows.timeseries()      # time-resolved view
        summary = run.metrics.summary(elapsed_ps=sess.env.now)

    ``timeout_ns``/``retries``/``backoff`` apply the drivers' reliability
    layer to every edge.  ``sample_queue_ns`` overrides the queue-depth
    sampling period (default: a quarter window); sampling happens only
    when ``windows`` is attached, and only reads fabric state.
    """

    def __init__(self, session, spec: TrafficSpec, *,
                 metrics: Optional[Metrics] = None,
                 windows: Optional[WindowedMetrics] = None,
                 timeout_ns: Optional[float] = None,
                 retries: int = 0, backoff: float = 2.0,
                 install_sinks: bool = True, sink_length: int = 1 << 30,
                 record: Optional[list] = None,
                 sample_queue_ns: Optional[float] = None,
                 sample_tail_windows: int = 4):
        if len(session) < spec.node_count():
            raise ValueError(
                f"spec needs {spec.node_count()} nodes; session has "
                f"{len(session)}")
        self.session = session
        self.spec = spec
        self.metrics = metrics if metrics is not None else Metrics()
        self.windows = windows
        if windows is not None:
            self.metrics.windowed = windows
        self.record = record
        if install_sinks:
            installed = set()
            for edge in spec.edges:
                bits = (spec.match_bits if edge.match_bits is None
                        else edge.match_bits)
                key = (edge.dst, bits)
                if key not in installed:
                    installed.add(key)
                    session.install(edge.dst, MatchEntry(
                        match_bits=bits, length=sink_length))
        self.drivers: list[_EdgeDriver] = []
        horizon = 0
        for index, edge in enumerate(spec.edges):
            rng = random.Random(spec.edge_seed(index))
            schedule = _materialise(edge.source, rng)
            if schedule and schedule[-1] > horizon:
                horizon = schedule[-1]
            self.drivers.append(_EdgeDriver(
                session, edge=edge, schedule=schedule, rng=rng,
                record=record, metrics=self.metrics,
                stream=edge.stream_name,
                match_bits=(spec.match_bits if edge.match_bits is None
                            else edge.match_bits),
                seed=spec.edge_seed(index),
                timeout_ns=timeout_ns, retries=retries, backoff=backoff,
            ))
        #: Last scheduled arrival (integer ps) across every edge.
        self.horizon_ps = horizon
        if windows is not None:
            period = (round(sample_queue_ns * 1000.0)
                      if sample_queue_ns is not None
                      else max(1, windows.window_ps // 4))
            if period < 1:
                raise ValueError("sample_queue_ns rounds to zero ps")
            self._sample_period = period
            self._sample_until = (horizon
                                  + sample_tail_windows * windows.window_ps)
        else:
            self._sample_period = None
            self._sample_until = 0
        self._started = False

    # -- queue-depth sampling ---------------------------------------------
    def _queue_depth(self) -> int:
        fabric = self.session.cluster.fabric
        links = getattr(fabric, "links", None)
        if not links:
            return 0
        now = self.session.env.now
        return max((link.backlog(now) for link in links.values()), default=0)

    def _sample(self) -> None:
        env = self.session.env
        self.windows.observe_queue_depth(env.now, self._queue_depth())
        if env.now + self._sample_period <= self._sample_until:
            env.schedule_callback(self._sample_period, self._sample)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Launch every edge's arrival process (idempotent) + sampler."""
        if self._started:
            return
        self._started = True
        for driver in self.drivers:
            driver.start()
        if self._sample_period is not None:
            # The t=0 sample is trivially empty; start one period in.  The
            # sampler bounds itself at horizon + tail so the run always
            # quiesces even if some requests are silently lost.
            self.session.env.schedule_callback(self._sample_period,
                                               self._sample)

    def finalize(self) -> int:
        """Reconcile never-ACKed requests on every edge (post-drain)."""
        return sum(driver.finalize() for driver in self.drivers)

    def run(self) -> Metrics:
        """start → drain → finalize; returns the fed metrics sink."""
        self.start()
        self.session.drain()
        self.finalize()
        return self.metrics

    # -- accounting --------------------------------------------------------
    def offered_counts(self) -> dict[str, int]:
        """Requests scheduled per edge stream (the record/replay check)."""
        out: dict[str, int] = {}
        for driver in self.drivers:
            out[driver.stream] = out.get(driver.stream, 0) + len(driver.schedule)
        return out

    def offered_total(self) -> int:
        return sum(len(driver.schedule) for driver in self.drivers)
