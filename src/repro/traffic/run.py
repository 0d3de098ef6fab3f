"""TrafficRun: lower a declarative TrafficSpec onto a live Session.

The engine reuses the driver machinery from :mod:`repro.sim` — per-request
tracked puts with issue→ACK latency, the opt-in timeout/retry reliability
layer, drop reconciliation — rather than hand-wiring N drivers per
scenario.  Lowering a spec:

1. materialise every edge's exact arrival offsets up front, each from its
   own ``random.Random(spec.edge_seed(i))`` stream (kernel-event
   interleaving can never perturb the draws);
2. install one sink matching entry per distinct ``(dst, match_bits)``;
3. run one :class:`~repro.sim.driver_core.ScheduleDriver` per edge over
   its materialised schedule — the same arrival walk the open-loop driver
   uses, so arrival *i* sits at ``round(offset i)`` and an offset that
   rounds below its predecessor raises :class:`ValueError`;
4. with a :class:`~repro.sim.metrics.WindowedMetrics` attached, sample
   fabric queue depth every quarter window until four windows past the
   last scheduled arrival (the sampler is a pure reader: it adds kernel
   callbacks inside traffic runs only and never perturbs model timing, so
   traces stay byte-identical with and without it).

Passing ``record=[]`` appends one
:class:`~repro.traffic.trace.TraceEvent` per offered request in issue
order — the record half of the record/replay loop.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.portals.matching import MatchEntry
from repro.sim.driver_core import ScheduleDriver
from repro.sim.metrics import Metrics, WindowedMetrics
from repro.traffic.spec import TraceReplay, TrafficSpec
from repro.traffic.trace import TraceEvent

__all__ = ["TrafficRun"]

#: Sink matching-entry length: large enough for any request size.
_SINK_LENGTH = 1 << 30
#: Queue-depth sampling continues this many windows past the horizon.
_SAMPLE_TAIL_WINDOWS = 4


class _EdgeDriver(ScheduleDriver):
    """One edge's load: applies ``TraceReplay`` sizes and records offers."""

    def __init__(self, session, *, edge, record: Optional[list] = None,
                 **kwargs):
        super().__init__(session, source=edge.src, target=edge.dst,
                         size=edge.size, make_request=edge.make_request,
                         **kwargs)
        self._record = record
        self._trace_sizes = (edge.source.sizes
                             if isinstance(edge.source, TraceReplay)
                             else None)

    def request_kwargs(self, rng: random.Random, index: int) -> dict:
        request = super().request_kwargs(rng, index)
        if self._make_request is None and self._trace_sizes is not None:
            request["nbytes"] = self._trace_sizes[index]
        if self._record is not None:
            self._record.append(TraceEvent(
                t_ns=self.session.env.now / 1000.0, src=self.source,
                dst=request["target"], nbytes=request["nbytes"]))
        return request


class TrafficRun:
    """A lowered TrafficSpec: edge drivers + sinks + optional sampling.

    Typical use::

        windows = WindowedMetrics(window_ns=500.0)
        run = TrafficRun(sess, spec, windows=windows)
        run.run()                      # start + drain + finalize
        ts = windows.timeseries()      # time-resolved view
        summary = run.metrics.summary(elapsed_ps=sess.env.now)

    ``timeout_ns``/``retries``/``backoff`` apply the drivers' reliability
    layer to every edge.  Queue-depth sampling happens only when
    ``windows`` is attached, and only reads fabric state.
    """

    def __init__(self, session, spec: TrafficSpec, *,
                 metrics: Optional[Metrics] = None,
                 windows: Optional[WindowedMetrics] = None,
                 timeout_ns: Optional[float] = None,
                 retries: int = 0, backoff: float = 2.0,
                 record: Optional[list] = None):
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
        installed = set()
        self.drivers: list[_EdgeDriver] = []
        horizon = 0
        for index, edge in enumerate(spec.edges):
            bits = (spec.match_bits if edge.match_bits is None
                    else edge.match_bits)
            if (edge.dst, bits) not in installed:
                installed.add((edge.dst, bits))
                session.install(edge.dst, MatchEntry(
                    match_bits=bits, length=_SINK_LENGTH))
            rng = random.Random(spec.edge_seed(index))
            schedule = tuple(edge.source.offsets_ps(rng))
            if schedule:
                horizon = max(horizon, round(schedule[-1]))
            self.drivers.append(_EdgeDriver(
                session, edge=edge, schedule=schedule, rng=rng,
                record=record, metrics=self.metrics,
                stream=edge.stream_name, match_bits=bits,
                seed=spec.edge_seed(index),
                timeout_ns=timeout_ns, retries=retries, backoff=backoff,
            ))
        #: Last scheduled arrival (integer ps) across every edge.
        self.horizon_ps = horizon
        if windows is not None:
            self._sample_period = max(1, windows.window_ps // 4)
            self._sample_until = (horizon
                                  + _SAMPLE_TAIL_WINDOWS * windows.window_ps)
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
