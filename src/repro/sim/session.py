"""The unified session API: declarative cluster specs + a run façade.

Every scenario in this repository used to hand-wire ``Cluster`` +
``spin_me``/``post_me`` + ``env.process(...)`` + ``env.run(...)``; a
:class:`Session` owns that lifecycle behind the paper's three-line
programming model:

* a :class:`ClusterSpec` says *what* to simulate (node count, machine
  config, topology, fabric, tracing) — no imperative assembly;
* :meth:`Session.connect` / :meth:`Session.install` install handler
  channels and matching entries with **install-time validation** (limits,
  oversized initial state, use-after-free HPU memory);
* :meth:`Session.run` / :meth:`Session.drain` drive the DES, and the
  session tears down installed channels on :meth:`close`.

A session is the one place a ``Cluster`` is built: the experiments, the
use cases, the RAID array (:class:`~repro.storage.raid.RaidCluster`) and
the application-trace runs (:func:`~repro.apps.simulator.run_schedule`)
all build through it, so every simulating scenario is traced under a
capture, observable and fault-injectable.

Each session is built fresh by its constructor and ends with
:meth:`Session.close`; a drained cluster is never rewound for reuse, the
same way the paper's simulator builds each experiment as a new
simulation.

The façade adds no simulation events of its own: a session-built scenario
pushes exactly the kernel events the hand-wired equivalent pushed, so the
golden-trace digests are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Generator, Optional, Union

from repro.core.channel import Channel, connect as _connect
from repro.des.engine import Environment, Event, Process
from repro.des.trace import Timeline
from repro.machine.cluster import Cluster, Machine
from repro.machine.config import (
    CROSS_POD_LATENCY_PS,
    MachineConfig,
    config_by_name,
)
from repro.network.topology import FatTree, UniformLatency
from repro.portals.matching import MatchEntry
from repro.portals.types import PortalsError

__all__ = ["ClusterSpec", "Session"]

#: Ambient observability capture (see :mod:`repro.obs.capture`): while a
#: :class:`~repro.obs.capture.ObsCapture` is active it installs itself
#: here and every :class:`Session` constructed routes through its
#: ``prepare(spec)`` (pre-build: force tracing on) and ``attach(session)``
#: (post-build: arm an observer) — the same global-hook pattern as
#: ``repro.des.engine._METER``.  ``None`` (the default) adds nothing to
#: session construction.
_OBS_HOOK = None


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of one simulated system.

    ``topology`` selects how endpoints are wired:

    * ``"pair"`` — every endpoint pair sits cross-pod (worst-case uniform
      latency; what the microbenchmarks use);
    * ``"fattree"`` — the §4.2 36-port fat tree sized to ``nodes``;
    * any topology object with a ``latency(src, dst)`` method is used
      verbatim.

    ``fabric`` selects the transport model: ``"loggp"`` (default — the
    paper's contention-free pipe; all golden traces run here) or
    ``"congestion"`` (routed paths + per-link queues, see
    :mod:`repro.network.congestion`).  ``link_queue_depth``, ``routing``
    and ``switch_radix`` override the matching
    :class:`~repro.network.loggp.NetworkParams` fields without
    hand-building a :class:`MachineConfig`; the first two only matter on
    the congestion fabric, ``switch_radix`` sizes the ``"fattree"``
    topology (smaller radix → more pods for the same node count — the
    multi-pod serving clusters use radix 4–8 trees).
    """

    nodes: int = 2
    config: Union[MachineConfig, str] = "int"
    topology: Any = "pair"
    latency_ps: Optional[int] = None
    trace: bool = False
    with_memory: bool = False
    fabric: str = "loggp"
    link_queue_depth: Optional[int] = None
    routing: Optional[str] = None
    switch_radix: Optional[int] = None

    def resolve_config(self) -> MachineConfig:
        config = (config_by_name(self.config) if isinstance(self.config, str)
                  else self.config)
        overrides = {}
        if self.link_queue_depth is not None:
            overrides["link_queue_depth"] = self.link_queue_depth
        if self.routing is not None:
            overrides["routing"] = self.routing
        if self.switch_radix is not None:
            overrides["switch_radix"] = self.switch_radix
        return config.with_network(**overrides) if overrides else config

    def build_topology(self, config: MachineConfig) -> Any:
        if self.topology == "pair":
            return UniformLatency(
                latency=CROSS_POD_LATENCY_PS if self.latency_ps is None
                else self.latency_ps
            )
        if self.topology == "fattree":
            return FatTree(params=config.network, nhosts=max(self.nodes, 2))
        return self.topology

    def build(self) -> Cluster:
        """Materialise the spec into a live :class:`Cluster`."""
        config = self.resolve_config()
        return Cluster(
            self.nodes,
            config=config,
            topology=self.build_topology(config),
            trace=self.trace,
            with_memory=self.with_memory,
            fabric=self.fabric,
        )


class Session:
    """A running simulation: cluster + channels + run control.

    Use as a context manager for deterministic teardown, or call
    :meth:`close` explicitly.  All helpers delegate to the underlying
    primitives one-to-one — the session never schedules kernel events of
    its own.
    """

    def __init__(self, spec: Optional[ClusterSpec] = None, **overrides: Any):
        if spec is None:
            spec = ClusterSpec(**overrides)
        elif overrides:
            spec = replace(spec, **overrides)
        hook = _OBS_HOOK
        if hook is not None:
            spec = hook.prepare(spec)
        self.spec = spec
        self.cluster: Cluster = spec.build()
        self.channels: list[Channel] = []
        #: Receive states reaped at :meth:`close` because their payload
        #: was lost in the network (congestion tail-drop) — keyed by rank.
        self.stalled_rx: dict[int, int] = {}
        self._closed = False
        #: The attached observer, if any (see :meth:`attach_observer`).
        self.observer = None
        if hook is not None:
            hook.attach(self)

    # -- convenience constructors -----------------------------------------
    @classmethod
    def pair(cls, config: Union[MachineConfig, str] = "int", nodes: int = 2,
             **overrides: Any) -> "Session":
        """A small all-cross-pod cluster (the microbenchmark scaffold)."""
        return cls(ClusterSpec(nodes=nodes, config=config, **overrides))

    @classmethod
    def fattree(cls, nodes: int, config: Union[MachineConfig, str] = "dis",
                **overrides: Any) -> "Session":
        """An N-endpoint fat-tree cluster (the collective scaffold)."""
        return cls(ClusterSpec(nodes=nodes, config=config,
                               topology="fattree", **overrides))

    # -- structure ---------------------------------------------------------
    @property
    def env(self) -> Environment:
        return self.cluster.env

    @property
    def timeline(self) -> Timeline:
        return self.cluster.timeline

    @property
    def config(self) -> MachineConfig:
        return self.cluster.config

    @property
    def now_ns(self) -> float:
        return self.cluster.now_ns

    def __len__(self) -> int:
        return len(self.cluster)

    def __getitem__(self, rank: int) -> Machine:
        return self.cluster[rank]

    def machines(self) -> list[Machine]:
        return list(self.cluster.machines)

    # -- installation (validated) -----------------------------------------
    def install(self, rank: int, entry: MatchEntry, pt_index: int = 0,
                overflow: bool = False) -> MatchEntry:
        """Append a matching entry, validating handler resources first.

        ``PtlMEAppend`` runs the same validation, but only after
        ``post_me`` has already allocated the portal-table index — the
        session validates before any side effect, so a rejected entry
        (oversized initial state, freed
        :class:`~repro.core.handlers.HPUMemory`) leaves the NI untouched.
        """
        machine = self.cluster[rank]
        if entry.spin is not None:
            entry.spin.validate(machine.ni.limits)
        return machine.post_me(pt_index, entry, overflow=overflow)

    def connect(self, rank: int, **kwargs: Any) -> Channel:
        """Install a handler channel on ``rank`` (the §1 ``connect()``).

        Keyword arguments are those of :func:`repro.core.channel.connect`.
        The channel is tracked and uninstalled by :meth:`close`.
        """
        channel = _connect(self.cluster[rank], **kwargs)
        self.channels.append(channel)
        return channel

    # -- fault injection ----------------------------------------------------
    def attach_faults(self, plan):
        """Arm a :class:`~repro.faults.plan.FaultPlan` on this session.

        Returns the live :class:`~repro.faults.injector.FaultInjector`
        (fault accounting, crash list).  Fault state lives on this
        session's own cluster, which is never reused.  With no plan
        attached nothing here runs — the default path schedules zero fault
        events and golden traces stay byte-identical.
        """
        from repro.faults.injector import FaultInjector  # avoid cycle
        return FaultInjector(self, plan)

    # -- observability ------------------------------------------------------
    def attach_observer(self, config: Any = None):
        """Arm an observability :class:`~repro.obs.observer.Observer`.

        Requires a traced session (``ClusterSpec(trace=True)``) — the
        observer is a pure reader of the span stream and the probe
        points, so without a timeline there is nothing to observe.
        Returns the live observer (occupancy accounting, Perfetto
        export, report building).  With no observer attached, every
        probe slot stays at its class-level ``None`` and the default
        path schedules exactly the pre-observability kernel events —
        golden traces stay byte-identical.
        """
        from repro.obs.observer import Observer  # avoid cycle
        observer = Observer(self, config)
        self.observer = observer
        return observer

    # -- run control -------------------------------------------------------
    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Register a generator as a simulated process."""
        return self.env.process(generator, name)

    def run(self, until: Optional[Union[int, Event]] = None) -> Any:
        """Run the DES (to quiescence, to a time, or to an event)."""
        return self.env.run(until=until)

    def drain(self) -> None:
        """Run every remaining event (post-measurement cleanup traffic)."""
        self.env.run()

    # -- teardown ----------------------------------------------------------
    def close(self) -> None:
        """Uninstall session-tracked channels and reap stalled receives.

        Idempotent.  Messages whose payload the congestion fabric
        tail-dropped can never complete, so their receiver-side state
        would otherwise leak; the per-rank reap counts land in
        :attr:`stalled_rx` for scenario accounting.
        """
        if self._closed:
            return
        self._closed = True
        for machine in self.cluster.machines:
            reaped = machine.nic.reap_stalled()
            if reaped:
                self.stalled_rx[machine.rank] = reaped
        for channel in self.channels:
            try:
                channel.close()
            except PortalsError:
                pass  # already unlinked by scenario code
        self.channels.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
