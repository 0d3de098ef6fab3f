"""The unified session API: declarative cluster specs + a run façade.

Every scenario in this repository used to hand-wire ``Cluster`` +
``spin_me``/``post_me`` + ``env.process(...)`` + ``env.run(...)``; a
:class:`Session` owns that lifecycle behind the paper's three-line
programming model:

* a :class:`ClusterSpec` says *what* to simulate (node count, machine
  config, topology, NIC flavour, tracing) — no imperative assembly;
* :meth:`Session.connect` / :meth:`Session.install` install handler
  channels and matching entries with **install-time validation** (limits,
  oversized initial state, use-after-free HPU memory);
* :meth:`Session.run` / :meth:`Session.drain` drive the DES, and the
  session tears down installed channels on :meth:`close`.

The façade adds no simulation events of its own: a session-built scenario
pushes exactly the kernel events the hand-wired equivalent pushed, so the
golden-trace digests and fast-path equivalence contracts are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Generator, Optional, Union

from repro.core.channel import Channel, connect as _connect
from repro.core.nic import SpinNIC
from repro.des import engine as _engine
from repro.des.engine import Environment, Event, Process, SimulationError
from repro.des.trace import Timeline
from repro.machine.cluster import Cluster, Machine
from repro.machine.config import (
    CROSS_POD_LATENCY_PS,
    MachineConfig,
    config_by_name,
)
from repro.machine.nic import BaselineNIC
from repro.network.packets import reset_msg_ids
from repro.network.topology import FatTree, UniformLatency
from repro.portals.matching import MatchEntry
from repro.portals.types import PortalsError

__all__ = ["ClusterSpec", "Session"]

#: NIC model registry for the declarative spec.
_NIC_FACTORIES: dict[str, Callable] = {
    "spin": SpinNIC,
    "baseline": BaselineNIC,
}

#: Reusable drained sessions, keyed by :meth:`ClusterSpec.pool_key`.
#: Microbenchmark sweeps build the same two-node cluster thousands of
#: times; :meth:`Session.checkout` / :meth:`Session.release` amortize that
#: construction by rewinding a finished session to its just-built state
#: (the reset-equivalence tests pin reuse == fresh, trace-digest included).
_POOL: dict[tuple, list["Session"]] = {}

#: Sessions kept per key — sweeps are serial, so one is typically enough;
#: a little headroom covers nested scenarios.
_POOL_DEPTH = 4


#: Ambient observability capture (see :mod:`repro.obs.capture`): while a
#: :class:`~repro.obs.capture.ObsCapture` is active it installs itself
#: here and every :class:`Session` constructed routes through its
#: ``prepare(spec)`` (pre-build: force tracing on) and ``attach(session)``
#: (post-build: arm an observer) — the same global-hook pattern as
#: ``repro.des.engine._METER``.  ``None`` (the default) adds nothing to
#: session construction.
_OBS_HOOK = None


def _pool_clear() -> None:
    """Drop every pooled session (test isolation)."""
    _POOL.clear()


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
    nic: str = "spin"
    topology: Any = "pair"
    latency_ps: Optional[int] = None
    trace: bool = False
    with_memory: bool = False
    noise: Any = None
    fabric: str = "loggp"
    link_queue_depth: Optional[int] = None
    routing: Optional[str] = None
    switch_radix: Optional[int] = None

    def pool_key(self) -> Optional[tuple]:
        """Hashable reuse-pool key, or ``None`` when the spec is unpoolable.

        Only the construction-pure slice of the spec space is pooled: no
        tracing (a reused timeline must stay byte-identical anyway, but
        trace runs are rare and cheap to build), no noise model, no host
        memory arena (a fresh arena guarantees zeroed bytes; a reused one
        cannot), the contention-free LogGP fabric, and the ``"pair"``
        topology — topology *objects* are passed verbatim and may carry
        caller state.  Within that slice a session's identity is exactly
        ``(nodes, config, nic, latency_ps)``.
        """
        if (
            self.trace
            or self.noise is not None
            or self.with_memory
            or self.fabric != "loggp"
            or self.topology != "pair"
            or self.link_queue_depth is not None
            or self.routing is not None
            or self.switch_radix is not None
        ):
            return None
        return (self.nodes, self.config, self.nic, self.latency_ps)

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
        try:
            nic_factory = _NIC_FACTORIES[self.nic]
        except KeyError:
            raise ValueError(
                f"unknown NIC flavour {self.nic!r} "
                f"(use {sorted(_NIC_FACTORIES)})"
            ) from None
        return Cluster(
            self.nodes,
            config=config,
            nic_factory=nic_factory,
            topology=self.build_topology(config),
            noise=self.noise,
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
        self._pool_key: Optional[tuple] = None
        #: The attached observer, if any (see :meth:`attach_observer`).
        self.observer = None
        if hook is not None:
            hook.attach(self)

    # -- convenience constructors -----------------------------------------
    @classmethod
    def checkout(cls, spec: ClusterSpec) -> "Session":
        """A session for ``spec`` — pooled when possible, else freshly built.

        A pooled session was rewound by :meth:`release` to exactly its
        just-built state; the only process-global touch-up needed here is
        the message-id space, which an unrelated cluster constructed in the
        meantime may have advanced (construction restarts it too, so reuse
        and fresh build agree).
        """
        # An ambient capture must see every session built under it; the
        # pool hands back clusters without running __init__, so bypass it.
        key = spec.pool_key() if _OBS_HOOK is None else None
        if key is not None:
            stack = _POOL.get(key)
            if stack:
                sess = stack.pop()
                sess._pool_key = key  # re-armed (cleared while pooled)
                reset_msg_ids()
                if _engine._METER is not None:
                    # A fresh build would register at Environment.__init__;
                    # reused environments must be visible to the meter too.
                    _engine._METER.register(sess.env)
                return sess
        sess = cls(spec)
        sess._pool_key = key
        return sess
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
        (fault accounting, crash list).  Arming makes the session
        unpoolable: fault state must never leak into a reused cluster.
        With no plan attached nothing here runs — the default path
        schedules zero fault events and golden traces stay byte-identical.
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

    def release(self) -> None:
        """Hand the session back to the reuse pool (or just close it).

        Pool entry requires a drained kernel and a clean cluster rewind;
        anything else — unpoolable spec, pending events, a full pool —
        degrades to a plain :meth:`close`, so scenarios can call this
        unconditionally at the end of a measurement.
        """
        key = self._pool_key
        self.close()
        if key is None:
            return
        stack = _POOL.setdefault(key, [])
        if len(stack) >= _POOL_DEPTH or self.env.peek() is not None:
            return
        try:
            self.cluster.reset()
        except (SimulationError, ValueError):
            return
        self._closed = False
        self.stalled_rx = {}
        # Disarm until the next checkout: a stray second release() must
        # not enter the same object into the pool twice (two tenants
        # would alias one cluster).
        self._pool_key = None
        stack.append(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
