"""Declarative fault plans: what breaks, when, and with which seed.

A :class:`FaultPlan` is a validated, immutable schedule of fault specs
plus a dedicated ``seed``.  Nothing here touches a simulation — the plan
is pure data; :class:`~repro.faults.injector.FaultInjector` arms it
against a live :class:`~repro.sim.session.Session`.

Determinism contract
--------------------
Every probabilistic fault draw comes from ``random.Random(plan.seed)``
owned by the injector — never the process-global RNG — and draws happen
in kernel-event order (packet dispatch order, handler invocation order).
Both orders are pinned byte-identical across the fast/slow fabric+NIC
paths by the existing equivalence contracts, so an identical plan yields
identical traces on every flavour.
Times are given in **nanoseconds** (floats are fine) and converted to the
integer-picosecond clock at arm time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "FaultPlan",
    "HandlerFault",
    "LinkDegrade",
    "LinkDown",
    "NodeCrash",
    "PacketCorrupt",
    "PacketLoss",
    "link_flap",
]


def _ps(ns: float) -> int:
    """Nanoseconds → the kernel's integer picoseconds."""
    return round(ns * 1000.0)


def _check_window(at_ns: float, duration_ns: float, what: str) -> None:
    if at_ns < 0:
        raise ValueError(f"{what}: negative start time {at_ns}")
    if duration_ns <= 0:
        raise ValueError(f"{what}: window duration must be positive")


def _check_probability(p: float, what: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{what}: probability {p} outside [0, 1]")


@dataclass(frozen=True)
class LinkDown:
    """A :class:`~repro.network.congestion.Link` outage window.

    ``pattern`` is a substring match against link names
    (``"srcnode->dstnode"``, e.g. ``"core"`` hits every core-adjacent
    port, ``"host3->"`` one host's uplink).  While down, every packet
    reaching a matching link is dropped at admission (counted both as a
    link tail-drop and a link fault drop).  Congestion fabric only.
    """

    pattern: str
    at_ns: float
    duration_ns: float

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("LinkDown: empty link pattern")
        _check_window(self.at_ns, self.duration_ns, "LinkDown")


@dataclass(frozen=True)
class LinkDegrade:
    """A degraded-bandwidth window: serialization time × ``tx_scale``.

    Models a link renegotiating to a lower rate (flaky optics, a lane
    down): an integer ``tx_scale`` of 4 means quarter bandwidth.  Same
    ``pattern`` semantics as :class:`LinkDown`; congestion fabric only.
    """

    pattern: str
    at_ns: float
    duration_ns: float
    tx_scale: int = 4

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("LinkDegrade: empty link pattern")
        _check_window(self.at_ns, self.duration_ns, "LinkDegrade")
        if not isinstance(self.tx_scale, int) or self.tx_scale < 1:
            raise ValueError(
                f"LinkDegrade: tx_scale must be an integer >= 1, "
                f"got {self.tx_scale!r}"
            )


@dataclass(frozen=True)
class PacketLoss:
    """Probabilistic packet loss on any fabric (drawn at dispatch).

    Each packet entering the fabric inside the window is dropped with
    ``probability`` — it never consumes wire or link resources past the
    source (the source-side serialization already happened).  ``stop_ns``
    ``None`` means "until the end of the run".
    """

    probability: float
    start_ns: float = 0.0
    stop_ns: Optional[float] = None

    def __post_init__(self) -> None:
        _check_probability(self.probability, "PacketLoss")
        if self.start_ns < 0:
            raise ValueError("PacketLoss: negative start time")
        if self.stop_ns is not None and self.stop_ns <= self.start_ns:
            raise ValueError("PacketLoss: stop_ns must exceed start_ns")


@dataclass(frozen=True)
class PacketCorrupt:
    """Probabilistic packet corruption on any fabric.

    A corrupted packet *does* traverse the fabric — it consumes link
    bandwidth and arrives at the destination — but the receiving NIC's
    CRC check discards it, so observably it is a loss that still congests
    the network.  Window semantics match :class:`PacketLoss`.
    """

    probability: float
    start_ns: float = 0.0
    stop_ns: Optional[float] = None

    def __post_init__(self) -> None:
        _check_probability(self.probability, "PacketCorrupt")
        if self.start_ns < 0:
            raise ValueError("PacketCorrupt: negative start time")
        if self.stop_ns is not None and self.stop_ns <= self.start_ns:
            raise ValueError("PacketCorrupt: stop_ns must exceed start_ns")


@dataclass(frozen=True)
class NodeCrash:
    """Fail-stop crash of one endpoint at ``at_ns``.

    The node is detached from the fabric (packets to it are dropped, its
    own sends vanish into the void) and its stalled receive states are
    reaped.  Crashes are permanent for the run.
    """

    rank: int
    at_ns: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"NodeCrash: negative rank {self.rank}")
        if self.at_ns < 0:
            raise ValueError("NodeCrash: negative crash time")


@dataclass(frozen=True)
class HandlerFault:
    """HPU handler failure: invocations return an error code mid-message.

    Inside the window, each handler invocation on ``rank`` fails with
    ``probability`` — the handler's return code is replaced by ``FAIL``
    (or ``SEGV`` with ``segv=True``), driving the NIC's existing error
    machinery: ``HANDLER_ERROR`` event, ``handler_errors`` accounting,
    dropped deposit.  sPIN NICs only.
    """

    rank: int
    probability: float = 1.0
    start_ns: float = 0.0
    stop_ns: Optional[float] = None
    segv: bool = False

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"HandlerFault: negative rank {self.rank}")
        _check_probability(self.probability, "HandlerFault")
        if self.start_ns < 0:
            raise ValueError("HandlerFault: negative start time")
        if self.stop_ns is not None and self.stop_ns <= self.start_ns:
            raise ValueError("HandlerFault: stop_ns must exceed start_ns")


_FAULT_TYPES = (LinkDown, LinkDegrade, PacketLoss, PacketCorrupt,
                NodeCrash, HandlerFault)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded schedule of faults.

    ``seed`` feeds the injector's dedicated ``random.Random`` — the only
    randomness any fault ever consumes — so a plan is byte-reproducible
    across workers, shards, and fast/slow paths.
    """

    faults: tuple = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        faults = tuple(self.faults)
        for f in faults:
            if not isinstance(f, _FAULT_TYPES):
                raise TypeError(
                    f"not a fault spec: {f!r} "
                    f"(use {', '.join(t.__name__ for t in _FAULT_TYPES)})"
                )
        object.__setattr__(self, "faults", faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def of_type(self, *types) -> tuple:
        return tuple(f for f in self.faults if isinstance(f, types))


def link_flap(pattern: str, *, first_down_ns: float, down_ns: float,
              up_ns: float, cycles: int = 1) -> tuple[LinkDown, ...]:
    """``cycles`` repeated down-windows: down ``down_ns``, up ``up_ns``."""
    if cycles < 1:
        raise ValueError("link_flap: need at least one cycle")
    if up_ns < 0:
        raise ValueError("link_flap: negative up time")
    period = down_ns + up_ns
    return tuple(
        LinkDown(pattern=pattern, at_ns=first_down_ns + i * period,
                 duration_ns=down_ns)
        for i in range(cycles)
    )
