"""Declarative traffic specifications: sources, edges, and node graphs.

A :class:`TrafficSpec` describes a traffic experiment as pure data — the
``network_tester`` idiom: *what* traffic flows between *which* nodes, with
no imperative driver wiring.  The vocabulary:

* **Source processes** generate arrival times for one edge:
  :class:`Periodic` (fixed-gap), :class:`Poisson` (exponential
  interarrivals), :class:`BurstyOnOff` (alternating on/off phases with
  per-phase rates), and :class:`TraceReplay` (explicit recorded arrival
  times, optionally with per-arrival sizes).
* **Edges** bind a source process to one ``(src, dst)`` rank pair, each
  carrying its own size distribution and optional ``make_request`` hook.
* **Graph constructors** build edge tuples over arbitrary node sets:
  :func:`all_to_one`, :func:`permutation`, :func:`pairwise`.
* :class:`TrafficSpec` composes edges with a shared match-bits tag and a
  seed from which every edge derives its own private RNG stream.

Determinism contract
--------------------
A spec is frozen data; all randomness is deferred to *lowering* time
(:class:`~repro.traffic.run.TrafficRun`), where edge ``i`` draws from
``random.Random(spec.edge_seed(i))`` and nothing else — never the
process-global RNG, never another edge's stream.  Arrival schedules are
materialised before the simulation starts, so kernel-event interleaving
cannot perturb the draws: identical spec + seed means identical offered
traffic on every executor and worker count.

Times are given in **nanoseconds** (floats are fine); exact offsets are
carried in float picoseconds and rounded once per arrival, so a schedule
never accumulates rounding drift (arrival *i* is within 0.5 ps of its
exact position).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from repro.sim.driver_core import _PS_PER_MMPS, SizeMix, poisson_offsets_ps

__all__ = [
    "BurstyOnOff",
    "Edge",
    "Periodic",
    "Poisson",
    "TraceReplay",
    "TrafficSpec",
    "all_to_one",
    "pairwise",
    "permutation",
]

#: Default match-bits tag for traffic-spec sink entries.
TRAFFIC_TAG = 57


def _check_rate(rate_mmps: float, what: str) -> None:
    if rate_mmps <= 0:
        raise ValueError(f"{what}: rate must be positive, got {rate_mmps}")


def _check_count(count: int, what: str) -> None:
    if count < 1:
        raise ValueError(f"{what}: need at least one arrival, got {count}")


@dataclass(frozen=True)
class Periodic:
    """Fixed-gap arrivals: ``count`` requests at ``rate_mmps``.

    The first arrival sits at ``phase_ns``; subsequent arrivals follow at
    exact multiples of the mean gap (no per-gap rounding drift).
    """

    rate_mmps: float
    count: int
    phase_ns: float = 0.0

    def __post_init__(self) -> None:
        _check_rate(self.rate_mmps, "Periodic")
        _check_count(self.count, "Periodic")
        if self.phase_ns < 0:
            raise ValueError(f"Periodic: negative phase {self.phase_ns}")

    def offsets_ps(self, rng: random.Random) -> Iterator[float]:
        gap = _PS_PER_MMPS / self.rate_mmps
        start = self.phase_ns * 1000.0
        for i in range(self.count):
            yield start + i * gap


@dataclass(frozen=True)
class Poisson:
    """Exponential interarrivals: ``count`` requests at mean ``rate_mmps``."""

    rate_mmps: float
    count: int
    phase_ns: float = 0.0

    def __post_init__(self) -> None:
        _check_rate(self.rate_mmps, "Poisson")
        _check_count(self.count, "Poisson")
        if self.phase_ns < 0:
            raise ValueError(f"Poisson: negative phase {self.phase_ns}")

    def offsets_ps(self, rng: random.Random) -> Iterator[float]:
        return poisson_offsets_ps(rng, self.rate_mmps, self.count,
                                  self.phase_ns * 1000.0)


@dataclass(frozen=True)
class BurstyOnOff:
    """Alternating on/off phases with per-phase offered rates.

    Each cycle is an *on* window of ``on_ns`` at ``rate_on_mmps`` followed
    by an *off* window of ``off_ns`` at ``rate_off_mmps`` (0 = silent),
    with fixed gaps inside each phase; arrivals never spill across a
    phase boundary.  This is the ``network_tester`` bursting generator:
    the transient the windowed metrics exist to expose.
    """

    on_ns: float
    off_ns: float
    rate_on_mmps: float
    rate_off_mmps: float = 0.0
    cycles: int = 1
    phase_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.on_ns <= 0:
            raise ValueError(f"BurstyOnOff: on window must be positive, "
                             f"got {self.on_ns}")
        if self.off_ns < 0:
            raise ValueError(f"BurstyOnOff: negative off window {self.off_ns}")
        _check_rate(self.rate_on_mmps, "BurstyOnOff(on)")
        if self.rate_off_mmps < 0:
            raise ValueError(
                f"BurstyOnOff: negative off rate {self.rate_off_mmps}")
        _check_count(self.cycles, "BurstyOnOff")
        if self.phase_ns < 0:
            raise ValueError(f"BurstyOnOff: negative phase {self.phase_ns}")

    @staticmethod
    def _phase(start_ps: float, dur_ps: float,
               rate_mmps: float) -> Iterator[float]:
        if rate_mmps <= 0:
            return
        gap = _PS_PER_MMPS / rate_mmps
        exact = start_ps
        while True:
            exact += gap
            if exact > start_ps + dur_ps:
                return
            yield exact

    def offsets_ps(self, rng: random.Random) -> Iterator[float]:
        on_ps = self.on_ns * 1000.0
        off_ps = self.off_ns * 1000.0
        t = self.phase_ns * 1000.0
        for _ in range(self.cycles):
            yield from self._phase(t, on_ps, self.rate_on_mmps)
            t += on_ps
            yield from self._phase(t, off_ps, self.rate_off_mmps)
            t += off_ps


@dataclass(frozen=True)
class TraceReplay:
    """Explicit recorded arrival times (ns), optionally with sizes.

    ``offsets_ns`` must be non-decreasing; when ``sizes`` is given it
    carries one message size per arrival, overriding the edge's size
    distribution — the shape a recorded ``(t, src, dst, size)`` trace
    lowers to after grouping by edge
    (:meth:`TrafficSpec.from_trace`).
    """

    offsets_ns: tuple[float, ...]
    sizes: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.offsets_ns:
            raise ValueError("TraceReplay: empty arrival list")
        if any(b < a for a, b in zip(self.offsets_ns, self.offsets_ns[1:])):
            raise ValueError("TraceReplay: arrival times must be sorted")
        if self.offsets_ns[0] < 0:
            raise ValueError("TraceReplay: negative arrival time")
        if self.sizes is not None:
            if len(self.sizes) != len(self.offsets_ns):
                raise ValueError("TraceReplay: sizes/offsets length mismatch")
            if any(s < 0 for s in self.sizes):
                raise ValueError("TraceReplay: negative message size")

    def offsets_ps(self, rng: random.Random) -> Iterator[float]:
        for t_ns in self.offsets_ns:
            yield t_ns * 1000.0


#: Any of the source-process flavours above (duck-typed on offsets_ps).
Source = Union[Periodic, Poisson, BurstyOnOff, TraceReplay]


@dataclass(frozen=True)
class Edge:
    """One directed traffic flow: a source process bound to ``src → dst``.

    ``size`` accepts an int, a sequence of ints, or a
    :class:`~repro.sim.driver_core.SizeMix`; ``make_request`` (same signature
    as the driver hook: ``(rng, index) -> dict``) overrides the whole
    request.  ``stream`` names the metrics stream (default
    ``"e<src>-<dst>"``); ``match_bits`` defaults to the spec-level tag.
    """

    src: int
    dst: int
    source: Source
    size: Union[int, SizeMix, Sequence[int]] = 64
    stream: Optional[str] = None
    match_bits: Optional[int] = None
    make_request: Optional[Callable[[random.Random, int], dict]] = None

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ValueError(f"Edge: negative rank in {self.src}->{self.dst}")
        if self.src == self.dst:
            raise ValueError(f"Edge: self-loop at rank {self.src}")
        if not hasattr(self.source, "offsets_ps"):
            raise ValueError(
                f"Edge: {self.source!r} is not a source process "
                f"(needs offsets_ps)")

    @property
    def stream_name(self) -> str:
        return self.stream if self.stream else f"e{self.src}-{self.dst}"


# -- graph constructors ------------------------------------------------------

def _ranks(nodes: Union[int, Iterable[int]]) -> tuple[int, ...]:
    if isinstance(nodes, int):
        return tuple(range(nodes))
    return tuple(nodes)


def all_to_one(sources: Union[int, Iterable[int]], target: int,
               source: Source, **edge_kwargs) -> tuple[Edge, ...]:
    """Every rank in ``sources`` sends to ``target`` (incast)."""
    return tuple(Edge(src=s, dst=target, source=source, **edge_kwargs)
                 for s in _ranks(sources) if s != target)


def permutation(nodes: Union[int, Iterable[int]], shift: int,
                source: Source, **edge_kwargs) -> tuple[Edge, ...]:
    """Rank ``i`` sends to rank ``(i + shift) mod N`` (shift pattern)."""
    ranks = _ranks(nodes)
    n = len(ranks)
    if n < 2:
        raise ValueError("permutation needs at least two nodes")
    if shift % n == 0:
        raise ValueError(f"shift {shift} maps every rank to itself on {n} nodes")
    return tuple(Edge(src=ranks[i], dst=ranks[(i + shift) % n],
                      source=source, **edge_kwargs)
                 for i in range(n))


def pairwise(pairs: Iterable[tuple[int, int]], source: Source,
             **edge_kwargs) -> tuple[Edge, ...]:
    """Explicit ``(src, dst)`` pairs, one edge each."""
    return tuple(Edge(src=s, dst=d, source=source, **edge_kwargs)
                 for s, d in pairs)


@dataclass(frozen=True)
class TrafficSpec:
    """A complete declarative traffic experiment over one node set.

    ``edges`` is any tuple of :class:`Edge` (compose the graph
    constructors freely — ``all_to_one(...) + pairwise(...)`` is a valid
    spec).  ``nodes`` may be left at 0 to mean "smallest cluster that
    fits every rank".  ``seed`` roots the per-edge RNG streams.
    """

    edges: tuple[Edge, ...]
    nodes: int = 0
    match_bits: int = TRAFFIC_TAG
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("TrafficSpec: no edges")
        object.__setattr__(self, "edges", tuple(self.edges))
        needed = self.min_nodes()
        if self.nodes and self.nodes < needed:
            raise ValueError(
                f"TrafficSpec: nodes={self.nodes} but edges reference "
                f"ranks up to {needed - 1}")

    def min_nodes(self) -> int:
        return 1 + max(max(e.src, e.dst) for e in self.edges)

    def node_count(self) -> int:
        return self.nodes if self.nodes else self.min_nodes()

    def edge_seed(self, index: int) -> int:
        """The private RNG seed for edge ``index`` (stable, collision-free
        across edges for any spec seed)."""
        return self.seed * 1_000_003 + index

    @classmethod
    def from_trace(cls, events: Iterable, **kwargs) -> "TrafficSpec":
        """Lower a recorded ``(t_ns, src, dst, nbytes)`` trace to a spec.

        Events are grouped per ``(src, dst)`` edge — in first-appearance
        order, so replaying a recorded run rebuilds the same edge list —
        and each group becomes a :class:`TraceReplay` source carrying the
        group's arrival times and sizes.  Accepts
        :class:`~repro.traffic.trace.TraceEvent` objects or plain
        ``(t_ns, src, dst, nbytes)`` tuples.
        """
        grouped: dict[tuple[int, int], list[tuple[float, int]]] = {}
        for ev in events:
            t_ns, src, dst, nbytes = (
                (ev.t_ns, ev.src, ev.dst, ev.nbytes)
                if hasattr(ev, "t_ns") else ev)
            grouped.setdefault((src, dst), []).append((t_ns, nbytes))
        if not grouped:
            raise ValueError("from_trace: empty trace")
        edges = tuple(
            Edge(src=src, dst=dst,
                 source=TraceReplay(
                     offsets_ns=tuple(t for t, _ in items),
                     sizes=tuple(n for _, n in items)))
            for (src, dst), items in grouped.items()
        )
        return cls(edges=edges, **kwargs)
