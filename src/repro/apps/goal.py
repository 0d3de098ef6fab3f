"""GOAL-like operation schedules.

LogGOPSim consumes GOAL (Group Operation Assembly Language) dependency
graphs of sends, receives, and computations.  This module provides the
subset the trace generators need: per-rank sequential op lists where sends
and receives are posted non-blocking and ``waitall`` joins everything
posted since the previous join — exactly the post-compute-wait structure of
bulk-synchronous halo codes (and the overlap window the sPIN matching
protocol exploits, §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.des.engine import ns

__all__ = ["Op", "Schedule", "calc", "recv", "send", "waitall"]


@dataclass(frozen=True)
class Op:
    """One schedule operation.

    kind ∈ {"calc", "send", "recv", "waitall"}; unused fields are 0.
    """

    kind: str
    peer: int = 0
    nbytes: int = 0
    tag: int = 0
    duration_ps: int = 0

    def __post_init__(self):
        if self.kind not in ("calc", "send", "recv", "waitall"):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.nbytes < 0 or self.duration_ps < 0:
            raise ValueError("negative size/duration")


def calc(duration_ns: float) -> Op:
    return Op("calc", duration_ps=ns(duration_ns))


def send(peer: int, nbytes: int, tag: int = 0) -> Op:
    return Op("send", peer=peer, nbytes=nbytes, tag=tag)


def recv(peer: int, nbytes: int, tag: int = 0) -> Op:
    return Op("recv", peer=peer, nbytes=nbytes, tag=tag)


def waitall() -> Op:
    return Op("waitall")


@dataclass
class Schedule:
    """Per-rank op lists plus trace statistics."""

    ranks: dict[int, list[Op]] = field(default_factory=dict)
    name: str = "app"

    @property
    def nprocs(self) -> int:
        return max(self.ranks) + 1 if self.ranks else 0

    def extend(self, rank: int, ops: list[Op]) -> None:
        self.ranks.setdefault(rank, []).extend(ops)

    # -- statistics --------------------------------------------------------
    @property
    def message_count(self) -> int:
        return sum(
            1 for ops in self.ranks.values() for op in ops if op.kind == "send"
        )

    def calc_ps(self, rank: int) -> int:
        return sum(op.duration_ps for op in self.ranks.get(rank, [])
                   if op.kind == "calc")
