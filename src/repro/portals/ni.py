"""Logical network interfaces, portal table, MDs, and flow control."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.portals.counters import Counter
from repro.portals.events import EventQueue, PortalsEvent
from repro.portals.limits import NILimits
from repro.portals.matching import MatchEntry, MatchList, MatchResult
from repro.portals.triggered import TriggeredQueue
from repro.portals.types import EventKind, PortalsError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["MemoryDescriptor", "NetworkInterface", "PortalTableEntry"]

_md_ids = itertools.count()


@dataclass
class MemoryDescriptor:
    """Initiator-side memory abstraction (``ptl_md_t``).

    ``start``/``length`` delimit a region of the process's host memory;
    the attached counter/EQ receive SEND/ACK/REPLY notifications.
    """

    start: int = 0
    length: int = 0
    counter: Optional[Counter] = None
    event_queue: Optional[EventQueue] = None
    options: int = 0
    md_id: int = field(default_factory=lambda: next(_md_ids))

    def __post_init__(self) -> None:
        if self.length < 0:
            raise PortalsError("negative MD length")


class PortalTableEntry:
    """One portal-table index: a match list plus flow-control state.

    When flow control trips (no matching resources — including, with sPIN,
    no free HPU contexts), the entry drops every arriving packet until the
    host re-enables it (§3.2), and a PT_DISABLED event is raised exactly
    once per disable episode.
    """

    def __init__(self, index: int, eq: Optional[EventQueue] = None):
        self.index = index
        self.match_list = MatchList()
        self.eq = eq
        self.enabled = True
        self.dropped_messages = 0
        self.dropped_bytes = 0
        self.disable_episodes = 0

    def disable(self) -> None:
        if not self.enabled:
            return
        self.enabled = False
        self.disable_episodes += 1
        if self.eq is not None:
            self.eq.push(PortalsEvent(kind=EventKind.PT_DISABLED, meta={"pt": self.index}))

    def enable(self) -> None:
        self.enabled = True

    def record_drop(self, nbytes: int) -> None:
        self.dropped_messages += 1
        self.dropped_bytes += nbytes


class NetworkInterface:
    """A logically addressed, matched Portals 4 NI for one process.

    Owns the portal table, MDs, counters and EQs; pure mechanism — the timed
    models in :mod:`repro.machine` and :mod:`repro.core` drive it.
    """

    def __init__(
        self,
        nid: int,
        limits: Optional[NILimits] = None,
        memory: Optional["HostMemoryLike"] = None,
    ):
        self.nid = nid
        self.limits = limits or NILimits()
        self.memory = memory
        self.portal_table: dict[int, PortalTableEntry] = {}
        self.mds: dict[int, MemoryDescriptor] = {}
        self.triggered = TriggeredQueue(self.limits.max_triggered_ops)
        self._me_count = 0

    # -- portal table ----------------------------------------------------------
    def pt_alloc(self, index: int, eq: Optional[EventQueue] = None) -> PortalTableEntry:
        if index in self.portal_table:
            raise PortalsError(f"portal index {index} already allocated")
        pt = PortalTableEntry(index, eq)
        self.portal_table[index] = pt
        return pt

    def pt(self, index: int) -> PortalTableEntry:
        try:
            return self.portal_table[index]
        except KeyError:
            raise PortalsError(f"portal index {index} not allocated") from None

    # -- MEs -------------------------------------------------------------------
    def me_append(
        self, pt_index: int, entry: MatchEntry, overflow: bool = False
    ) -> MatchEntry:
        """PtlMEAppend (plus the sPIN handler extension via ``entry.spin``)."""
        if self._me_count >= self.limits.max_entries:
            raise PortalsError("NI out of matching entries")
        if entry.spin is not None:
            # Validate sPIN resource limits at installation time (§3.2: the
            # system can reject handler code that is too large).
            entry.spin.validate(self.limits)
        self.pt(pt_index).match_list.append(entry, overflow=overflow)
        self._me_count += 1
        return entry

    def me_unlink(self, pt_index: int, entry: MatchEntry) -> None:
        self.pt(pt_index).match_list.unlink(entry)
        self._me_count -= 1

    # -- MDs -----------------------------------------------------------------
    def md_bind(self, md: MemoryDescriptor) -> MemoryDescriptor:
        self.mds[md.md_id] = md
        return md

    # -- matching entry point (called by NIC models) --------------------------
    def match(
        self,
        pt_index: int,
        initiator: int,
        match_bits: int,
        kind: str = "put",
        length: int = 0,
        requested_offset: int = 0,
        header_meta: Optional[dict] = None,
    ) -> MatchResult:
        pt = self.pt(pt_index)
        if not pt.enabled:
            pt.record_drop(length)
            return MatchResult(None, "none")
        result = pt.match_list.match(
            initiator, match_bits, kind, length, requested_offset, header_meta
        )
        if result.entry is None:
            # No priority or overflow resources: Portals flow control.
            pt.record_drop(length)
            pt.disable()
        return result

    # -- data movement helpers ------------------------------------------------
    def deposit(self, entry: MatchEntry, offset: int, data: np.ndarray) -> None:
        """Write payload bytes into host memory at the ME-relative offset."""
        if self.memory is None or data is None:
            return
        self.memory.write(entry.start + offset, data)

    def fetch(self, entry: MatchEntry, offset: int, nbytes: int) -> Optional[np.ndarray]:
        """Read payload bytes from host memory at the ME-relative offset."""
        if self.memory is None:
            return None
        return self.memory.read(entry.start + offset, nbytes)


class HostMemoryLike:  # pragma: no cover - typing aid only
    """Protocol for the host memory objects NIs deposit into."""

    def write(self, offset: int, data: np.ndarray) -> None: ...

    def read(self, offset: int, nbytes: int) -> np.ndarray: ...
