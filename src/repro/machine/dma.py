"""The NIC↔host DMA engine (paper §4.3).

DMA is modelled as a LogGP system with o = g = 0: a transfer of N bytes
costs L (one-way request latency) plus N·G of bandwidth, where (L, G) depend
on the attachment — discrete/PCIe: (250 ns, 15.6 ps/B); integrated:
(50 ns, 6.7 ps/B).  All transfers serialize on the host **memory port**
(min(attachment, memory) bandwidth) where they contend with CPU copies.

Blocking semantics follow the paper's appendix trace discussion:

* ``read`` (DMAFromHost) blocks the issuer for **two** DMA latencies plus
  the bandwidth term — request out, data back;
* ``write`` (DMAToHost) blocks only while the data is pushed into the pipe
  (bandwidth term); durability in host memory lags one further L, delivered
  via the returned completion event.

Atomic CAS / fetch-add are small round trips (2·L + one-word transfer) that
execute their memory update atomically at the *completion* time.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.des.engine import Environment, Event
from repro.des.resources import Server
from repro.des.trace import Timeline
from repro.machine.config import NICParams
from repro.machine.host import HostMemory

__all__ = ["DMAEngine"]


class DMAEngine:
    """One machine's DMA path between NIC/HPUs and host memory."""

    def __init__(
        self,
        env: Environment,
        params: NICParams,
        mem_port: Server,
        memory: Optional[HostMemory] = None,
        rank: int = 0,
        timeline: Optional[Timeline] = None,
        mem_G_ps_per_byte: float = 6.7,
    ):
        self.env = env
        self.params = params
        self.mem_port = mem_port
        self.memory = memory
        self.rank = rank
        self.timeline = timeline or Timeline(enabled=False)
        #: Effective per-byte cost: the slower of the attachment and the
        #: memory system (PCIe bounds the discrete NIC at 64 GiB/s).
        self.G_eff = max(params.dma_G_ps_per_byte, mem_G_ps_per_byte)
        self.bytes_read = 0
        self.bytes_written = 0

    def stats(self) -> dict:
        """JSON-ready transfer accounting (telemetry reports)."""
        return {"bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written}

    # -- helpers -----------------------------------------------------------
    def _bw_ps(self, nbytes: int) -> int:
        return self.params.dma_per_op_ps + round(nbytes * self.G_eff)

    @property
    def latency_ps(self) -> int:
        return self.params.dma_latency_ps

    # -- writes -------------------------------------------------------------
    def write(
        self,
        offset: int,
        data,
        nbytes: Optional[int] = None,
        label: str = "dma-w",
    ) -> Generator[object, object, Event]:
        """Push bytes toward host memory; returns a completion event.

        The generator finishes when the issuer may proceed (data accepted by
        the pipe).  The returned event fires when the data is durable in
        host memory — that is when the actual byte mutation happens, so
        readers that respect completion events always see consistent data.
        """
        if nbytes is None:
            nbytes = len(data) if data is not None else 0
        if nbytes < 0:
            raise ValueError("negative DMA size")
        start = self.env.now
        yield from self.mem_port.serve(self._bw_ps(nbytes))
        self.bytes_written += nbytes
        self.timeline.record(self.rank, "DMA", start, self.env.now, label)
        completed = self.env.event()

        def land() -> None:
            if self.memory is not None and data is not None and nbytes:
                self.memory.write(offset, data)
            completed.succeed(self.env.now)

        self.env.schedule_fn(self.latency_ps, land)
        return completed

    # -- reads --------------------------------------------------------------
    def read(
        self, offset: int, nbytes: int, label: str = "dma-r"
    ) -> Generator[object, object, Optional[object]]:
        """Blocking read: 2·L + bandwidth; returns the bytes (or None)."""
        if nbytes < 0:
            raise ValueError("negative DMA size")
        start = self.env.now
        yield self.env.timeout(self.latency_ps)          # request travels out
        yield from self.mem_port.serve(self._bw_ps(nbytes))
        yield self.env.timeout(self.latency_ps)          # data travels back
        self.bytes_read += nbytes
        self.timeline.record(self.rank, "DMA", start, self.env.now, label)
        if self.memory is None:
            return None
        return self.memory.read(offset, nbytes)

    # -- atomics ------------------------------------------------------------
    def _atomic(
        self, label: str, apply: Callable[[], object]
    ) -> Generator[object, object, object]:
        start = self.env.now
        yield self.env.timeout(self.latency_ps)
        yield from self.mem_port.serve(self._bw_ps(8))
        yield self.env.timeout(self.latency_ps)
        self.timeline.record(self.rank, "DMA", start, self.env.now, label)
        return apply()

    def cas(
        self, offset: int, compare: int, swap: int
    ) -> Generator[object, object, tuple[bool, int]]:
        """Atomic 64-bit compare-and-swap on host memory.

        Returns (swapped?, observed value) — on failure the observed value
        is what the caller should retry with (PtlHandlerDMACASNB semantics).
        """

        def apply() -> tuple[bool, int]:
            if self.memory is None:
                return True, compare
            view = self.memory.view(offset, 8)
            current = int.from_bytes(view.tobytes(), "little")
            if current == compare:
                view[:] = bytearray(swap.to_bytes(8, "little"))
                return True, current
            return False, current

        return self._atomic("dma-cas", apply)

    def fetch_add(
        self, offset: int, increment: int
    ) -> Generator[object, object, int]:
        """Atomic 64-bit fetch-and-add on host memory; returns prior value."""

        def apply() -> int:
            if self.memory is None:
                return 0
            view = self.memory.view(offset, 8)
            current = int.from_bytes(view.tobytes(), "little")
            view[:] = bytearray(
                ((current + increment) & ((1 << 64) - 1)).to_bytes(8, "little")
            )
            return current

        return self._atomic("dma-fadd", apply)
