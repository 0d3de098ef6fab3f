"""Host memory and host CPU models.

``HostMemory`` is a real numpy byte arena with a bump allocator — NIC
deposits and handler DMAs write actual bytes, so every experiment's data
movement is verifiable.  Only machines built ``with_memory`` own one, so
``HostMemory`` imports numpy itself and this module does not.  ``HostCPU``
charges timed work on a bounded pool of cores, routes copies through the
shared memory port (where they contend with NIC DMA traffic — the §5.1
copy-overhead effect).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.des.engine import Environment, Timeout
from repro.des.resources import Resource, Server
from repro.des.trace import Timeline
from repro.machine.config import HostParams

if TYPE_CHECKING:
    import numpy as np

__all__ = ["HostCPU", "HostMemory"]


class HostMemory:
    """A process's host memory: numpy arena + bump allocator."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("host memory size must be positive")
        import numpy as np

        self.data = np.zeros(size, dtype=np.uint8)
        self._brk = 0

    @property
    def size(self) -> int:
        return self.data.size

    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Reserve ``nbytes`` and return the base offset."""
        if nbytes < 0:
            raise ValueError("negative allocation")
        base = -(-self._brk // align) * align
        if base + nbytes > self.size:
            raise MemoryError(
                f"host arena exhausted: need {nbytes} at {base}, have {self.size}"
            )
        self._brk = base + nbytes
        return base

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise IndexError(
                f"host memory access [{offset}, {offset + nbytes}) outside "
                f"[0, {self.size})"
            )

    def write(self, offset: int, data: np.ndarray) -> None:
        import numpy as np

        data = np.asarray(data, dtype=np.uint8).ravel()
        self._check(offset, data.size)
        self.data[offset : offset + data.size] = data

    def read(self, offset: int, nbytes: int) -> np.ndarray:
        self._check(offset, nbytes)
        return self.data[offset : offset + nbytes].copy()

    def view(self, offset: int, nbytes: int) -> np.ndarray:
        """Zero-copy window (mutations visible to everyone)."""
        self._check(offset, nbytes)
        return self.data[offset : offset + nbytes]


class HostCPU:
    """Timed host processor: core pool + memory-port traffic."""

    def __init__(
        self,
        env: Environment,
        params: HostParams,
        mem_port: Server,
        rank: int = 0,
        timeline: Optional[Timeline] = None,
    ):
        self.env = env
        self.params = params
        self.mem_port = mem_port
        self.rank = rank
        self.timeline = timeline or Timeline(enabled=False)
        self.cores = Resource(env, capacity=params.cores)
        self.busy_ps: int = 0

    def stats(self, elapsed_ps: Optional[int] = None) -> dict:
        """JSON-ready CPU accounting (telemetry reports).

        ``busy_frac`` normalises over the whole core pool.
        """
        elapsed = self.env.now if elapsed_ps is None else elapsed_ps
        return {
            "cores": self.params.cores,
            "busy_ns": self.busy_ps / 1000.0,
            "busy_frac": (self.busy_ps / (elapsed * self.params.cores)
                          if elapsed > 0 else 0.0),
        }

    # -- primitive: timed work on a core ----------------------------------
    def run(self, work_ps: int, label: str = "work") -> Generator:
        """Occupy one core for ``work_ps``."""
        env = self.env
        req = self.cores.request()
        yield req
        start = env._now
        try:
            yield Timeout(env, work_ps)
        finally:
            self.cores.release(req)
        now = env._now
        self.busy_ps += now - start
        if self.timeline.enabled:
            self.timeline.record(self.rank, "CPU", start, now, label)

    def run_fn(self, work_ps: int, label: str, k: Any) -> None:
        """Chain flavour of :meth:`run`: ``k()`` fires when the work ends.

        Pushes exactly the kernel events the generator path pushes — the
        core grant (synchronous when uncontended, the identical FIFO queue
        position otherwise) and the finish timeout — so timestamps, trace
        spans, and contention order match the generator byte-for-byte.
        What it skips is the generator resumption machinery; scenario
        fast paths chain through this the way the fabric's ``_TxChain``
        chains through the wire server.
        """
        req = self.cores.request()
        if req.callbacks is None:
            self._run_fn_granted(req, work_ps, label, k)
        else:
            req.callbacks.append(
                lambda _ev: self._run_fn_granted(req, work_ps, label, k))

    def _run_fn_granted(self, req: Any, work_ps: int, label: str, k: Any) -> None:
        env = self.env
        start = env._now

        def done() -> None:
            self.cores.release(req)
            now = env._now
            self.busy_ps += now - start
            if self.timeline.enabled:
                self.timeline.record(self.rank, "CPU", start, now, label)
            k()

        env.schedule_fn(work_ps, done)

    def compute_cycles(self, cycles: float, label: str = "compute") -> Generator:
        """Occupy one core for an instruction count (IPC-adjusted)."""
        yield from self.run(self.params.cycles_to_ps(cycles), label)

    # -- memory operations -------------------------------------------------
    def memcpy(self, nbytes: int, label: str = "memcpy") -> Generator:
        """Copy ``nbytes`` through the cores and memory port.

        A copy reads and writes every byte: 2·N bytes of memory-port traffic
        at G_mem.  This is the §5.1 effect — the network deposits at
        50 GiB/s while a local copy effectively moves at 75 GiB/s, so eager
        protocols lose up to ~30 % to the extra copy.
        """
        if nbytes < 0:
            raise ValueError("negative copy size")
        req = self.cores.request()
        yield req
        start = self.env.now
        traffic = round(2 * nbytes * self.params.mem_G_ps_per_byte)
        try:
            yield self.env.timeout(self.params.dram_latency_ps)
            yield from self.mem_port.serve(traffic)
        finally:
            self.cores.release(req)
        self.busy_ps += self.env.now - start
        self.timeline.record(self.rank, "CPU", start, self.env.now, label)

    def touch(self, nbytes: int, passes: int = 1, label: str = "touch") -> Generator:
        """Stream ``passes``·``nbytes`` through the memory port on a core."""
        req = self.cores.request()
        yield req
        start = self.env.now
        try:
            yield from self.mem_port.serve(
                round(passes * nbytes * self.params.mem_G_ps_per_byte)
            )
        finally:
            self.cores.release(req)
        self.busy_ps += self.env.now - start
        self.timeline.record(self.rank, "CPU", start, self.env.now, label)

    # -- completion observation --------------------------------------------
    def poll(self, label: str = "poll") -> Generator:
        """Charge the cost of observing a NIC completion from memory."""
        yield from self.run(self.params.poll_cost_ps, label)

    def match(self, label: str = "match") -> Generator:
        """Charge the software message-matching cost."""
        yield from self.run(self.params.match_cost_ps, label)
