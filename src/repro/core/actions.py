"""Handler actions: the ``PtlHandler*`` calls of Appendix B.6.

A :class:`HandlerContext` is created per handler invocation and exposes:

* cycle accounting (``charge`` / ``charge_per_byte``) — the gem5 stand-in;
* messaging: ``put_from_device`` (single-packet, blocks the HPU thread),
  ``put_from_host`` (enqueued as if posted by the host, non-blocking),
  ``get`` (handler-issued get, the rendezvous workhorse);
* host-memory DMA: blocking/non-blocking reads and writes, atomic CAS and
  fetch-add — all charged through the machine's DMA engine and memory port;
* HPU-local atomics (CAS / fetch-add on HPU memory) and ``yield_()``;
* counter manipulation (``ct_inc`` / ``ct_get`` / ``ct_set``).

Blocking actions are generators — handlers using them must themselves be
generator functions and ``yield from`` the action.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.des.engine import Event, Timeout
from repro.network.packets import Message
from repro.portals.counters import Counter
from repro.core.costmodel import HANDLER_COSTS
from repro.core.handlers import HandlerError, HPUMemory

if TYPE_CHECKING:
    import numpy as np

__all__ = ["HandlerContext"]

#: options value selecting the ME's host region (PTL_ME_HOST_MEM).
ME_HOST_MEM = "me"
#: options value selecting the handler's own host region (PTL_HANDLER_HOST_MEM).
HANDLER_HOST_MEM = "handler"


class HandlerContext:
    """Execution context for one handler invocation on one HPU."""

    __slots__ = ("nic", "env", "hs", "rx_state", "hpu_id",
                 "_cycles", "total_cycles", "dma_completions")

    def __init__(self, nic, handler_set, rx_state, hpu_id: int):
        self.nic = nic
        self.env = nic.env
        self.hs = handler_set
        self.rx_state = rx_state
        self.hpu_id = hpu_id
        self._cycles = 0
        self.total_cycles = 0
        self.dma_completions: list[Event] = []

    @property
    def machine(self):
        """The :class:`~repro.machine.cluster.Machine` hosting this NIC."""
        return self.nic.machine

    # -- identity / environment (compile-time constants of §3.2.2) ---------
    @property
    def PTL_NUM_HPUS(self) -> int:
        return self.nic.hpus.count

    @property
    def PTL_MY_HPU(self) -> int:
        return self.hpu_id

    @property
    def state(self) -> HPUMemory:
        """The handler-shared HPU memory (``*state``)."""
        if self.hs.hpu_memory is None:
            raise HandlerError("handler has no HPU memory attached")
        return self.hs.hpu_memory

    @property
    def params(self) -> dict:
        """Host-provided installation parameters (baked into HPU state)."""
        return self.hs.params

    @property
    def message(self) -> Message:
        return self.rx_state.message

    @property
    def me(self):
        return self.rx_state.match.entry

    # -- cycle accounting ---------------------------------------------------
    def charge(self, cycles: float) -> None:
        """Account handler instructions (1 cycle each at 2.5 GHz, IPC=1)."""
        if cycles < 0:
            raise HandlerError("negative cycle charge")
        self._cycles += cycles

    def charge_per_byte(self, nbytes: int, cycles_per_byte: float) -> None:
        """Account a data-dependent loop over ``nbytes``."""
        self.charge(nbytes * cycles_per_byte)

    def elapse(self) -> Generator:
        """Convert accumulated cycles into simulated HPU time."""
        if self._cycles:
            cycles, self._cycles = self._cycles, 0
            self.total_cycles += cycles
            yield Timeout(self.env, self.nic.params.hpu_cycles_to_ps(cycles))

    def _action(self) -> Generator:
        self.charge(HANDLER_COSTS.action_cycles)
        yield from self.elapse()

    # -- host-memory addressing ---------------------------------------------
    def _base(self, options: str) -> int:
        if options == ME_HOST_MEM:
            return self.me.start + self.rx_state.match.deposit_offset
        if options == HANDLER_HOST_MEM:
            return self.hs.host_mem_start
        raise HandlerError(f"unknown host-memory selector {options!r}")

    # -- messaging ----------------------------------------------------------
    def put_from_device(
        self,
        data,
        target: int,
        match_bits: int = 0,
        pt_index: int = 0,
        nbytes: Optional[int] = None,
        hdr_data: int = 0,
        user_hdr: Any = None,
        ack: bool = False,
        md=None,
    ) -> Generator:
        """PtlHandlerPutFromDevice: single-packet put from HPU memory.

        Blocks the HPU thread until the message is injected (the NIC may use
        HPU memory as the outgoing buffer, §2).  ``data`` may be None for a
        modelled (length-only) message, with ``nbytes`` giving the size.
        """
        yield from self._action()
        if nbytes is None:
            nbytes = len(data) if data is not None else 0
        if nbytes > self.nic.ni.limits.max_payload_size:
            raise HandlerError(
                f"put_from_device of {nbytes} B exceeds max_payload_size "
                f"{self.nic.ni.limits.max_payload_size}"
            )
        payload = None
        if data is not None:
            import numpy as np

            payload = np.asarray(data, dtype=np.uint8).ravel().copy()
        msg = Message(
            source=self.nic.rank,
            target=target,
            length=nbytes,
            kind="put",
            match_bits=match_bits,
            payload=payload,
            hdr_data=hdr_data,
            user_hdr=user_hdr,
            meta={
                "pt_index": pt_index,
                "ack": ack,
                "md_id": md.md_id if md else -1,
            },
        )
        done = self.nic.send(msg, from_host=False)
        yield done  # may block until delivered to the wire

    def put_from_host(
        self,
        offset: int,
        nbytes: int,
        target: int,
        match_bits: int = 0,
        pt_index: int = 0,
        hdr_data: int = 0,
        user_hdr: Any = None,
        ack: bool = False,
        md=None,
        options: str = ME_HOST_MEM,
    ) -> Generator[object, object, Event]:
        """PtlHandlerPutFromHost: enqueue a put of host memory.

        Behaves as if posted by the host (enters the normal send queue,
        pays the source DMA staging) but charges no host ``o``.  Never
        blocks the HPU; returns the injection-done event.
        """
        yield from self._action()
        payload = None
        if self.nic.memory is not None:
            payload = self.nic.memory.read(self._base(options) + offset, nbytes)
        msg = Message(
            source=self.nic.rank,
            target=target,
            length=nbytes,
            kind="put",
            match_bits=match_bits,
            payload=payload,
            hdr_data=hdr_data,
            user_hdr=user_hdr,
            meta={
                "pt_index": pt_index,
                "ack": ack,
                "md_id": md.md_id if md else -1,
            },
        )
        return self.nic.send(msg, from_host=True)

    def get(
        self,
        target: int,
        nbytes: int,
        match_bits: int = 0,
        pt_index: int = 0,
        get_offset: int = 0,
        reply_offset: int = 0,
        md=None,
    ) -> Generator[object, object, Event]:
        """PtlHandlerGet: issue a get; the reply lands in ``md`` at this host.

        This is the key rendezvous primitive (§5.1): the header handler of a
        large message issues a get matching the sender's pre-set-up ME.
        """
        yield from self._action()
        msg = Message(
            source=self.nic.rank,
            target=target,
            length=0,
            kind="get",
            match_bits=match_bits,
            meta={
                "pt_index": pt_index,
                "get_length": nbytes,
                "get_offset": get_offset,
                "reply_offset": reply_offset,
                "md_id": md.md_id if md else -1,
            },
        )
        return self.nic.send(msg, from_host=False)

    # -- DMA ----------------------------------------------------------------
    def dma_from_host_b(
        self, offset: int, nbytes: int, options: str = ME_HOST_MEM
    ) -> Generator[object, object, Optional[np.ndarray]]:
        """Blocking read from host memory (2 DMA latencies + bandwidth)."""
        yield from self._action()
        data = yield from self.nic.dma.read(
            self._base(options) + offset, nbytes, label=f"hpu{self.hpu_id}-r"
        )
        return data

    def dma_from_host_nb(
        self, offset: int, nbytes: int, options: str = ME_HOST_MEM
    ) -> Generator[object, object, Event]:
        """Non-blocking read; returns a handle whose value is the data."""
        yield from self._action()
        handle = self.env.event()

        def reader():
            data = yield from self.nic.dma.read(
                self._base(options) + offset, nbytes, label=f"hpu{self.hpu_id}-r"
            )
            handle.succeed(data)

        self.env.process(reader(), name="dma-nb-read")
        return handle

    def dma_to_host_b(
        self, data, offset: int, nbytes: Optional[int] = None,
        options: str = ME_HOST_MEM,
    ) -> Generator[object, object, Event]:
        """Blocking write: the HPU blocks while initiating (bandwidth term).

        Returns the durability event; the message's completion (and thus
        the host-visible event) waits for it automatically.
        """
        yield from self._action()
        completion = yield from self.nic.dma.write(
            self._base(options) + offset,
            data,
            nbytes=nbytes,
            label=f"hpu{self.hpu_id}-w",
        )
        self.dma_completions.append(completion)
        return completion

    def dma_to_host_nb(
        self, data, offset: int, nbytes: Optional[int] = None,
        options: str = ME_HOST_MEM,
    ) -> Generator[object, object, Event]:
        """Non-blocking write; returns the durability handle."""
        yield from self._action()
        handle = self.env.event()
        base = self._base(options) + offset

        def writer():
            completion = yield from self.nic.dma.write(
                base, data, nbytes=nbytes, label=f"hpu{self.hpu_id}-w"
            )
            completion.callbacks.append(lambda ev: handle.succeed(ev.value))

        self.env.process(writer(), name="dma-nb-write")
        self.dma_completions.append(handle)
        return handle

    def dma_wait(self, handle: Event) -> Generator:
        """PtlHandlerDMAWait: block until a non-blocking DMA completes."""
        if not handle.processed:
            yield handle

    @staticmethod
    def dma_test(handle: Event) -> bool:
        """PtlHandlerDMATest: has the transfer completed?"""
        return handle.processed

    def dma_cas(
        self, offset: int, cmpval: int, swapval: int, options: str = ME_HOST_MEM
    ) -> Generator[object, object, tuple[bool, int]]:
        """Atomic host-memory CAS (expensive over PCIe, §B.6)."""
        yield from self._action()
        result = yield from self.nic.dma.cas(
            self._base(options) + offset, cmpval, swapval
        )
        return result

    def dma_fetch_add(
        self, offset: int, inc: int, options: str = ME_HOST_MEM
    ) -> Generator[object, object, int]:
        """Atomic host-memory fetch-and-add; returns the prior value."""
        yield from self._action()
        before = yield from self.nic.dma.fetch_add(self._base(options) + offset, inc)
        return before

    # -- HPU-local synchronization (hardware instructions, no sim time) ------
    def hpu_cas(self, offset: int, cmpval: int, swapval: int) -> bool:
        """PtlHandlerCAS on HPU memory; True if the swap happened."""
        self.charge(HANDLER_COSTS.hpu_atomic_cycles)
        current = self.state.load_u64(offset)
        if current == cmpval:
            self.state.store_u64(offset, swapval)
            return True
        return False

    def hpu_fadd(self, offset: int, inc: int) -> int:
        """PtlHandlerFAdd on HPU memory; returns the prior value."""
        self.charge(HANDLER_COSTS.hpu_atomic_cycles)
        before = self.state.load_u64(offset)
        self.state.store_u64(offset, before + inc)
        return before

    def yield_(self) -> Generator:
        """PtlHandlerYield: scheduling hint (flushes accumulated cycles)."""
        self.charge(1)
        yield from self.elapse()

    # -- counters ----------------------------------------------------------
    def ct_inc(self, counter: Counter, increment: int = 1, nbytes: int = 0) -> None:
        self.charge(HANDLER_COSTS.hpu_atomic_cycles)
        counter.increment(increment, nbytes=nbytes)

    def ct_get(self, counter: Counter) -> tuple[int, int]:
        self.charge(HANDLER_COSTS.hpu_atomic_cycles)
        return counter.success, counter.failure

    def ct_set(self, counter: Counter, successes: int, failures: int = 0) -> None:
        self.charge(HANDLER_COSTS.hpu_atomic_cycles)
        counter.set(successes, failures)
