"""Handler model: return codes, HPU memory, and the handler binding.

Handlers are Python callables standing in for the paper's C handler code:

* ``header_handler(ctx, header)`` — called exactly once per message, before
  any other handler; ``header`` is the message (``ptl_header_t`` fields).
* ``payload_handler(ctx, payload)`` — called for every packet carrying
  payload, potentially in parallel on multiple HPUs; ``payload`` is a
  :class:`~repro.network.packets.Packet` (``ptl_payload_t``: base/length/
  offset).
* ``completion_handler(ctx, dropped_bytes, flow_control_triggered)`` —
  called once after all payload handlers finished and the whole message
  arrived, before the completion event is delivered to the host.

A handler may be a plain function (compute only — charge cycles via
``ctx.charge``) or a generator function (uses blocking actions:
``yield from ctx.dma_from_host_b(...)`` etc.).  Both return a
:class:`ReturnCode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.portals.limits import NILimits
from repro.portals.types import PortalsError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["HPUMemory", "HandlerError", "HandlerSet", "ReturnCode"]


class ReturnCode(Enum):
    """Handler return codes (Appendix B.3–B.5)."""

    # Header handler codes.
    DROP = "DROP"
    DROP_PENDING = "DROP_PENDING"
    PROCESS_DATA = "PROCESS_DATA"
    PROCESS_DATA_PENDING = "PROCESS_DATA_PENDING"
    PROCEED = "PROCEED"
    PROCEED_PENDING = "PROCEED_PENDING"
    # Payload / completion handler codes.
    SUCCESS = "SUCCESS"
    SUCCESS_PENDING = "SUCCESS_PENDING"
    # Errors (raise an event in the ME's event queue).
    FAIL = "FAIL"
    SEGV = "SEGV"

    @property
    def is_error(self) -> bool:
        return self in (ReturnCode.FAIL, ReturnCode.SEGV)

    @property
    def is_pending(self) -> bool:
        """PENDING variants suppress ME completion (§B.2: rendezvous)."""
        return self in (
            ReturnCode.DROP_PENDING,
            ReturnCode.PROCESS_DATA_PENDING,
            ReturnCode.PROCEED_PENDING,
            ReturnCode.SUCCESS_PENDING,
        )

    @property
    def drops_message(self) -> bool:
        return self in (ReturnCode.DROP, ReturnCode.DROP_PENDING)

    @property
    def proceeds(self) -> bool:
        return self in (ReturnCode.PROCEED, ReturnCode.PROCEED_PENDING)

    @property
    def processes_data(self) -> bool:
        return self in (ReturnCode.PROCESS_DATA, ReturnCode.PROCESS_DATA_PENDING)


class HandlerError(Exception):
    """Raised for handler-model misuse (bad return code, OOB HPU memory)."""


class HPUMemory:
    """Fast NIC-local memory shared by the handlers of one binding.

    Linear physical addressing, no protection between handlers sharing it
    (§2).  ``raw`` is the honest byte arena (single-cycle scratchpad in the
    cost model); ``vars`` is a Python-dict convenience view for handler
    state that the mini-ISA programs keep in ``raw`` instead — both are
    persistent across the lifetime of messages on the same binding.
    ``raw`` is zero-filled on first touch, so a binding whose handlers keep
    their state in ``vars`` never allocates it (nor loads numpy).
    """

    def __init__(self, size: int):
        if size < 0:
            raise HandlerError("negative HPU memory size")
        self.size = size
        self.vars: dict[str, Any] = {}
        self.freed = False

    @cached_property
    def raw(self) -> np.ndarray:
        """The ``size``-byte arena, allocated (zeroed) on first access."""
        import numpy as np

        return np.zeros(self.size, dtype=np.uint8)

    def _check(self, offset: int, nbytes: int) -> None:
        if self.freed:
            raise HandlerError("use of freed HPU memory")
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise HandlerError(
                f"HPU memory access [{offset}, {offset + nbytes}) outside "
                f"[0, {self.size})"
            )

    def write(self, offset: int, data) -> None:
        import numpy as np

        data = np.asarray(data, dtype=np.uint8).ravel()
        self._check(offset, data.size)
        self.raw[offset : offset + data.size] = data

    def read(self, offset: int, nbytes: int) -> np.ndarray:
        self._check(offset, nbytes)
        return self.raw[offset : offset + nbytes].copy()

    def view(self, offset: int, nbytes: int) -> np.ndarray:
        self._check(offset, nbytes)
        return self.raw[offset : offset + nbytes]

    # -- 64-bit accessors (for HPU atomics) ------------------------------
    def load_u64(self, offset: int) -> int:
        self._check(offset, 8)
        return int.from_bytes(self.raw[offset : offset + 8].tobytes(), "little")

    def store_u64(self, offset: int, value: int) -> None:
        import numpy as np

        self._check(offset, 8)
        self.raw[offset : offset + 8] = np.frombuffer(
            (value & ((1 << 64) - 1)).to_bytes(8, "little"), dtype=np.uint8
        )


@dataclass
class HandlerSet:
    """The P4sPIN extension of ``ptl_me_t`` (Appendix B.1).

    Attached to :attr:`repro.portals.matching.MatchEntry.spin`; any handler
    may be None (not invoked).  ``initial_state`` is copied into HPU memory
    when the first message matches the entry (host-initialized state,
    §B.2); ``host_mem_start/length`` delimit the optional second host
    region handlers may address (HANDLER_HOST_MEM).
    """

    header_handler: Optional[Callable] = None
    payload_handler: Optional[Callable] = None
    completion_handler: Optional[Callable] = None
    hpu_memory: Optional[HPUMemory] = None
    initial_state: Optional[bytes] = None
    host_mem_start: int = 0
    host_mem_length: int = 0
    user_hdr_size: int = 0
    #: Arbitrary host-provided parameters visible to handlers via
    #: ``ctx.params`` (models values baked into initial HPU state).
    params: dict = field(default_factory=dict)
    _state_initialized: bool = False

    def validate(self, limits: NILimits) -> None:
        """Installation-time checks (the system may reject oversized setups)."""
        limits.validate_user_header(self.user_hdr_size)
        if self.hpu_memory is not None:
            if self.hpu_memory.freed:
                raise PortalsError(
                    "handler set references freed HPU memory (use-after-free)"
                )
            limits.validate_hpu_alloc(self.hpu_memory.size)
        if self.initial_state is not None:
            limits.validate_initial_state(len(self.initial_state))
            if self.hpu_memory is None:
                raise PortalsError("initial state requires HPU memory")
            if len(self.initial_state) > self.hpu_memory.size:
                raise PortalsError("initial state larger than HPU memory")

    def ensure_state(self) -> None:
        """Copy the host-provided initial state into HPU memory once."""
        if self._state_initialized:
            return
        self._state_initialized = True
        if self.initial_state is not None and self.hpu_memory is not None:
            import numpy as np

            self.hpu_memory.write(
                0, np.frombuffer(self.initial_state, dtype=np.uint8)
            )
