"""NI limits, including the sPIN extensions of Appendix B.2.1.

All Portals resources are strictly bounded to permit hardware
implementation; sPIN adds bounds for handler/HPU resources.  The defaults
follow the paper's simulated NIC (§4.2): 4 HPU cores, 4 KiB MTU, and a
"few hundred instructions" handler budget expressed as max cycles/byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.portals.types import PortalsError

__all__ = ["NILimits"]


@dataclass(frozen=True)
class NILimits:
    """Resource limits for one logical network interface."""

    # Classic Portals limits (subset).
    max_entries: int = 1 << 16          # MEs per NI
    max_triggered_ops: int = 1 << 12
    max_eqs: int = 1 << 8
    max_cts: int = 1 << 12

    # sPIN extensions (Appendix B.2.1).
    max_user_hdr_size: int = 64          # bytes of user header per packet
    max_payload_size: int = 4096         # payload bytes per packet (MTU)
    max_handler_mem: int = 64 * 1024     # HPU memory bytes per handler set
    max_initial_state: int = 4096        # bytes of host-initialized HPU state
    min_fragmentation_limit: int = 64    # payload alignment/multiple guarantee
    # Mirrors ptl_ni_limits_t's per-byte HPU cycle budget; the model
    # reports it but does not enforce it.
    max_cycles_per_byte: int = 16

    def __post_init__(self) -> None:
        if self.max_payload_size <= 0:
            raise PortalsError("max_payload_size must be positive")
        if self.min_fragmentation_limit <= 0:
            raise PortalsError("min_fragmentation_limit must be positive")
        if self.max_user_hdr_size < 0 or self.max_user_hdr_size > self.max_payload_size:
            raise PortalsError("max_user_hdr_size out of range")
        if self.max_initial_state > self.max_handler_mem:
            raise PortalsError("initial state cannot exceed handler memory")

    def validate_user_header(self, nbytes: int) -> None:
        if nbytes > self.max_user_hdr_size:
            raise PortalsError(
                f"user header of {nbytes} B exceeds limit {self.max_user_hdr_size}"
            )

    def validate_hpu_alloc(self, nbytes: int) -> None:
        if nbytes > self.max_handler_mem:
            raise PortalsError(
                f"HPU memory request of {nbytes} B exceeds limit {self.max_handler_mem}"
            )

    def validate_initial_state(self, nbytes: int) -> None:
        if nbytes > self.max_initial_state:
            raise PortalsError(
                f"initial state of {nbytes} B exceeds limit {self.max_initial_state}"
            )
