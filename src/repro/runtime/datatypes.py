"""The vector datatype and the §5.2 NIC-state argument.

Communicated data is often non-contiguous; MPI describes layouts with
derived datatypes.  The paper's point: iovec-style interfaces need O(n)
state for n blocks, while a vector type is the O(1) tuple
⟨start, stride, blocksize, count⟩ that a sPIN handler can interpret per
packet.  The byte-level correctness reference for the handler that does so
is :func:`repro.handlers_library.unpack_vector_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["Vector", "iovec_state_bytes", "vector_state_bytes"]


@dataclass(frozen=True)
class Vector:
    """``count`` blocks of ``blocklen`` bytes, ``stride`` bytes apart.

    ``size`` is the bytes of data, ``extent`` the span from the first to
    the last byte (holes included), and ``blocks()`` the (offset, length)
    runs of contiguous data, in order (MPI_Type_vector over MPI_BYTE).
    """

    count: int
    blocklen: int
    stride: int

    def __post_init__(self):
        if self.count < 0 or self.blocklen < 0:
            raise ValueError("negative count/blocklen")
        if self.stride < self.blocklen:
            raise ValueError("stride smaller than blocklen (overlap)")

    @property
    def size(self) -> int:
        return self.count * self.blocklen

    @property
    def extent(self) -> int:
        if self.count == 0:
            return 0
        return (self.count - 1) * self.stride + self.blocklen

    def blocks(self) -> Iterator[tuple[int, int]]:
        for j in range(self.count):
            yield (j * self.stride, self.blocklen)


def iovec_state_bytes(dtype: Vector, bytes_per_entry: int = 16) -> int:
    """NIC state needed to express ``dtype`` as an iovec (O(n) blocks)."""
    return sum(1 for _ in dtype.blocks()) * bytes_per_entry


def vector_state_bytes() -> int:
    """NIC state for the O(1) vector tuple ⟨start, stride, blocksize, count⟩."""
    return 4 * 8
