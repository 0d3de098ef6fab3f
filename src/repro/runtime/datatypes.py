"""MPI derived datatypes (§5.2).

Communicated data is often non-contiguous; MPI describes layouts with
derived datatypes.  The paper's point: iovec-style interfaces need O(n)
state for n blocks, while a vector type is the O(1) tuple
⟨start, stride, blocksize, count⟩ that a sPIN handler can interpret per
packet.  This engine provides the classic constructors, block flattening,
and pack/unpack against numpy buffers (the correctness reference for the
Fig. 6/7a handlers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BYTE",
    "Contiguous",
    "DOUBLE",
    "Datatype",
    "FLOAT",
    "INT32",
    "Indexed",
    "Primitive",
    "Struct",
    "Vector",
]


class Datatype:
    """Base class: a layout over a typed memory region.

    ``size``  — bytes of actual data;
    ``extent`` — span from first to last byte (incl. holes);
    ``blocks()`` — (offset, length) runs of contiguous data, in order.
    """

    size: int
    extent: int

    def blocks(self) -> Iterator[tuple[int, int]]:
        raise NotImplementedError

    # -- derived operations ---------------------------------------------
    def pack(self, buffer: np.ndarray) -> np.ndarray:
        """Gather this layout from ``buffer`` into a contiguous array."""
        import numpy as np

        buffer = np.asarray(buffer, dtype=np.uint8)
        out = np.empty(self.size, dtype=np.uint8)
        pos = 0
        for offset, length in self.blocks():
            out[pos : pos + length] = buffer[offset : offset + length]
            pos += length
        return out

    def unpack(self, packed: np.ndarray, buffer: np.ndarray) -> None:
        """Scatter a contiguous array into ``buffer`` at this layout."""
        import numpy as np

        packed = np.asarray(packed, dtype=np.uint8)
        if packed.size != self.size:
            raise ValueError(f"packed size {packed.size} != datatype size {self.size}")
        pos = 0
        for offset, length in self.blocks():
            buffer[offset : offset + length] = packed[pos : pos + length]
            pos += length

    def blocks_in_packed_range(self, lo: int, hi: int) -> list[tuple[int, int, int]]:
        """Blocks covering packed bytes [lo, hi): (host_offset, pk_offset, len).

        This is what a sPIN payload handler evaluates per packet: which
        target runs the packet's bytes belong to (packets may arrive in any
        order, so the lookup must be stateless).
        """
        if not 0 <= lo <= hi <= self.size:
            raise ValueError(f"bad packed range [{lo}, {hi}) for size {self.size}")
        out = []
        pos = 0
        for offset, length in self.blocks():
            if pos + length <= lo:
                pos += length
                continue
            if pos >= hi:
                break
            a = max(lo, pos)
            b = min(hi, pos + length)
            out.append((offset + (a - pos), a, b - a))
            pos += length
        return out


@dataclass(frozen=True)
class Primitive(Datatype):
    """A basic type of ``nbytes`` (MPI_BYTE, MPI_INT, MPI_DOUBLE, ...)."""

    nbytes: int
    name: str = "byte"

    def __post_init__(self):
        if self.nbytes <= 0:
            raise ValueError("primitive size must be positive")

    @property
    def size(self) -> int:  # type: ignore[override]
        return self.nbytes

    @property
    def extent(self) -> int:  # type: ignore[override]
        return self.nbytes

    def blocks(self):
        yield (0, self.nbytes)


BYTE = Primitive(1, "byte")
INT32 = Primitive(4, "int32")
FLOAT = Primitive(4, "float")
DOUBLE = Primitive(8, "double")


@dataclass(frozen=True)
class Contiguous(Datatype):
    """``count`` back-to-back copies of ``base`` (MPI_Type_contiguous)."""

    count: int
    base: Datatype = BYTE

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("negative count")

    @property
    def size(self) -> int:  # type: ignore[override]
        return self.count * self.base.size

    @property
    def extent(self) -> int:  # type: ignore[override]
        return self.count * self.base.extent

    def blocks(self):
        run_start = None
        run_len = 0
        for i in range(self.count):
            base_off = i * self.base.extent
            for offset, length in self.base.blocks():
                pos = base_off + offset
                if run_start is not None and pos == run_start + run_len:
                    run_len += length
                else:
                    if run_start is not None:
                        yield (run_start, run_len)
                    run_start, run_len = pos, length
        if run_start is not None:
            yield (run_start, run_len)


@dataclass(frozen=True)
class Vector(Datatype):
    """⟨count, blocklen, stride⟩ of ``base`` elements (MPI_Type_vector).

    ``stride`` is in base-extent units: distance between block starts.
    """

    count: int
    blocklen: int
    stride: int
    base: Datatype = BYTE

    def __post_init__(self):
        if self.count < 0 or self.blocklen < 0:
            raise ValueError("negative count/blocklen")
        if self.stride < self.blocklen:
            raise ValueError("stride smaller than blocklen (overlap)")

    @property
    def size(self) -> int:  # type: ignore[override]
        return self.count * self.blocklen * self.base.size

    @property
    def extent(self) -> int:  # type: ignore[override]
        if self.count == 0:
            return 0
        return ((self.count - 1) * self.stride + self.blocklen) * self.base.extent

    def blocks(self):
        unit = self.base.extent
        blk = self.blocklen * unit
        for j in range(self.count):
            yield (j * self.stride * unit, blk)


@dataclass(frozen=True)
class Indexed(Datatype):
    """Explicit (blocklen, displacement) pairs (MPI_Type_indexed), O(n)."""

    blocklens: tuple[int, ...]
    displacements: tuple[int, ...]
    base: Datatype = BYTE

    def __post_init__(self):
        if len(self.blocklens) != len(self.displacements):
            raise ValueError("blocklens and displacements differ in length")
        if any(b < 0 for b in self.blocklens):
            raise ValueError("negative block length")

    @property
    def size(self) -> int:  # type: ignore[override]
        return sum(self.blocklens) * self.base.size

    @property
    def extent(self) -> int:  # type: ignore[override]
        if not self.blocklens:
            return 0
        unit = self.base.extent
        return max(
            (d + b) * unit for d, b in zip(self.displacements, self.blocklens)
        )

    def blocks(self):
        unit = self.base.extent
        for blocklen, disp in zip(self.blocklens, self.displacements):
            if blocklen:
                yield (disp * unit, blocklen * unit)


@dataclass(frozen=True)
class Struct(Datatype):
    """Heterogeneous fields at byte displacements (MPI_Type_create_struct)."""

    fields: tuple[tuple[int, Datatype], ...]  # (byte displacement, type)

    @property
    def size(self) -> int:  # type: ignore[override]
        return sum(t.size for _, t in self.fields)

    @property
    def extent(self) -> int:  # type: ignore[override]
        if not self.fields:
            return 0
        return max(d + t.extent for d, t in self.fields)

    def blocks(self):
        for disp, dtype in self.fields:
            for offset, length in dtype.blocks():
                yield (disp + offset, length)


def iovec_state_bytes(dtype: Datatype, bytes_per_entry: int = 16) -> int:
    """NIC state needed to express ``dtype`` as an iovec (O(n) blocks)."""
    return sum(1 for _ in dtype.blocks()) * bytes_per_entry


def vector_state_bytes() -> int:
    """NIC state for the O(1) vector tuple ⟨start, stride, blocksize, count⟩."""
    return 4 * 8
