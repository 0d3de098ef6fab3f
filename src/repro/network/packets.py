"""Messages and packetization.

sPIN's central concept (§2): network devices split messages into packets; the
first packet of a message is the *header packet* carrying all information
needed to identify/steer the message, and the programmer's handlers run per
packet.  This module implements messages and the MTU split.

Payloads are numpy ``uint8`` arrays so handlers transform *real bytes* (XOR
parity, complex multiplies, strided deposits are all checked for
correctness).  For application-scale simulations where content is
irrelevant, ``payload=None`` keeps a length-only "modelled" message; numpy
is imported only where a payload is built, so a run of modelled messages
never loads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Message", "Packet", "packetize", "reset_msg_ids"]

_msg_ids = itertools.count()


def reset_msg_ids() -> None:
    """Restart the message-id sequence.

    Message ids are simulation bookkeeping (trace labels, NIC reassembly
    keys); the counter is process-global, so without a reset a second
    simulation in the same process would label its messages differently
    and break byte-for-byte trace reproducibility.
    :class:`~repro.machine.cluster.Cluster` calls this at construction.

    Invariant: one *active* cluster per process.  Constructing cluster B
    rewinds the counter, so driving a previously built cluster A
    afterwards would reuse ids still live inside A (NIC rx state is keyed
    by msg_id).  Every experiment/scenario builds one cluster and drains
    it before the next exists; keep it that way, or move the counter into
    the cluster and thread it through every ``Message(...)`` site.
    """
    global _msg_ids
    _msg_ids = itertools.count()


@dataclass(slots=True)
class Message:
    """A network transaction (put/get/atomic/ack/...).

    Attributes mirror ``ptl_header_t`` (Appendix B.3) plus simulation
    bookkeeping.  ``payload`` is either a numpy uint8 array of ``length``
    bytes or None (modelled-only message).
    """

    source: int
    target: int
    length: int
    kind: str = "put"
    match_bits: int = 0
    offset: int = 0
    hdr_data: int = 0
    user_hdr: Any = None
    payload: Optional[np.ndarray] = None
    msg_id: int = field(default_factory=lambda: next(_msg_ids))
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative message length {self.length}")
        if self.payload is not None:
            import numpy as np

            self.payload = np.asarray(self.payload, dtype=np.uint8).ravel()
            if self.payload.size != self.length:
                raise ValueError(
                    f"payload size {self.payload.size} != declared length {self.length}"
                )


@dataclass(slots=True)
class Packet:
    """One MTU-sized piece of a message.

    ``seq`` numbers packets within the message; packet 0 is the header
    packet.  ``payload_offset`` is the byte offset of this packet's payload
    within the message payload — handlers use it to compute deposit
    locations (packets may be processed out of order, §2).
    """

    message: Message
    seq: int
    payload_offset: int
    payload_len: int
    is_header: bool

    @property
    def payload(self) -> Optional[np.ndarray]:
        """View of this packet's bytes within the message payload."""
        if self.message.payload is None:
            return None
        return self.message.payload[
            self.payload_offset : self.payload_offset + self.payload_len
        ]

    @property
    def wire_bytes(self) -> int:
        """Bytes occupying the wire.

        Like LogGOPSim we charge only payload bytes at G; per-packet framing
        overhead is folded into the latency/matching constants.  Header-only
        packets (zero-byte messages) still occupy one minimal slot.
        """
        return max(self.payload_len, 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "hdr" if self.is_header else "pay"
        return (
            f"<Packet msg={self.message.msg_id} seq={self.seq} {tag} "
            f"off={self.payload_offset} len={self.payload_len}>"
        )


def packetize(message: Message, mtu: int) -> list[Packet]:
    """Split a message into MTU-sized packets; packet 0 is the header packet.

    A zero-length message still produces a single header packet (pure
    control messages such as ACKs or rendezvous RTS).
    """
    if mtu <= 0:
        raise ValueError(f"mtu must be positive, got {mtu}")
    packets: list[Packet] = []
    if message.length == 0:
        return [Packet(message, seq=0, payload_offset=0, payload_len=0, is_header=True)]
    offset = 0
    for seq in range(-(-message.length // mtu)):
        chunk = min(mtu, message.length - offset)
        packets.append(
            Packet(
                message,
                seq=seq,
                payload_offset=offset,
                payload_len=chunk,
                is_header=(seq == 0),
            )
        )
        offset += chunk
    return packets
