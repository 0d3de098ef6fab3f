"""The paper's handler codes (Appendix C.3 and §5.4), in the Python API.

Each handler set mirrors the corresponding C code; per-byte cycle charges
encode the instruction counts of the C loops on the in-order HPU.  Only
the XOR and accumulate charges are cross-checked against the mini-ISA
interpreter in :mod:`repro.hpu_isa.programs` (``tests/hpu_isa``); the
others are not:

============  =====================================================  ===========
handler set   inner loop                                             cycles/byte
============  =====================================================  ===========
pingpong      none (pure forwarding)                                 0
accumulate    complex multiply: 4 mul + 2 add + 4 ld/st per 8 B      1.5
bcast         none (pure forwarding)                                 0
ddtvec        per-block offset arithmetic (≈20 instr per block)      —
raid (xor)    word XOR: ld + ld + xor + st per 4 B                   1.0
kv insert     bounded chain walk: 12 + 8 per step, ≤ 4 steps         —
============  =====================================================  ===========

The RAID-5 handlers (C.3.5) need per-message state and stripe locks, so
they live with their cluster in :mod:`repro.storage.raid`; this module
keeps their XOR cost and :func:`xor_bytes`.

Notes on intentional deviations from the appendix listings (documented per
DESIGN.md's substitution rules):

* ``bcast``: the listing forwards packets but never writes them to host
  memory; we add a non-blocking deposit so every rank actually receives the
  data (the deposit overlaps forwarding and does not change the critical
  path shape).
* ``raid primary`` (in :mod:`repro.storage.raid`): the listing DMA-writes
  the XOR *diff* over the stored block; a storage node must store the
  **new** data, so we write ``data`` and send the diff to the parity
  node — the traffic and timing are identical.
* complex multiply: the listing's imaginary part has a sign typo; we use
  the correct complex product (verified against numpy).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from repro.core.handlers import ReturnCode

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ACCUMULATE_CYCLES_PER_BYTE",
    "XOR_CYCLES_PER_BYTE",
    "COPY_CYCLES_PER_BYTE",
    "DDT_BLOCK_CYCLES",
    "KV_WALK_BUDGET",
    "kv_hash",
    "make_accumulate_handlers",
    "make_bcast_handlers",
    "make_ddtvec_handlers",
    "make_kv_insert_handler",
    "make_pingpong_handlers",
]

#: Complex multiply-accumulate: ~12 instructions per 8-byte complex pair.
ACCUMULATE_CYCLES_PER_BYTE = 1.5
#: Word-wise XOR: ld, ld, xor, st per 32-bit word.
XOR_CYCLES_PER_BYTE = 1.0
#: Word-wise copy into HPU memory: ld + st per 32-bit word.
COPY_CYCLES_PER_BYTE = 0.5
#: Per-block bookkeeping in the vector-datatype handler.
DDT_BLOCK_CYCLES = 20
#: KV insert header handler: chain-walk steps before deferring to the host.
KV_WALK_BUDGET = 4

PONG_TAG = 10


# --------------------------------------------------------------------------
# C.3.1 Ping-pong
# --------------------------------------------------------------------------
def make_pingpong_handlers(streaming: bool = True, pong_match_bits: int = PONG_TAG):
    """Handlers for the sPIN ping-pong (C.3.1).

    *streaming* mirrors the ``STREAMING`` compile-time flag: when True,
    single-/multi-packet messages are answered per packet from the device;
    when False (store mode), single-packet messages are buffered in HPU
    memory and answered from the device by the completion handler, larger
    messages take the default deposit path and are answered with a put from
    host memory.  In store mode a ping that carries bytes is echoed byte for
    byte from HPU memory; a modelled (payload-free) ping writes nothing
    there and gets a payload-free pong of the same length, cycles and
    timing, so it never touches the HPU arena (nor loads numpy).
    """

    def header_handler(ctx, h):
        ctx.charge(6)  # compare + two stores
        info = ctx.state.vars
        info["source"] = h.source
        info["length"] = h.length
        mtu = ctx.nic.ni.limits.max_payload_size
        if streaming:
            info["stream"] = True
            return ReturnCode.PROCESS_DATA  # payload handler replies per packet
        info["stream"] = False
        if h.length <= mtu:
            # Store mode, single packet: buffer in HPU memory, reply from
            # device after the message completed.
            return ReturnCode.PROCESS_DATA
        return ReturnCode.PROCEED  # deposit to host; completion replies

    def payload_handler(ctx, p):
        info = ctx.state.vars
        if info["stream"]:
            yield from ctx.put_from_device(
                p.payload,
                target=info["source"],
                match_bits=pong_match_bits,
                nbytes=p.payload_len,
            )
            return ReturnCode.SUCCESS
        # Store mode (single packet): copy into HPU memory.  A modelled
        # (payload-free) packet is charged the same copy but stores nothing.
        ctx.charge_per_byte(p.payload_len, COPY_CYCLES_PER_BYTE)
        if p.payload is not None:
            ctx.state.write(64, p.payload)
            info["stored_len"] = p.payload_len
        return ReturnCode.SUCCESS

    def completion_handler(ctx, dropped_bytes, flow_control_triggered):
        info = ctx.state.vars
        ctx.charge(4)
        if info["stream"]:
            return ReturnCode.SUCCESS
        mtu = ctx.nic.ni.limits.max_payload_size
        if info["length"] <= mtu:
            stored_len = info.pop("stored_len", None)
            data = (ctx.state.read(64, stored_len)
                    if stored_len is not None else None)
            yield from ctx.put_from_device(
                data,
                target=info["source"],
                match_bits=pong_match_bits,
                nbytes=info["length"],
            )
        else:
            yield from ctx.put_from_host(
                0, info["length"], target=info["source"],
                match_bits=pong_match_bits,
            )
        return ReturnCode.SUCCESS

    return header_handler, payload_handler, completion_handler


# --------------------------------------------------------------------------
# C.3.2 Accumulate
# --------------------------------------------------------------------------
def complex_multiply_bytes(dest: np.ndarray, incoming: np.ndarray) -> np.ndarray:
    """dest ⊙ incoming as complex64 pairs over raw bytes (the HPU kernel)."""
    import numpy as np

    n = min(dest.size, incoming.size) // 8 * 8
    if n == 0:
        return dest[:0]
    a = dest[:n].view(np.complex64)
    b = incoming[:n].view(np.complex64)
    return (a * b).view(np.uint8)


def make_accumulate_handlers(pong: bool = False, pong_match_bits: int = PONG_TAG):
    """Handlers for the remote accumulate (C.3.2).

    Each payload handler fetches the destination slice from host memory,
    multiplies element-wise (complex pairs), writes the product back, and —
    in ping-pong mode — returns the slice from the device.
    """

    def header_handler(ctx, h):
        ctx.charge(4)
        if pong:
            ctx.state.vars["source"] = h.source
        return ReturnCode.PROCESS_DATA

    def payload_handler(ctx, p):
        buf = yield from ctx.dma_from_host_b(p.payload_offset, p.payload_len)
        ctx.charge_per_byte(p.payload_len, ACCUMULATE_CYCLES_PER_BYTE)
        if buf is not None and p.payload is not None:
            result = complex_multiply_bytes(buf, p.payload)
            out = buf.copy()
            out[: result.size] = result
        else:
            out = None
        yield from ctx.dma_to_host_b(out, p.payload_offset, nbytes=p.payload_len)
        if pong:
            yield from ctx.put_from_device(
                out,
                target=ctx.state.vars["source"],
                match_bits=pong_match_bits,
                nbytes=p.payload_len,
            )
        return ReturnCode.SUCCESS

    return header_handler, payload_handler, None


# --------------------------------------------------------------------------
# C.3.3 Broadcast (binomial tree)
# --------------------------------------------------------------------------
def binomial_children(my_rank: int, nprocs: int) -> list[int]:
    """Forwarding targets of ``my_rank`` in the paper's binomial loop.

    ``for half = p/2; half >= 1; half /= 2: if rank % (2*half) == 0 →
    send to rank+half`` — bounds-checked for non-power-of-two P.
    """
    children = []
    half = 1
    while half < nprocs:
        half <<= 1
    half >>= 1
    while half >= 1:
        if my_rank % (2 * half) == 0 and my_rank + half < nprocs:
            children.append(my_rank + half)
        half >>= 1
    return children


def make_bcast_handlers(my_rank: int, nprocs: int, streaming: bool = True,
                        match_bits: int = PONG_TAG):
    """Handlers for the sPIN broadcast (C.3.3): forward, then deposit."""

    def header_handler(ctx, h):
        ctx.charge(6)
        info = ctx.state.vars
        info["length"] = h.length
        mtu = ctx.nic.ni.limits.max_payload_size
        if not streaming and h.length > mtu:
            info["stream"] = False
            return ReturnCode.PROCEED  # deposit; completion forwards from host
        info["stream"] = True
        return ReturnCode.PROCESS_DATA

    def payload_handler(ctx, p):
        # Forward this packet down the binomial tree, from the device.
        for child in binomial_children(my_rank, nprocs):
            ctx.charge(4)  # loop + modulo test
            yield from ctx.put_from_device(
                p.payload, target=child, match_bits=match_bits,
                nbytes=p.payload_len,
            )
        # Deposit locally (overlaps further forwarding).
        yield from ctx.dma_to_host_nb(p.payload, p.payload_offset,
                                      nbytes=p.payload_len)
        return ReturnCode.SUCCESS

    def completion_handler(ctx, dropped_bytes, flow_control_triggered):
        info = ctx.state.vars
        ctx.charge(4)
        if not info["stream"]:
            for child in binomial_children(my_rank, nprocs):
                ctx.charge(4)
                yield from ctx.put_from_host(
                    0, info["length"], target=child, match_bits=match_bits
                )
        return ReturnCode.SUCCESS

    return header_handler, payload_handler, completion_handler


# --------------------------------------------------------------------------
# C.3.4 Strided (vector) datatype
# --------------------------------------------------------------------------
def make_ddtvec_handlers(blocksize: int, stride: int, start: int = 0):
    """Payload handler depositing a vector datatype (C.3.4).

    ``blocksize`` bytes of every ``stride``-byte period are real data
    (MPI vector semantics: stride = distance between block starts).  Each
    payload handler computes, for every block its packet covers, the target
    host offset and issues one DMA write (Fig. 6).
    """
    if blocksize <= 0 or stride < blocksize:
        raise ValueError("need blocksize > 0 and stride >= blocksize")

    def payload_handler(ctx, p):
        first_seg = p.payload_offset // blocksize
        last_seg = (p.payload_offset + p.payload_len - 1) // blocksize
        offset_in_packet = 0
        for seg in range(first_seg, last_seg + 1):
            ctx.charge(DDT_BLOCK_CYCLES)
            offset_in_block = (p.payload_offset + offset_in_packet) % blocksize
            host_offset = start + seg * stride + offset_in_block
            size = min(
                blocksize - offset_in_block, p.payload_len - offset_in_packet
            )
            chunk = (
                p.payload[offset_in_packet : offset_in_packet + size]
                if p.payload is not None
                else None
            )
            yield from ctx.dma_to_host_b(chunk, host_offset, nbytes=size)
            offset_in_packet += size
        return ReturnCode.SUCCESS

    return None, payload_handler, None


def unpack_vector_reference(
    packed: np.ndarray, blocksize: int, stride: int, out_size: int
) -> np.ndarray:
    """Reference (numpy) unpack of a vector datatype, for verification."""
    import numpy as np

    out = np.zeros(out_size, dtype=np.uint8)
    nblocks = packed.size // blocksize
    for j in range(nblocks):
        out[j * stride : j * stride + blocksize] = packed[
            j * blocksize : (j + 1) * blocksize
        ]
    rest = packed.size - nblocks * blocksize
    if rest:
        out[nblocks * stride : nblocks * stride + rest] = packed[nblocks * blocksize :]
    return out


# --------------------------------------------------------------------------
# §5.4 Key-value store insert
# --------------------------------------------------------------------------
def kv_hash(key: bytes, buckets: int, salt: bytes = b"") -> int:
    """blake2b hash of ``key`` into ``[0, buckets)``.

    Unsalted it is H1 (picks the server); with ``salt=b"bucket2"`` it is
    H2 (picks the bucket) — the §5.4 two-level hashing.
    """
    digest = hashlib.blake2b(key, digest_size=8, salt=salt).digest()
    return int.from_bytes(digest, "little") % buckets


def make_kv_insert_handler(table: dict, counters: dict):
    """The §5.4 insert header handler over one server's bucket table.

    ``h.user_hdr`` carries ``bucket``, ``key`` and ``value``.  The handler
    walks the bucket's chain for at most :data:`KV_WALK_BUDGET` steps
    (12 cycles plus 8 per step) and links the ``(key, value)`` record.  A
    longer chain is handed to the host CPU, which pays one DRAM latency
    per chain entry plus one, so the NIC never backs up the network.
    ``counters["nic_inserts"]`` and ``counters["host_fallback"]`` count the
    two outcomes.
    """

    def insert_header_handler(ctx, h):
        user = h.user_hdr
        chain = table[user["bucket"]]
        steps = min(len(chain), KV_WALK_BUDGET)
        ctx.charge(12 + 8 * steps)
        if len(chain) >= KV_WALK_BUDGET:
            counters["host_fallback"] += 1
            machine = ctx.nic.machine

            def host_side():
                yield from machine.cpu.run(
                    machine.config.host.dram_latency_ps * (len(chain) + 1),
                    "kv-host-insert",
                )
                chain.append((user["key"], user["value"]))

            ctx.env.process(host_side())
            return ReturnCode.DROP
        chain.append((user["key"], user["value"]))
        counters["nic_inserts"] += 1
        return ReturnCode.DROP

    return insert_header_handler


# --------------------------------------------------------------------------
# C.3.5 Reed-Solomon / RAID-5
# --------------------------------------------------------------------------
def xor_bytes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = min(a.size, b.size)
    return a[:n] ^ b[:n]
