"""Strided datatype receive (§5.2, Fig. 7a).

A 4 MiB message is unpacked at the destination into a vector layout
⟨start, stride, blocksize, count⟩ with stride = 2 × blocksize:

* **rdma** — the message lands in a contiguous bounce buffer; the CPU then
  performs the strided unpack copy (the marshalling overhead Schneider et
  al. identified: up to 80 % of communication time).  The per-byte unpack
  cost and the per-block loop overhead keep RDMA around 9–12 GiB/s
  regardless of block size.
* **spin** — the C.3.4 payload handler computes every covered block's
  offset and DMAs it straight to its final location: for blocks ≥ a few
  hundred bytes the deposit runs at line rate (~46 GiB/s paper, Fig. 7a);
  tiny blocks are dominated by per-descriptor DMA overhead.
"""

from __future__ import annotations

from repro.core.api import PtlHPUAllocMem, spin_me
from repro.machine.config import MachineConfig, config_by_name
from repro.portals.matching import MatchEntry
from repro.sim.session import Session
from repro.handlers_library import make_ddtvec_handlers

__all__ = ["datatype_recv_completion_ns"]

DDT_TAG = 21
#: CPU-side strided unpack: ~0.28 instructions/byte on the IPC-2 host —
#: together with the 2 memory passes this lands the RDMA curve at the
#: paper's ≈9–12 GiB/s.
UNPACK_CYCLES_PER_BYTE = 0.28
#: Loop bookkeeping per block on the host CPU.
UNPACK_CYCLES_PER_BLOCK = 2


def datatype_recv_completion_ns(
    message_bytes: int,
    blocksize: int,
    mode: str,
    config: MachineConfig | str,
    stride: int | None = None,
) -> float:
    """Completion time (ns) of receiving+unpacking a strided message."""
    if isinstance(config, str):
        config = config_by_name(config)
    if mode not in ("rdma", "spin"):
        raise ValueError(f"unknown mode {mode!r}")
    stride = 2 * blocksize if stride is None else stride
    with Session.pair(config) as sess:
        env = sess.env
        origin, target = sess[0], sess[1]
        done = env.event()
        nblocks = -(-message_bytes // blocksize)

        if mode == "rdma":
            eq = target.new_eq()
            sess.install(1, MatchEntry(match_bits=DDT_TAG, length=message_bytes,
                                       event_queue=eq))

            def unpacker():
                yield from target.wait_event(eq)
                yield from target.cpu.compute_cycles(
                    nblocks * UNPACK_CYCLES_PER_BLOCK
                    + message_bytes * UNPACK_CYCLES_PER_BYTE,
                    label="unpack-loop",
                )
                yield from target.cpu.touch(message_bytes, passes=2,
                                            label="unpack-copy")
                done.succeed(env.now)

            sess.process(unpacker())
        else:
            _, ph, _ = make_ddtvec_handlers(blocksize=blocksize, stride=stride)
            eq = target.new_eq()
            sess.install(1, spin_me(
                match_bits=DDT_TAG, length=message_bytes,
                payload_handler=ph, event_queue=eq,
                hpu_memory=PtlHPUAllocMem(target, 256),
            ))
            eq.on_next(lambda ev: done.succeed(env.now))

        def sender():
            start = env.now
            yield from origin.host_put(1, message_bytes, match_bits=DDT_TAG)
            finish = yield done
            return finish - start

        proc = sess.process(sender())
        elapsed_ps = sess.run(until=proc)
        sess.drain()
        return elapsed_ps / 1000.0


def effective_bandwidth_gib(message_bytes: int, completion_ns: float) -> float:
    """GiB/s figure-of-merit used by Fig. 7a's annotations."""
    return message_bytes / (completion_ns * 1e-9) / (1 << 30)


from repro.campaign.registry import Param, scenario as campaign_scenario


@campaign_scenario(
    "datatype_recv",
    params=[
        Param("message", int, default=4 << 20, help="message size in bytes"),
        Param("blocksize", int, default=4096, help="vector block size"),
        Param("mode", str, default="spin", choices=("rdma", "spin")),
        Param("config", str, default="int", choices=("int", "dis")),
    ],
    description="Fig 7a strided datatype receive completion/bandwidth",
    tiny={"message": 1 << 16, "blocksize": 1024},
    sweep={"blocksize": (256, 1024, 4096, 32_768, 262_144),
           "mode": ("rdma", "spin")},
    tags=("figure", "datatypes"),
)
def _datatype_scenario(message: int, blocksize: int, mode: str, config: str) -> dict:
    completion = datatype_recv_completion_ns(message, blocksize, mode, config)
    return {"completion_ns": completion,
            "gib_s": effective_bandwidth_gib(message, completion)}
