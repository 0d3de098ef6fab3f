"""Remote accumulate (§4.4.2, Fig. 3d).

An array of complex numbers is sent to the destination and multiplied into
an equally-sized destination array:

* **rdma** (≡ Portals 4 here) — the NIC deposits the operand into a
  temporary buffer; the destination CPU polls, then reads both arrays,
  multiplies, and writes the result back: 2 N-sized reads plus 2 N-sized
  writes of host memory traffic.
* **spin** — each payload handler DMA-fetches the destination slice,
  multiplies on the HPU, and DMA-writes it back: N read + N written, and
  the per-packet DMA round trips pipeline across HPUs.

Completion time = simulated time until the result is durable in destination
memory (measured from the initiator's post).
"""

from __future__ import annotations

from repro.campaign.registry import Param, scenario as campaign_scenario
from repro.core.api import PtlHPUAllocMem, spin_me
from repro.handlers_library import ACCUMULATE_CYCLES_PER_BYTE, make_accumulate_handlers
from repro.machine.config import MachineConfig, config_by_name
from repro.portals.matching import MatchEntry
from repro.sim.session import Session

__all__ = ["accumulate_completion_ns"]

ACC_TAG = 7


def accumulate_completion_ns(size: int, mode: str, config: MachineConfig | str,
                             timeline_sink: list | None = None) -> float:
    """Completion time (ns) of one remote accumulate of ``size`` bytes.

    ``timeline_sink``, when given a list, receives the cluster's
    :class:`~repro.des.trace.Timeline` (trace recording enabled).
    """
    if isinstance(config, str):
        config = config_by_name(config)
    if mode not in ("rdma", "spin"):
        raise ValueError(f"unknown mode {mode!r}")
    with Session.pair(config, trace=timeline_sink is not None) as sess:
        if timeline_sink is not None:
            timeline_sink.append(sess.timeline)
        env = sess.env
        origin, target = sess[0], sess[1]
        done = env.event()

        if mode == "rdma":
            eq = target.new_eq()
            sess.install(1, MatchEntry(match_bits=ACC_TAG, length=size,
                                       event_queue=eq))

            def consumer():
                yield from target.wait_event(eq)
                # Read operand + destination, write destination: the paper's
                # "two N-sized read and two N-sized write transactions" minus
                # the NIC's deposit (already charged on arrival) = 3 passes.
                yield from target.cpu.touch(size, passes=3, label="acc-mem")
                yield from target.cpu.compute_cycles(
                    size * ACCUMULATE_CYCLES_PER_BYTE, label="acc-fma"
                )
                done.succeed(env.now)

            sess.process(consumer())
        else:
            hh, ph, ch = make_accumulate_handlers(pong=False)
            eq = target.new_eq()
            sess.install(1, spin_me(
                match_bits=ACC_TAG, length=size,
                header_handler=hh, payload_handler=ph,
                event_queue=eq,
                hpu_memory=PtlHPUAllocMem(target, 4096),
            ))
            eq.on_next(lambda ev: done.succeed(env.now))

        def producer():
            start = env.now
            yield from origin.host_put(1, size, match_bits=ACC_TAG)
            finish = yield done
            return finish - start

        proc = sess.process(producer())
        elapsed_ps = sess.run(until=proc)
        sess.drain()
        return elapsed_ps / 1000.0


@campaign_scenario(
    "accumulate",
    params=[
        Param("size", int, default=4096, help="operand size in bytes"),
        Param("mode", str, default="spin", choices=("rdma", "spin")),
        Param("config", str, default="int", choices=("int", "dis")),
    ],
    description="Fig 3d remote accumulate completion time",
    tiny={"size": 64},
    sweep={"size": (8, 512, 4096, 32_768, 262_144),
           "mode": ("rdma", "spin"), "config": ("int", "dis")},
    tags=("figure",),
)
def _accumulate_scenario(size: int, mode: str, config: str) -> dict:
    return {"completion_ns": accumulate_completion_ns(size, mode, config)}
