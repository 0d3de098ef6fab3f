"""Binomial-tree broadcast (§4.4.3, Fig. 5a).

Three implementations of the same binomial tree:

* **rdma** — every internal rank's CPU polls for the message, matches it,
  and posts the forwards to its children (o per send);
* **p4** — Portals 4 triggered operations: each internal rank pre-arms one
  triggered put per child (logarithmic NIC state, the scalability limit
  §4.4.3 notes), firing when the inbound counter reaches 1; data is
  fetched from host memory;
* **spin** — the streaming sPIN handler of C.3.3: every payload packet is
  forwarded from the device to all children as soon as it arrives
  (wormhole-style pipelining), with a non-blocking local deposit.

Latency = time until the *last* rank has the full message (its completion
event, i.e. data durable in host memory).
"""

from __future__ import annotations

from repro.core.api import PtlHPUAllocMem, spin_me
from repro.handlers_library import binomial_children, make_bcast_handlers
from repro.machine.config import MachineConfig, config_by_name
from repro.network.packets import Message
from repro.portals.matching import MatchEntry
from repro.sim.session import Session

__all__ = ["BCAST_MODES", "broadcast_latency_ns"]

BCAST_MODES = ("rdma", "p4", "spin")
BCAST_TAG = 11


def broadcast_latency_ns(
    nprocs: int, size: int, mode: str, config: MachineConfig | str
) -> float:
    """Broadcast completion latency (ns) from root post to last delivery."""
    if isinstance(config, str):
        config = config_by_name(config)
    if mode not in BCAST_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    with Session.fattree(nprocs, config=config) as sess:
        env = sess.env
        done = env.event()
        remaining = {"count": nprocs - 1}

        def rank_done(_ev=None):
            remaining["count"] -= 1
            if remaining["count"] == 0 and not done.triggered:
                done.succeed(env.now)

        for rank in range(1, nprocs):
            machine = sess[rank]
            eq = machine.new_eq()
            children = binomial_children(rank, nprocs)
            if mode == "rdma":
                sess.install(rank, MatchEntry(match_bits=BCAST_TAG, length=size,
                                              event_queue=eq))

                def forwarder(machine=machine, eq=eq, children=children):
                    yield from machine.wait_event(eq)
                    yield from machine.cpu.match()
                    for child in children:
                        yield from machine.host_put(child, size,
                                                    match_bits=BCAST_TAG)
                    rank_done()

                sess.process(forwarder())
            elif mode == "p4":
                ct = machine.new_counter()
                sess.install(rank, MatchEntry(match_bits=BCAST_TAG, length=size,
                                              counter=ct, event_queue=eq))
                for child in children:
                    machine.ni.triggered.arm(
                        ct, 1,
                        lambda machine=machine, child=child: machine.nic.send(
                            Message(source=machine.rank, target=child, length=size,
                                    kind="put", match_bits=BCAST_TAG),
                            from_host=True,
                        ),
                        f"fwd->{child}",
                    )
                eq.on_next(lambda ev: rank_done())
            else:  # spin
                hh, ph, ch = make_bcast_handlers(rank, nprocs, streaming=True,
                                                 match_bits=BCAST_TAG)
                sess.install(rank, spin_me(
                    match_bits=BCAST_TAG, length=size,
                    header_handler=hh, payload_handler=ph, completion_handler=ch,
                    event_queue=eq,
                    hpu_memory=PtlHPUAllocMem(machine, 256),
                ))
                eq.on_next(lambda ev: rank_done())

        def root():
            start = env.now
            for child in binomial_children(0, nprocs):
                yield from sess[0].host_put(child, size, match_bits=BCAST_TAG)
            finish = yield done
            return finish - start

        proc = sess.process(root())
        elapsed_ps = sess.run(until=proc)
        sess.drain()
        return elapsed_ps / 1000.0


from repro.campaign.registry import Param, scenario as campaign_scenario


@campaign_scenario(
    "broadcast",
    params=[
        Param("procs", int, default=16, help="process count"),
        Param("size", int, default=8, help="message size in bytes"),
        Param("mode", str, default="spin", choices=BCAST_MODES),
        Param("config", str, default="dis", choices=("int", "dis")),
    ],
    description="Fig 5a binomial broadcast latency",
    tiny={"procs": 4, "size": 8},
    sweep={"procs": (4, 16, 64, 256), "size": (8, 1 << 16),
           "mode": BCAST_MODES},
    tags=("figure", "collective"),
)
def _broadcast_scenario(procs: int, size: int, mode: str, config: str) -> dict:
    return {"latency_ns": broadcast_latency_ns(procs, size, mode, config)}
