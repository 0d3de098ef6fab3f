"""Ping-pong latency (§4.4.1, Fig. 3a–c).

Four protocol variants answer a ping of ``size`` bytes:

* **rdma** — the destination CPU polls for the completion of the incoming
  ping, matches it in software, and posts the pong (data fetched from host
  memory).
* **p4** — the pong is a pre-set-up Portals 4 triggered put: no CPU, but
  the ping is still deposited to host memory and the pong data is fetched
  from host memory by DMA.
* **spin_store** — sPIN store-and-forward: single-packet pings are buffered
  in HPU memory and answered from the device by the completion handler;
  larger pings take the default deposit path and are answered with a put
  from host.
* **spin_stream** — sPIN streaming: every payload packet is answered
  immediately with a put from device; data never commits to host memory.

The reported number is the half round-trip time observed by the origin's
CPU (event poll included), as in Fig. 3b/3c.
"""

from __future__ import annotations

from repro.campaign.registry import Param, scenario as campaign_scenario
from repro.core.api import PtlHPUAllocMem, spin_me
from repro.handlers_library import PONG_TAG, make_pingpong_handlers
from repro.machine.config import MachineConfig, config_by_name
from repro.network.packets import Message
from repro.portals.matching import MatchEntry
from repro.sim.session import Session

__all__ = ["PINGPONG_MODES", "pingpong_half_rtt_ns"]

PINGPONG_MODES = ("rdma", "p4", "spin_store", "spin_stream")
PING_TAG = 1


def _discard(_event) -> None:
    """Continuation for chained puts whose injection-done event is unused."""


def pingpong_half_rtt_ns(size: int, mode: str, config: MachineConfig | str,
                         timeline_sink: list | None = None) -> float:
    """Half round-trip time in nanoseconds for one ping-pong.

    ``timeline_sink``, when given a list, receives the cluster's
    :class:`~repro.des.trace.Timeline` (trace recording enabled) — used by
    the golden-trace determinism tests.
    """
    if isinstance(config, str):
        config = config_by_name(config)
    if mode not in PINGPONG_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    sess = Session.pair(config, trace=timeline_sink is not None)
    if timeline_sink is not None:
        timeline_sink.append(sess.timeline)
    env = sess.env
    origin, target = sess[0], sess[1]

    pong_eq = origin.new_eq()
    sess.install(0, MatchEntry(match_bits=PONG_TAG, length=size,
                               event_queue=pong_eq))

    if mode == "rdma":
        ping_eq = target.new_eq()
        sess.install(1, MatchEntry(match_bits=PING_TAG, length=size,
                                   event_queue=ping_eq))
        cpu = target.cpu

        # Chain form of the old responder process (poll the completion,
        # match in software, post the pong): identical charges on the same
        # core at the same timestamps, without the process scaffolding.
        def respond(_event):
            cpu.run_fn(cpu.params.poll_cost_ps, "poll",
                       lambda: cpu.run_fn(cpu.params.match_cost_ps, "match",
                                          lambda: target.host_put_fn(
                                              0, size, _discard,
                                              match_bits=PONG_TAG)))

        ping_eq.on_next(respond)
    elif mode == "p4":
        ct = target.new_counter()
        sess.install(1, MatchEntry(match_bits=PING_TAG, length=size, counter=ct))
        target.ni.triggered.arm(
            ct, 1,
            lambda: target.nic.send(
                Message(source=1, target=0, length=size, kind="put",
                        match_bits=PONG_TAG),
                from_host=True,
            ),
            "triggered pong",
        )
    else:
        hh, ph, ch = make_pingpong_handlers(streaming=(mode == "spin_stream"))
        sess.install(1, spin_me(
            match_bits=PING_TAG, length=size,
            header_handler=hh, payload_handler=ph, completion_handler=ch,
            hpu_memory=PtlHPUAllocMem(target, 8192),
        ))

    result = env.event()
    state = {"received": 0, "start": env.now}

    def pong_watch(ev):
        state["received"] += ev.length
        if state["received"] >= size:
            # Origin CPU observes the pong completion (poll cost, symmetric
            # with the responder side), then the measurement completes.
            origin.cpu.run_fn(
                origin.cpu.params.poll_cost_ps, "poll",
                lambda: result.succeed(env.now - state["start"]))
        else:
            pong_eq.on_next(pong_watch)

    pong_eq.on_next(pong_watch)
    origin.host_put_fn(1, size, _discard, match_bits=PING_TAG)
    rtt_ps = sess.run(until=result)
    sess.drain()  # drain remaining events
    sess.close()
    # pong_watch re-registers itself by name, so its closure cell holds
    # it: empty the cell, or the watcher and the cluster it reaches stay
    # in a reference cycle.
    del pong_watch
    return rtt_ps / 2 / 1000.0


@campaign_scenario(
    "pingpong",
    params=[
        Param("size", int, default=4096, help="message size in bytes"),
        Param("mode", str, default="spin_stream", choices=PINGPONG_MODES),
        Param("config", str, default="int", choices=("int", "dis")),
    ],
    description="Fig 3a-c ping-pong half-RTT across protocol variants",
    tiny={"size": 64, "mode": "spin_store"},
    # 16 points; multi-MiB messages so each job carries real simulation
    # work and a 4-worker sweep beats the serial run by wall-clock.
    sweep={"size": (4 << 20, 8 << 20, 16 << 20, 32 << 20),
           "mode": PINGPONG_MODES},
    tags=("figure", "latency"),
)
def _pingpong_scenario(size: int, mode: str, config: str) -> dict:
    return {"half_rtt_ns": pingpong_half_rtt_ns(size, mode, config)}
