"""The NIC model: Portals 4 matching and deposit plus the sPIN runtime.

One class, :class:`SpinNIC`, models every NIC in the simulation.  sPIN
extends the Portals 4 matching entry with an optional handler sub-struct
(Appendix B.2); an ME without one is the RDMA / Portals 4 baseline the
paper compares against, so the baseline is this NIC running MEs that bind
no handlers.

The receive pipeline implements §4.2's hardware matching: a header packet
searches the full match list (30 ns) and installs a channel in a CAM; every
following packet of the message hits the CAM (2 ns).  Matching proceeds in
parallel with the network gap because the match unit is its own server.

Matched put data is DMA-written to host memory packet by packet; the
message's completion actions (events, counters — which may fire triggered
operations — and ACKs) run once all packets have arrived *and* all DMA
writes are durable.  Get requests are served by DMA-reading the matched
region and streaming a reply message back.

Matched puts whose ME carries a :class:`~repro.core.handlers.HandlerSet`
are processed by handlers on the HPU pool (Fig. 1) instead of being
deposited blindly:

1. the **header handler** runs exactly once, before anything else;
2. its return code steers the message — PROCEED takes the default deposit
   path, PROCESS_DATA invokes **payload handlers** per packet (parallel
   across HPUs), DROP discards the rest of the message;
3. after all payload handlers finished and the whole message arrived, the
   **completion handler** runs, then (unless a PENDING code was returned)
   the ME completes toward the host (counter, event, ACK).

Flow control (§3.2): when the HPU input queue exceeds the NIC's buffering,
the portal table entry is disabled, further packets are dropped and
accounted in ``dropped_bytes``, and the completion handler sees
``flow_control_triggered=True``.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Generator, Optional
from weakref import ref

from repro.core.actions import HandlerContext
from repro.core.costmodel import HANDLER_COSTS
from repro.core.handlers import HandlerError, HandlerSet, ReturnCode
from repro.core.hpu import HPUPool
from repro.des.engine import Environment, Event, Timeout
from repro.des.resources import ServeChain, Server
from repro.network.packets import Message, Packet
from repro.portals.events import PortalsEvent
from repro.portals.matching import MatchResult
from repro.portals.types import EventKind

__all__ = ["SpinNIC"]


class _MessageRx:
    """Receiver-side state for one in-flight message.

    ``mode`` steers every packet's deposit (see :class:`_RxChain`); the
    slots after it are the sPIN handler state, written only for messages
    whose ME binds handlers (``hs`` stays ``None`` otherwise).
    """

    __slots__ = (
        "message",
        "match",
        "bytes_seen",
        "packets_seen",
        "dma_events",
        "dropped_bytes",
        "finished",
        "mode",
        "hs",
        "header_done",
        "handler_events",
        "flow_ctl",
        "pending",
        "error_raised",
    )

    def __init__(self, message: Message, match: Optional[MatchResult]):
        self.message = message
        self.match = match
        self.bytes_seen = 0
        self.packets_seen = 0
        self.dma_events: list[Event] = []
        self.dropped_bytes = 0
        self.finished = False
        self.mode = "baseline"
        self.hs = None
        self.header_done: Optional[Event] = None
        self.handler_events: Optional[list[Event]] = None
        self.flow_ctl = False
        self.pending = False
        self.error_raised = False

    @property
    def complete(self) -> bool:
        return self.bytes_seen + self.dropped_bytes >= self.message.length


class _RxChain:
    """Callback-driven receive pipeline for one packet.

    The match-unit and memory-port requests are real FIFO requests on those
    servers; their service completions are scheduled callbacks.  After
    matching, every packet takes the one deposit, :meth:`_deposit`, which
    dispatches on the message's ``state.mode``:

    * ``"baseline"`` and ``"proceed"`` — the plain deposit (DMA write of
      put/atomic/reply payload; header-only get/ack just count);
    * ``"process"`` — the sPIN payload-handler dispatch;
    * ``"drop"`` — the bytes are accounted as dropped;
    * ``"undecided"`` — the header handler is still running: the packet
      is held by appending :meth:`_deposit` to ``state.header_done``'s
      callbacks, so it resumes, in arrival order, once the handler has
      set the mode.

    The header packet of a matched put or atomic whose ME binds handlers
    runs :meth:`SpinNIC._spin_header`, which deposits the header packet
    synchronously when the header handler ends.  A message's completion
    continues on :meth:`SpinNIC._finish_message`.  Both start through
    ``process_inline``, so handing over spends no kernel event.
    """

    __slots__ = ("nic", "pkt", "state", "req", "t0", "bw", "offset", "nbytes",
                 "data", "reply")

    def __init__(self, nic: "SpinNIC", pkt: Packet):
        self.nic = nic
        self.pkt = pkt
        self.state: Optional[_MessageRx] = None
        self.req = None
        self.t0 = 0
        self.bw = 0
        self.offset = 0
        self.nbytes = 0
        self.data = None
        self.reply = False

    def _begin(self) -> None:
        """Issue the match-unit lookup."""
        nic = self.nic
        self.t0 = nic.env._now
        self.req = req = nic.match_unit.request()
        if req.callbacks is None:
            self._match_granted(req)
        else:
            req.callbacks.append(self._match_granted)

    def _match_granted(self, _event: Event) -> None:
        nic = self.nic
        params = nic.params
        dur = params.header_match_ps if self.pkt.is_header else params.cam_lookup_ps
        nic.env.schedule_fn(dur, self._match_done)

    def _match_done(self) -> None:
        """Match-unit service done: account, release, dispatch the deposit."""
        nic = self.nic
        env = nic.env
        now = env._now
        pkt = self.pkt
        msg = pkt.message
        mu = nic.match_unit
        params = nic.params
        is_header = pkt.is_header
        dur = params.header_match_ps if is_header else params.cam_lookup_ps
        mu.busy_time += dur
        mu.jobs_served += 1
        mu.release(self.req)
        self.req = None
        if nic.timeline.enabled:
            nic.timeline.record(
                nic.rank, "NIC", self.t0, now, "match" if is_header else "cam"
            )
        if is_header:
            match = nic._match_message(msg)
            self.state = state = _MessageRx(msg, match)
            nic._rx[msg.msg_id] = state
            if (match is not None and match.matched
                    and match.entry.spin is not None
                    and msg.kind in ("put", "atomic")):
                # The ME binds handlers: the header handler runs first and
                # deposits this packet when it ends.
                env.process_inline(nic._spin_header(state, self),
                                   name=nic._rx_name)
                return
        else:
            self.state = state = nic._rx.get(msg.msg_id)
            if state is None:
                # Unknown flow: the header packet was lost in the network
                # (congestion tail-drop), so there is no channel to deposit
                # into — drop the packet, as real NICs do.
                nic.rx_orphan_packets += 1
                return
        self._deposit()

    def _deposit(self, _event: Optional[Event] = None) -> None:
        """The one per-packet deposit, dispatched on ``state.mode``.

        Also the ``header_done`` callback that resumes a held packet.
        """
        state = self.state
        mode = state.mode
        if mode == "process":
            # sPIN payload handlers: the dispatch itself is yield-free
            # (flow-control checks + HPU process spawn).
            self.nic._spin_payload(state, self.pkt)
            self._after_deposit()
            return
        if mode == "drop":
            state.dropped_bytes += self.pkt.payload_len
            self._after_deposit()
            return
        if mode == "undecided":
            # The header handler is still running: no payload may be
            # handled or deposited before it ends.
            state.header_done.callbacks.append(self._deposit)
            return
        # "baseline" and "proceed" both take the plain deposit below.
        nic = self.nic
        pkt = self.pkt
        msg = pkt.message
        if msg.kind in ("put", "atomic"):
            if state.match is None or not state.match.matched:
                state.dropped_bytes += pkt.payload_len
                nic._pt_for(msg).record_drop(pkt.payload_len)
                self._after_deposit()
                return
            entry = state.match.entry
            offset = entry.start + state.match.deposit_offset + pkt.payload_offset
            self.offset = offset if nic.memory is not None else 0
            self.reply = False
        elif msg.kind == "reply":
            md = nic.ni.mds.get(msg.meta.get("md_id", -1))
            base = (md.start if md else 0) + msg.meta.get("reply_offset", 0)
            self.offset = base + pkt.payload_offset
            self.reply = True
        elif msg.kind in ("get", "ack"):
            # Header-only kinds: nothing to deposit.
            state.bytes_seen += pkt.payload_len
            self._after_deposit()
            return
        else:
            raise ValueError(f"unknown message kind {msg.kind!r}")
        # -- the DMA write toward host memory (as DMAEngine.write) --
        self.data = pkt.payload
        self.nbytes = pkt.payload_len
        dma = nic.dma
        self.t0 = nic.env._now
        self.bw = dma._bw_ps(self.nbytes)
        self.req = req = dma.mem_port.request()
        if req.callbacks is None:
            self._mem_granted(req)
        else:
            req.callbacks.append(self._mem_granted)

    def _mem_granted(self, _event: Event) -> None:
        self.nic.env.schedule_fn(self.bw, self._mem_done)

    def _mem_done(self) -> None:
        """Memory-port service done: durability callback + bookkeeping."""
        nic = self.nic
        env = nic.env
        dma = nic.dma
        port = dma.mem_port
        port.busy_time += self.bw
        port.jobs_served += 1
        port.release(self.req)
        self.req = None
        nbytes = self.nbytes
        dma.bytes_written += nbytes
        if dma.timeline.enabled:
            msg_id = self.pkt.message.msg_id
            label = f"rx-reply m{msg_id}" if self.reply else f"rx m{msg_id}"
            dma.timeline.record(dma.rank, "DMA", self.t0, env._now, label)
        completed = Event(env)
        memory, offset, data = dma.memory, self.offset, self.data

        def land() -> None:
            if memory is not None and data is not None and nbytes:
                memory.write(offset, data)
            completed.succeed(env._now)

        env.schedule_fn(dma.latency_ps, land)
        state = self.state
        state.dma_events.append(completed)
        state.bytes_seen += nbytes
        self._after_deposit()

    def _after_deposit(self) -> None:
        state = self.state
        state.packets_seen += 1
        if state.complete and not state.finished:
            state.finished = True
            nic = self.nic
            nic.env.process_inline(nic._finish_message(state), name=nic._rx_name)


class _SendChain:
    """Callback-driven host-send staging pipeline for one message.

    Stages: the DMA request latency, the memory-port fill of the first
    packet (a real FIFO request), background staging of the remaining
    bytes (:class:`ServeChain`), then the fabric injection.  ``done``
    fires when the fabric has injected the last packet, with that time as
    its value.
    """

    __slots__ = ("nic", "msg", "done", "bw", "req")

    def __init__(self, nic: "SpinNIC", msg: Message):
        self.nic = nic
        self.msg = msg
        self.done = Event(nic.env)
        self.bw = 0
        self.req = None
        # Begin synchronously: the counter bump is not simulation-visible.
        nic.messages_sent += 1
        nic.env.schedule_fn(nic.dma.latency_ps, self._staged)

    def _staged(self) -> None:
        nic = self.nic
        first = min(self.msg.length, nic.loggp.mtu)
        self.bw = nic.params.dma_per_op_ps + round(first * nic.dma.G_eff)
        self.req = req = nic.mem_port.request()
        if req.callbacks is None:
            self._granted(req)
        else:
            req.callbacks.append(self._granted)

    def _granted(self, _event: Event) -> None:
        self.nic.env.schedule_fn(self.bw, self._filled)

    def _filled(self) -> None:
        nic = self.nic
        port = nic.mem_port
        port.busy_time += self.bw
        port.jobs_served += 1
        port.release(self.req)
        self.req = None
        rest = self.msg.length - min(self.msg.length, nic.loggp.mtu)
        if rest > 0:
            # Remaining bytes stream behind the wire; account their
            # memory-port occupancy without blocking injection.
            ServeChain(port, round(rest * nic.dma.G_eff))
        injected = nic._fabric().inject(self.msg)
        injected.callbacks.append(self._injected)

    def _injected(self, _event: Event) -> None:
        self.done.succeed(self.nic.env._now)


class SpinNIC:
    """A Portals 4 NIC with sPIN handler processing units."""

    #: Fault-injection hook (see :mod:`repro.faults`): when set on an
    #: instance, ``(label, code) -> code`` is consulted after each handler
    #: invocation.  A class-level ``None`` keeps the default path to a
    #: single identity test.
    _handler_fault = None

    #: Observer probe slots (see :mod:`repro.obs`), both neutral
    #: class-level ``None`` defaults set as *instance* attributes by an
    #: attached observer — pure readers, never scheduling kernel events:
    #:
    #: * ``_obs_msg_probe``: ``(rank, now_ps, message) -> None``, fired
    #:   when a received message completes (all packets arrived, DMA
    #:   durable, payload handlers done);
    #: * ``_obs_hpu_probe``: ``(rank, now_ps, waiting) -> None``, fired
    #:   after each payload-packet dispatch with the HPU input-queue depth
    #:   (the §3.2 flow-control signal).
    _obs_msg_probe = None
    _obs_hpu_probe = None

    def __init__(self, env: Environment, machine) -> None:
        self.env = env
        # The machine owns this NIC, so the NIC keeps it only weakly (for
        # the handler API's ``nic.machine``) and binds the siblings its hot
        # paths use directly.  The fabric holds ``on_packet`` in its
        # attachment table, so it too is reached through a weak reference,
        # once per sent message.
        self._machine = ref(machine)
        self._fabric = ref(machine.fabric)
        self.dma = machine.dma
        self.ni = machine.ni
        self.memory = machine.memory
        self.mem_port = machine.mem_port
        self.rank = machine.rank
        self.params = machine.config.nic
        self.loggp = machine.config.loggp
        self.timeline = machine.timeline
        #: Serializes match-unit work; pipelined with packet arrivals.
        self.match_unit = Server(env, f"match[{self.rank}]")
        self._rx: dict[int, _MessageRx] = {}
        self._rx_name = f"rx[{self.rank}]"
        self._ph_name = f"ph[{self.rank}]"
        self.messages_received = 0
        self.messages_sent = 0
        #: Non-header packets with no rx state (their header packet was
        #: dropped upstream by the congestion fabric).
        self.rx_orphan_packets = 0
        # The HPU pool is built on first use: runs that never bind a
        # handler (rdma/p4 protocols) skip the pool + store construction
        # entirely.  Building it schedules no kernel events, so laziness
        # cannot perturb traces.
        self._hpus: Optional[HPUPool] = None
        self.handler_errors: list[tuple[str, ReturnCode]] = []
        self.flow_control_trips = 0

    @property
    def machine(self):
        """The :class:`~repro.machine.cluster.Machine` this NIC belongs to."""
        return self._machine()

    @property
    def hpus(self) -> HPUPool:
        pool = self._hpus
        if pool is None:
            pool = self._hpus = HPUPool(
                self.env, self.params.hpu_count, rank=self.rank,
                timeline=self.timeline,
            )
        return pool

    @property
    def pending_rx(self) -> int:
        """In-flight receiver message states (``_MessageRx`` entries)."""
        return len(self._rx)

    @property
    def rx_stalled_messages(self) -> int:
        """Messages whose remaining payload can never arrive.

        A message whose header was matched but whose payload packets were
        tail-dropped by the congestion fabric stays incomplete forever —
        no retransmission in this model.  While the simulation is running
        an incomplete state may still be fed; once the DES has quiesced,
        every incomplete state counts here (and leaks unless reaped).
        """
        return sum(1 for state in self._rx.values() if not state.finished)

    def reap_stalled(self) -> int:
        """Drop rx states that never finished; returns how many.

        Call after the DES has drained: the silence is definitive, so the
        per-message state (match result, pending DMA events, payload
        buffers) is unreachable bookkeeping — exactly the leak this
        repairs.  Finished states are mid-completion continuations and are
        left alone.
        """
        stalled = [msg_id for msg_id, state in self._rx.items()
                   if not state.finished]
        for msg_id in stalled:
            del self._rx[msg_id]
        return len(stalled)

    # ------------------------------------------------------------------ RX --
    def on_packet(self, pkt: Packet) -> None:
        """Fabric delivery entry point (one pipeline per packet)."""
        # Begin synchronously: match-unit requests join the FIFO in
        # delivery order.
        _RxChain(self, pkt)._begin()

    def _match_message(self, msg: Message) -> Optional[MatchResult]:
        """Route the header through Portals matching (None for ack/reply)."""
        if msg.kind in ("ack", "reply"):
            return None
        pt_index = msg.meta.get("pt_index", 0)
        kind = "get" if msg.kind == "get" else "put"
        length = msg.meta.get("get_length", msg.length) if kind == "get" else msg.length
        return self.ni.match(
            pt_index,
            msg.source,
            msg.match_bits,
            kind=kind,
            length=length,
            requested_offset=msg.offset,
            header_meta={"hdr_data": msg.hdr_data, "user_hdr": msg.user_hdr},
        )

    # -- sPIN header path ---------------------------------------------------
    def _spin_header(self, state: _MessageRx, chain: _RxChain) -> Generator:
        """Run the header handler, set the message's mode, then deposit
        the header packet."""
        msg = state.message
        hs: HandlerSet = state.match.entry.spin
        hs.ensure_state()
        state.hs = hs
        state.mode = "undecided"
        state.handler_events = []
        state.header_done = header_done = self.env.event()

        if hs.header_handler is None:
            code = (
                ReturnCode.PROCESS_DATA
                if hs.payload_handler is not None
                else ReturnCode.PROCEED
            )
        else:
            code = yield from self._run_handler(
                state, "hh", hs.header_handler, msg
            )
        state.pending = code.is_pending
        if code.is_error or code.drops_message:
            state.mode = "drop"
        elif code.proceeds:
            state.mode = "proceed"
        elif code.processes_data:
            state.mode = "process"
        else:
            raise HandlerError(f"invalid header-handler return code {code}")
        header_done.succeed(state.mode)
        chain._deposit()

    # -- sPIN per-packet path -----------------------------------------------
    def _spin_payload(self, state: _MessageRx, pkt: Packet) -> None:
        """Dispatch one payload packet to the HPU pool (yield-free).

        Flow-control checks and the handler-process spawn are synchronous,
        so the RX chain's one deposit calls this inline — also for packets
        it held while the header handler ran, once that handler returns
        PROCESS_DATA.
        """
        # Packets without payload skip payload handlers.
        if pkt.payload_len == 0:
            return
        pt = self._pt_for(state.message)
        if not pt.enabled:
            state.dropped_bytes += pkt.payload_len
            state.flow_ctl = True
            pt.record_drop(pkt.payload_len)
            return
        if self.hpus.waiting >= self.params.max_pending_packets:
            # No HPU execution contexts: trip flow control (§3.2).
            state.dropped_bytes += pkt.payload_len
            state.flow_ctl = True
            self.flow_control_trips += 1
            pt.record_drop(pkt.payload_len)
            pt.disable()
            return
        state.bytes_seen += pkt.payload_len
        proc = self.env.process(
            self._payload_proc(state, pkt), name=self._ph_name
        )
        state.handler_events.append(proc)
        if self._obs_hpu_probe is not None:
            self._obs_hpu_probe(self.rank, self.env.now, self.hpus.waiting)

    def _payload_proc(self, state: _MessageRx, pkt: Packet) -> Generator:
        hs: HandlerSet = state.hs
        code = yield from self._run_handler(state, "ph", hs.payload_handler, pkt)
        if code.drops_message or code.is_error:
            # Payload DROP: this packet's bytes are discarded.
            state.bytes_seen -= pkt.payload_len
            state.dropped_bytes += pkt.payload_len

    # -- message completion ---------------------------------------------------
    def _finish_message(self, state: _MessageRx) -> Generator:
        """Completion continuation of the RX chain.

        Waits for the payload handlers (if any) and the DMA writes, then
        completes the message toward the host — through the completion
        handler when the ME binds handlers — and retires its rx state.
        """
        msg = state.message
        hs: Optional[HandlerSet] = state.hs
        handler_events = state.handler_events
        if handler_events:
            yield (handler_events[0] if len(handler_events) == 1
                   else self.env.all_of(handler_events))
        if state.dma_events:
            evs = state.dma_events
            # A 1-element AllOf is just its event; skip the extra hop.
            yield evs[0] if len(evs) == 1 else self.env.all_of(evs)
            state.dma_events = []
        self.messages_received += 1
        if self._obs_msg_probe is not None:
            self._obs_msg_probe(self.rank, self.env.now, msg)

        if hs is None:
            if msg.kind in ("put", "atomic"):
                yield from self._complete_put(state)
            elif msg.kind == "get":
                yield from self._serve_get(state)
            elif msg.kind == "reply":
                self._complete_initiator(msg, EventKind.REPLY)
            elif msg.kind == "ack":
                self._complete_initiator(msg, EventKind.ACK)
        else:
            if hs.completion_handler is not None:
                code = yield from self._run_handler(
                    state,
                    "ch",
                    hs.completion_handler,
                    state.dropped_bytes,
                    state.flow_ctl,
                )
                state.pending = state.pending or code.is_pending
            if state.dma_events:
                # Writes issued by the completion handler must land before
                # the host sees the completion event.
                yield self.env.all_of(state.dma_events)
            if not state.pending:
                yield from self._complete_put(state)
        del self._rx[msg.msg_id]

    def _complete_put(self, state: _MessageRx) -> Generator:
        msg = state.message
        match = state.match
        if match is None or not match.matched:
            return  # dropped: flow-control event was already raised
        entry = match.entry
        if entry.counter is not None:
            entry.counter.increment(1, nbytes=state.bytes_seen)
        if entry.event_queue is not None:
            kind = (
                EventKind.PUT_OVERFLOW
                if match.list_name == "overflow"
                else EventKind.PUT
            )
            entry.event_queue.push(
                PortalsEvent(
                    kind=kind,
                    initiator=msg.source,
                    match_bits=msg.match_bits,
                    length=msg.length,
                    offset=match.deposit_offset,
                    hdr_data=msg.hdr_data,
                    user_ptr=entry.user_ptr,
                    when_ps=self.env.now,
                    meta={"user_hdr": msg.user_hdr},
                )
            )
        if msg.meta.get("ack"):
            ack = Message(
                source=self.rank,
                target=msg.source,
                length=0,
                kind="ack",
                match_bits=msg.match_bits,
                meta={"md_id": msg.meta.get("md_id", -1), "acked_bytes": msg.length},
            )
            yield self.send(ack, from_host=False)

    def _serve_get(self, state: _MessageRx) -> Generator:
        msg = state.message
        match = state.match
        if match is None or not match.matched:
            return
        entry = match.entry
        nbytes = msg.meta.get("get_length", 0)
        src_offset = entry.start + msg.meta.get("get_offset", 0)
        data = yield from self.dma.read(
            src_offset, nbytes, label=f"get m{msg.msg_id}"
        )
        if entry.counter is not None:
            entry.counter.increment(1, nbytes=nbytes)
        if entry.event_queue is not None:
            entry.event_queue.push(
                PortalsEvent(
                    kind=EventKind.GET,
                    initiator=msg.source,
                    match_bits=msg.match_bits,
                    length=nbytes,
                    when_ps=self.env.now,
                    user_ptr=entry.user_ptr,
                )
            )
        reply = Message(
            source=self.rank,
            target=msg.source,
            length=nbytes,
            kind="reply",
            payload=data,
            match_bits=msg.match_bits,
            meta={
                "md_id": msg.meta.get("md_id", -1),
                "reply_offset": msg.meta.get("reply_offset", 0),
            },
        )
        yield self.send(reply, from_host=False)

    def _complete_initiator(self, msg: Message, kind: EventKind) -> None:
        md = self.ni.mds.get(msg.meta.get("md_id", -1))
        if md is None:
            return
        if md.counter is not None:
            md.counter.increment(1, nbytes=msg.meta.get("acked_bytes", msg.length))
        if md.event_queue is not None:
            md.event_queue.push(
                PortalsEvent(
                    kind=kind,
                    initiator=msg.source,
                    match_bits=msg.match_bits,
                    length=msg.length,
                    when_ps=self.env.now,
                )
            )

    # -- handler execution ------------------------------------------------
    def _run_handler(
        self, state: _MessageRx, label: str, fn, *args
    ) -> Generator[object, object, ReturnCode]:
        # Wait FIFO for a free HPU; ``waiting`` is the flow-control signal.
        hpus = self.hpus
        hpus._waiting += 1
        try:
            hpu_id = yield hpus._free.get()
        finally:
            hpus._waiting -= 1
        ctx = HandlerContext(self, state.hs, state, hpu_id)
        ctx._cycles = HANDLER_COSTS.invoke_cycles
        start = self.env._now
        try:
            result = fn(ctx, *args)
            if type(result) is GeneratorType or hasattr(result, "send"):
                code = yield from result  # generator handler
            else:
                code = result
            if code is None:
                code = ReturnCode.SUCCESS
            if not isinstance(code, ReturnCode):
                raise HandlerError(
                    f"handler returned {code!r}, expected a ReturnCode"
                )
        except HandlerError:
            code = ReturnCode.SEGV
        if self._handler_fault is not None:
            # Fault injection (repro.faults): a plan may replace the
            # return code with an error — the HPU "crashed" mid-message.
            code = self._handler_fault(label, code)
        ctx.charge(HANDLER_COSTS.return_cycles)
        # Inlined ctx.elapse().
        cycles, ctx._cycles = ctx._cycles, 0
        if cycles:
            ctx.total_cycles += cycles
            yield Timeout(self.env, self.params.hpu_cycles_to_ps(cycles))

        hpus.record(hpu_id, start, self.env.now, label)
        hpus.release(hpu_id)
        state.dma_events.extend(ctx.dma_completions)

        if code.is_error and not state.error_raised:
            # Only the first error is reported in the event queue (§B.3).
            state.error_raised = True
            self.handler_errors.append((label, code))
            entry = state.match.entry
            if entry.event_queue is not None:
                entry.event_queue.push(
                    PortalsEvent(
                        kind=EventKind.HANDLER_ERROR,
                        initiator=state.message.source,
                        match_bits=state.message.match_bits,
                        when_ps=self.env.now,
                        meta={"handler": label, "code": code.value},
                    )
                )
        return code

    # ------------------------------------------------------------------- TX --
    def send(self, msg: Message, from_host: bool = True) -> Event:
        """Queue a message for transmission; returns the injection-done event.

        ``from_host`` charges the source-side DMA staging (L + first-packet
        fill at the DMA rate) and streams the remaining bytes through the
        memory port in the background — NIC sends from device buffers
        (sPIN put-from-device, ACKs, get replies) skip all of that and hand
        the message straight to the fabric, no wrapper process needed.
        """
        if not from_host or msg.length == 0:
            self.messages_sent += 1
            return self._fabric().inject(msg)
        return _SendChain(self, msg).done

    # -- misc ------------------------------------------------------------------
    def _pt_for(self, msg: Message):
        """The portal table entry ``ni.match`` resolved for ``msg``."""
        return self.ni.pt(msg.meta.get("pt_index", 0))
