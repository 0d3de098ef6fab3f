"""The sPIN NIC runtime: handler dispatch, HPU scheduling, flow control.

Extends the baseline Portals NIC (Fig. 1's architecture): matched messages
whose ME carries a :class:`~repro.core.handlers.HandlerSet` are processed by
handlers on the HPU pool instead of being deposited blindly:

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

from repro.core.actions import HandlerContext
from repro.core.costmodel import HandlerCostModel
from repro.des.engine import Timeout
from repro.core.handlers import HandlerError, HandlerSet, ReturnCode
from repro.core.hpu import HPUPool
from repro.machine.nic import BaselineNIC, _MessageRx
from repro.network.packets import Packet
from repro.portals.events import PortalsEvent
from repro.portals.types import EventKind

__all__ = ["SpinNIC"]

#: Default cycle-cost model: frozen, so one instance serves every NIC.
_DEFAULT_COST_MODEL = HandlerCostModel()


class SpinNIC(BaselineNIC):
    """A NIC with sPIN handler processing units."""

    def __init__(self, env, machine, cost_model: Optional[HandlerCostModel] = None):
        super().__init__(env, machine)
        # The HPU pool is built on first use: scenarios that never bind a
        # handler (rdma/p4 protocols) skip the pool + store construction
        # entirely.  Building it schedules no kernel events, so laziness
        # cannot perturb traces.
        self._hpus: Optional[HPUPool] = None
        self.cost = cost_model or _DEFAULT_COST_MODEL
        self.handler_errors: list[tuple[str, ReturnCode]] = []
        self.flow_control_trips = 0
        self._ph_name = f"ph[{self.rank}]"

    @property
    def hpus(self) -> HPUPool:
        pool = self._hpus
        if pool is None:
            pool = self._hpus = HPUPool(
                self.env, self.params.hpu_count, rank=self.rank,
                timeline=self.timeline,
            )
        return pool

    # -- header path -------------------------------------------------------
    def _header_hook(self, state: _MessageRx, pkt: Packet) -> Optional[Generator]:
        match = state.match
        msg = state.message
        if (
            match is None
            or not match.matched
            or match.entry.spin is None
            or msg.kind not in ("put", "atomic")
        ):
            # No handler binding: plain deposit path, nothing timed to run.
            return None
        return self._spin_header(state, pkt)

    def _spin_header(self, state: _MessageRx, pkt: Packet) -> Generator:
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

    # -- per-packet path ---------------------------------------------------
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

    # -- completion path ----------------------------------------------------
    def _finish_message(self, state: _MessageRx) -> Generator:
        if state.mode == "baseline":
            yield from super()._finish_message(state)
            return
        msg = state.message
        handler_events = state.handler_events
        if handler_events:
            yield (handler_events[0] if len(handler_events) == 1
                   else self.env.all_of(handler_events))
        if state.dma_events:
            evs = state.dma_events
            yield evs[0] if len(evs) == 1 else self.env.all_of(evs)
            state.dma_events = []
        self.messages_received += 1
        if self._obs_msg_probe is not None:
            self._obs_msg_probe(self.rank, self.env.now, msg)

        hs: HandlerSet = state.hs
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
            # Writes issued by the completion handler must land before the
            # host sees the completion event.
            yield self.env.all_of(state.dma_events)
        if not state.pending:
            yield from self._complete_put(state)

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
        cost = self.cost
        ctx._cycles = cost.invoke_cycles
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
        ctx.charge(cost.return_cycles)
        # Inlined ctx.elapse().
        cycles, ctx._cycles = ctx._cycles, 0
        if cycles:
            ctx.total_cycles += cycles
            yield Timeout(self.env, self.params.hpu_cycles_to_ps(cycles))

        if self.cost.enforce_cycle_budget and not code.is_error:
            budget = self.cost.budget_for(
                getattr(args[0], "payload_len", 0) if args else 0,
                self.machine.ni.limits.max_cycles_per_byte,
            )
            if ctx.total_cycles > budget:
                # §7: kill over-budget handlers and move into flow control.
                code = ReturnCode.FAIL
                self._pt_for(state.message).disable()
                state.flow_ctl = True
                self.flow_control_trips += 1

        self.hpus.record(hpu_id, start, self.env.now, label)
        self.hpus.release(hpu_id)
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
