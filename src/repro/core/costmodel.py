"""Handler cycle-cost model — the gem5 stand-in.

The paper times each handler execution with gem5 on a 2.5 GHz in-order
ARM Cortex-A15 (IPC = 1, single-cycle scratchpad, §4.2) and feeds the
result back into the network simulation.  Handlers are 10–500 simple
instructions, so their execution time is an instruction count divided by
the clock.  This module defines that accounting:

* fixed costs: handler invocation (handlers start "within a cycle after a
  packet arrived", their context is preloaded), handler return, and a fixed
  overhead per Ptl* action (argument marshalling + device command);
* variable costs: handler code charges explicit cycles via
  :meth:`~repro.core.actions.HandlerContext.charge` /
  ``charge_per_byte`` — the per-byte constants for each paper handler are
  documented in :mod:`repro.handlers_library`.  Only the XOR and
  accumulate constants are cross-checked against the mini-ISA interpreter
  in :mod:`repro.hpu_isa` (``tests/hpu_isa``); the others are not.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HANDLER_COSTS", "HandlerCostModel"]


@dataclass(frozen=True)
class HandlerCostModel:
    """Fixed cycle charges for handler execution on an HPU."""

    #: Cycles to start a handler (context preloaded; §4.1 "handlers require
    #: no initialization, loading, or other boot activities").
    invoke_cycles: int = 2
    #: Cycles for the handler's return/exit path.
    return_cycles: int = 1
    #: Fixed cycles per Ptl* handler action (argument setup + doorbell).
    action_cycles: int = 10
    #: Cycles per HPU-local CAS / fetch-add (hardware instruction, §B.6).
    hpu_atomic_cycles: int = 2


#: The one cost model every NIC charges (frozen, so it is shared).
HANDLER_COSTS = HandlerCostModel()
