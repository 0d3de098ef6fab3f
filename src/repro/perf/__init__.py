"""Simulator performance tracking.

:mod:`repro.perf.meter` counts kernel events across every Environment
created inside a measurement window.  The simulation is deterministic, so
the counts are exact: ``tests/test_behaviour_contract.py`` pins each
scenario point's kernel events and environments next to its result and
trace digests.  Host time is measured by ``perfbench/``.
"""

from repro.perf.meter import KernelMeter

__all__ = ["KernelMeter"]
