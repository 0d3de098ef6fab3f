"""Simulator performance tracking.

* :mod:`repro.perf.meter` — counts kernel events across every Environment
  created inside a measurement window.
* :mod:`repro.perf.basket` — seven fixed scenario mixes (small-message,
  large-message, storage-trace, app-scale, congestion, kernel-ops,
  serving) measured by ``python -m repro.campaign perf``.  Their exact
  kernel-event and environment counts are pinned in
  ``tests/perf/test_perf.py``; host time is measured by ``perfbench/``.
"""

from repro.perf.meter import KernelMeter
from repro.perf.basket import BASKETS, run_baskets

__all__ = ["BASKETS", "KernelMeter", "run_baskets"]
