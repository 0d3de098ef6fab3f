"""repro-spin: a reproduction of *sPIN: High-performance streaming
Processing in the Network* (Hoefler et al., SC'17).

Public API tour:

* build a system: :class:`repro.machine.Cluster` with
  :func:`repro.machine.integrated_config` / ``discrete_config``; every
  machine's NIC is a :class:`repro.core.SpinNIC`, which runs MEs that
  bind no handlers as the RDMA / Portals 4 baseline;
* program the NIC: :func:`repro.core.connect` or :func:`repro.core.spin_me`
  with header/payload/completion handlers returning
  :class:`repro.core.ReturnCode`;
* run experiments: :mod:`repro.experiments` (microbenchmarks),
  :mod:`repro.apps` (full applications), :mod:`repro.storage` (RAID/SPC),
  :mod:`repro.usecases` (the §5.4 services);
* regenerate the paper: ``python -m repro.bench all``.
"""

from repro.core import (
    HandlerCostModel,
    HPUMemory,
    PtlHPUAllocMem,
    PtlHPUFreeMem,
    ReturnCode,
    SpinNIC,
    connect,
    spin_me,
)
from repro.machine import Cluster, Machine, discrete_config, integrated_config

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "HPUMemory",
    "HandlerCostModel",
    "Machine",
    "PtlHPUAllocMem",
    "PtlHPUFreeMem",
    "ReturnCode",
    "SpinNIC",
    "__version__",
    "connect",
    "discrete_config",
    "integrated_config",
    "spin_me",
]
