"""Timed machine models: host CPU, host memory, DMA, and cluster assembly.

This package charges the costs of the paper's §4.2/§4.3 system model:

* host: eight 2.5 GHz Haswell-class cores, 51 ns DRAM latency, 150 GiB/s
  memory bandwidth;
* DMA: LogGP with o = g = 0 and (L, G) = (250 ns, 64 GiB/s) for the discrete
  (PCIe-attached) NIC or (50 ns, 150 GiB/s) for the integrated NIC;
* NIC: hardware matching — 30 ns full-list search for header packets, 2 ns
  CAM lookup for the rest — plus event/counter/ACK/triggered machinery.

Every machine's NIC is :class:`repro.core.nic.SpinNIC`; an ME that binds
no handlers runs the RDMA / Portals 4 baseline on it.
"""

from repro.machine.config import (
    HostParams,
    MachineConfig,
    NICParams,
    discrete_config,
    integrated_config,
)
from repro.machine.dma import DMAEngine
from repro.machine.host import HostCPU, HostMemory
from repro.machine.cluster import Cluster, Machine

__all__ = [
    "Cluster",
    "DMAEngine",
    "HostCPU",
    "HostMemory",
    "HostParams",
    "Machine",
    "MachineConfig",
    "NICParams",
    "discrete_config",
    "integrated_config",
]
