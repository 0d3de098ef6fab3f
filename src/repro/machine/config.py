"""Machine configuration presets (paper §4.2 and §4.3).

Two NIC attachments are modelled:

* **discrete** ("dis") — PCIe 4.0 x32: DMA latency 250 ns, 64 GiB/s
  (G ≈ 15.6 ps/B);
* **integrated** ("int") — on-chip, memory-controller attached: DMA latency
  50 ns, full memory bandwidth 150 GiB/s (G ≈ 6.7 ps/B).

Host: eight 2.5 GHz cores, 8 MiB cache (not modelled explicitly), 51 ns DRAM
latency, 150 GiB/s.  NIC: four 2.5 GHz ARM Cortex-A15-class HPUs with
single-cycle scratchpad (k = 1), hardware matching at 30 ns per header packet
and 2 ns per CAM hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.des.engine import ns
from repro.network.loggp import LogGPParams, NetworkParams

__all__ = [
    "HostParams",
    "MachineConfig",
    "NICParams",
    "discrete_config",
    "integrated_config",
]


@dataclass(frozen=True)
class HostParams:
    """Host CPU and memory-system parameters."""

    cores: int = 8
    clock_ghz: float = 2.5
    dram_latency_ps: int = ns(51)
    mem_G_ps_per_byte: float = 6.7          # 150 GiB/s
    #: Time for a polling CPU to observe a NIC completion (one DRAM round
    #: trip for the completion-queue entry).
    poll_cost_ps: int = ns(51)
    #: CPU-side MPI matching cost per message (queue walk + bookkeeping);
    #: comparable to the NIC's 30 ns hardware matching, software is slower.
    match_cost_ps: int = ns(60)
    #: Haswell cores are wide out-of-order; relative to the in-order A15
    #: HPUs (IPC = 1) we credit the host with this many instructions/cycle.
    ipc: float = 2.0

    def cycles_to_ps(self, cycles: float) -> int:
        """Convert a host instruction count to picoseconds (IPC-adjusted)."""
        return max(0, round(cycles / (self.clock_ghz * self.ipc) * 1_000))


@dataclass(frozen=True)
class NICParams:
    """NIC microarchitecture parameters."""

    attachment: str = "discrete"            # "discrete" | "integrated"
    dma_latency_ps: int = ns(250)
    dma_G_ps_per_byte: float = 15.6         # 64 GiB/s
    header_match_ps: int = ns(30)
    cam_lookup_ps: int = ns(2)
    hpu_count: int = 4
    hpu_clock_ghz: float = 2.5
    scratchpad_cycles: int = 1              # k: HPU memory access cost
    #: Packets that may wait for an HPU before flow control trips (§3.2).
    max_pending_packets: int = 256
    #: Per-descriptor DMA engine overhead (doorbell + descriptor fetch),
    #: charged once per transfer on the engine.  This is what makes many
    #: tiny transfers slow (Fig 7a's small-block regime).
    dma_per_op_ps: int = ns(10)

    def hpu_cycles_to_ps(self, cycles: float) -> int:
        """Convert HPU cycles to picoseconds (IPC = 1 per §4.2)."""
        return max(0, round(cycles / self.hpu_clock_ghz * 1_000))


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to instantiate one simulated machine + network."""

    host: HostParams = field(default_factory=HostParams)
    nic: NICParams = field(default_factory=NICParams)
    network: NetworkParams = field(default_factory=NetworkParams)
    #: Default host memory arena per process, bytes (numpy-backed).
    host_memory_bytes: int = 16 * 1024 * 1024

    @property
    def loggp(self) -> LogGPParams:
        return self.network.loggp

    def with_nic(self, **kwargs) -> "MachineConfig":
        return replace(self, nic=replace(self.nic, **kwargs))

    def with_host(self, **kwargs) -> "MachineConfig":
        return replace(self, host=replace(self.host, **kwargs))

    def with_network(self, **kwargs) -> "MachineConfig":
        """Copy with some :class:`NetworkParams` fields replaced (radix,
        link queue depth, routing policy, switch/wire delays)."""
        return replace(self, network=replace(self.network, **kwargs))


#: Cross-pod endpoint latency in the 36-port fat tree (5 switches +
#: 6 wires): the worst-case pair the microbenchmarks use.
CROSS_POD_LATENCY_PS = NetworkParams().latency_for_hops(5)


#: Memoized name → config instances.  MachineConfig is frozen (as are its
#: parts), so handing every caller the same object is safe — and experiment
#: code resolves "int"/"dis" once per simulated session, which adds up in
#: construction-heavy perf baskets.
_CONFIG_CACHE: dict = {}


def config_by_name(name: str, **nic_overrides) -> MachineConfig:
    """'int' / 'dis' → the §4.3 machine configurations."""
    if not nic_overrides:
        cached = _CONFIG_CACHE.get(name)
        if cached is not None:
            return cached
    if name in ("int", "integrated"):
        config = integrated_config(**nic_overrides)
    elif name in ("dis", "discrete"):
        config = discrete_config(**nic_overrides)
    else:
        raise ValueError(f"unknown config {name!r} (use 'int' or 'dis')")
    if not nic_overrides:
        _CONFIG_CACHE[name] = config
    return config


def discrete_config(**nic_overrides) -> MachineConfig:
    """The paper's discrete ("dis") NIC: PCIe-attached, L=250 ns, 64 GiB/s."""
    nic = NICParams(
        attachment="discrete",
        dma_latency_ps=ns(250),
        dma_G_ps_per_byte=15.6,
        **nic_overrides,
    )
    return MachineConfig(nic=nic)


def integrated_config(**nic_overrides) -> MachineConfig:
    """The paper's integrated ("int") NIC: on-chip, L=50 ns, 150 GiB/s."""
    nic = NICParams(
        attachment="integrated",
        dma_latency_ps=ns(50),
        dma_G_ps_per_byte=6.7,
        **nic_overrides,
    )
    return MachineConfig(nic=nic)
