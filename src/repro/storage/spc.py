"""SPC trace tooling (§5.3).

The paper replays five traces from the Storage Performance Council [41]:
two OLTP traces from a large financial institution and three I/O traces
from a popular search engine.  Those traces are distributed under a
click-through license, so this module provides (per DESIGN.md's
substitution policy):

* :class:`SPCRecord`, one record of the published SPC trace format
  (``ASU,LBA,Size,Opcode,Timestamp``);
* synthetic generators reproducing the two workload families' published
  characteristics: *financial* is small-block, write-dominated (~77 %
  writes, 512 B–8 KiB, skewed hot region); *web search* is large-block,
  read-dominated (~99 % reads, 8–64 KiB, highly sequential);
* a closed-loop replayer over :class:`~repro.storage.raid.RaidCluster`
  that reports the trace processing time — the quantity whose RDMA→sPIN
  improvement the paper reports as 2.8 %–43.7 %.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.config import MachineConfig
from repro.storage.raid import RaidCluster

__all__ = [
    "SPCRecord",
    "generate_financial_trace",
    "generate_websearch_trace",
    "replay_trace_ns",
]

SECTOR = 512


@dataclass(frozen=True)
class SPCRecord:
    """One I/O in SPC trace format."""

    asu: int          # application storage unit
    lba: int          # logical block address (in sectors)
    size: int         # bytes, multiple of 512
    opcode: str       # "R" | "W"
    timestamp: float  # seconds from trace start

    def __post_init__(self) -> None:
        if self.opcode not in ("R", "W"):
            raise ValueError(f"bad opcode {self.opcode!r}")
        if self.size <= 0 or self.size % SECTOR:
            raise ValueError(f"size must be a positive multiple of {SECTOR}")
        if self.lba < 0 or self.timestamp < 0:
            raise ValueError("negative LBA or timestamp")


def generate_financial_trace(
    nops: int = 200, seed: int = 1, region_sectors: int = 1 << 20
) -> list[SPCRecord]:
    """Synthetic financial-OLTP trace: small, skewed, write-heavy."""
    import numpy as np

    rng = np.random.default_rng(seed)
    records = []
    t = 0.0
    hot = rng.integers(0, region_sectors // 8)  # hot region base
    for _ in range(nops):
        write = rng.random() < 0.77
        size = SECTOR * int(rng.choice([1, 2, 4, 8, 16], p=[0.2, 0.2, 0.35, 0.15, 0.1]))
        if rng.random() < 0.7:  # skew toward the hot region
            lba = int(hot + rng.integers(0, region_sectors // 16))
        else:
            lba = int(rng.integers(0, region_sectors))
        t += float(rng.exponential(0.0005))
        records.append(SPCRecord(asu=0, lba=lba, size=size,
                                 opcode="W" if write else "R", timestamp=t))
    return records


def generate_websearch_trace(
    nops: int = 200, seed: int = 2, region_sectors: int = 1 << 20
) -> list[SPCRecord]:
    """Synthetic web-search trace: large, sequential, read-dominated."""
    import numpy as np

    rng = np.random.default_rng(seed)
    records = []
    t = 0.0
    lba = int(rng.integers(0, region_sectors))
    for _ in range(nops):
        write = rng.random() < 0.01
        size = SECTOR * int(rng.choice([16, 32, 64, 128], p=[0.3, 0.35, 0.25, 0.1]))
        if rng.random() < 0.8:  # sequential run
            lba += size // SECTOR
        else:
            lba = int(rng.integers(0, region_sectors))
        lba %= region_sectors
        t += float(rng.exponential(0.001))
        records.append(SPCRecord(asu=0, lba=lba, size=size,
                                 opcode="W" if write else "R", timestamp=t))
    return records


def replay_trace_ns(
    records: list[SPCRecord],
    mode: str,
    config: MachineConfig | str,
    ndata: int = 4,
    region_bytes: int = 1 << 20,
    window: int = 8,
) -> float:
    """Closed-loop replay with ``window`` outstanding ops; total time in ns.

    Writes run the striped RAID-5 update protocol; reads fetch from the
    data server owning the block.  LBAs wrap into the servers' regions.
    Production storage clients keep many requests in flight — the window is
    what exposes the RDMA protocol's server-CPU serialization against
    sPIN's parallel HPU processing (the §5.3 speedups).
    """
    raid = RaidCluster(mode, config, ndata=ndata, region_bytes=region_bytes,
                       with_memory=False)
    env = raid.env
    from repro.des.resources import Resource

    slots = Resource(env, capacity=max(1, window))
    outstanding = []

    def one_op(rec: SPCRecord):
        req = slots.request()
        yield req
        try:
            byte_addr = rec.lba * SECTOR
            if rec.opcode == "W":
                chunk = -(-rec.size // ndata)
                offset = byte_addr % max(region_bytes - chunk, 1)
                yield from raid.client_write(rec.size, offset=offset)
            else:
                node = (byte_addr // SECTOR) % ndata
                offset = byte_addr % max(region_bytes - rec.size, 1)
                yield from raid.client_read(node, rec.size, offset=offset)
        finally:
            slots.release(req)

    def client():
        start = env.now
        for rec in records:
            outstanding.append(env.process(one_op(rec)))
        yield env.all_of(outstanding)
        return env.now - start

    proc = env.process(client())
    elapsed_ps = env.run(until=proc)
    raid.session.close()
    return elapsed_ps / 1000.0


from repro.campaign.registry import Param, scenario as campaign_scenario

_TRACE_FAMILIES = {
    "financial": generate_financial_trace,
    "websearch": generate_websearch_trace,
}


@campaign_scenario(
    "spc_replay",
    params=[
        Param("family", str, default="financial",
              choices=tuple(_TRACE_FAMILIES)),
        Param("trace_seed", int, default=11, help="trace generator seed"),
        Param("nops", int, default=40, help="I/Os to replay"),
        Param("mode", str, default="spin", choices=("rdma", "spin")),
        Param("config", str, default="int", choices=("int", "dis")),
    ],
    description="SPC trace replay over the RAID cluster (section 5.3)",
    tiny={"nops": 8},
    sweep={"family": ("financial", "websearch"), "mode": ("rdma", "spin"),
           "config": ("int", "dis")},
    tags=("storage", "trace"),
)
def _spc_replay_scenario(family: str, trace_seed: int, nops: int,
                         mode: str, config: str) -> dict:
    trace = _TRACE_FAMILIES[family](nops=nops, seed=trace_seed)
    return {"elapsed_ns": replay_trace_ns(trace, mode, config)}
