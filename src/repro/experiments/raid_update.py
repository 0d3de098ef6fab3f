"""RAID-5 update microbenchmark (Fig. 7c).

Contiguous client data of growing size is striped across four data nodes;
completion is the arrival of all ACKs after the parity node was updated.
"""

from __future__ import annotations

from repro.machine.config import MachineConfig
from repro.storage.raid import RaidCluster

__all__ = ["raid_update_completion_ns"]


def raid_update_completion_ns(
    size: int, mode: str, config: MachineConfig | str, ndata: int = 4
) -> float:
    """Completion time (ns) of one striped RAID-5 update of ``size`` bytes."""
    raid = RaidCluster(mode, config, ndata=ndata,
                       region_bytes=max(size, 4096), with_memory=False)
    env = raid.env

    def client():
        start = env.now
        finish = yield from raid.client_write(size)
        return finish - start

    proc = env.process(client())
    elapsed_ps = env.run(until=proc)
    raid.session.close()
    return elapsed_ps / 1000.0


from repro.campaign.registry import Param, scenario as campaign_scenario


@campaign_scenario(
    "raid_update",
    params=[
        Param("size", int, default=4096, help="client write size in bytes"),
        Param("mode", str, default="spin", choices=("rdma", "spin")),
        Param("config", str, default="int", choices=("int", "dis")),
        Param("ndata", int, default=4, help="data servers in the stripe"),
    ],
    description="Fig 7c RAID-5 update completion time",
    tiny={"size": 64},
    sweep={"size": (64, 4096, 32_768, 262_144), "mode": ("rdma", "spin"),
           "config": ("int", "dis")},
    tags=("figure", "storage"),
)
def _raid_scenario(size: int, mode: str, config: str, ndata: int) -> dict:
    return {"completion_ns": raid_update_completion_ns(size, mode, config,
                                                       ndata=ndata)}
