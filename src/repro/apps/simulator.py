"""Schedule executor: runs GOAL traces over the simulated cluster.

This is the reproduction of the paper's full-application experiment
(§5.1, Table 5c): run the same trace under the CPU-progressed RDMA
protocol and under sPIN's fully offloaded matching, measure total runtime
(MPI_Init..MPI_Finalize equivalent) and report communication overhead and
speedup.  Each run builds its fat tree through
:meth:`~repro.sim.session.Session.fattree`, so it is traced and observable
like every other simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.goal import Schedule
from repro.machine.config import MachineConfig
from repro.runtime.msgmatch import MPIEndpoint
from repro.sim.session import Session

__all__ = ["AppResult", "matching_speedup", "run_schedule"]


@dataclass(frozen=True)
class AppResult:
    """Outcome of one schedule execution."""

    name: str
    protocol: str
    total_ns: float
    comm_fraction: float   # 1 - compute/total, averaged over ranks
    messages: int
    copies: int            # CPU copies performed by the matching layer
    rendezvous_stalls: int

    @property
    def comm_percent(self) -> float:
        return 100.0 * self.comm_fraction


def run_schedule(
    schedule: Schedule,
    protocol: str,
    config: MachineConfig | str = "dis",
    eager_threshold: int = 16384,
) -> AppResult:
    """Execute a schedule under one matching protocol."""
    nprocs = schedule.nprocs
    with Session.fattree(nprocs, config=config) as session:
        env = session.env
        endpoints = [
            MPIEndpoint(session[r], protocol, eager_threshold=eager_threshold)
            for r in range(nprocs)
        ]
        finish_ps = [0] * nprocs

        def rank_proc(rank: int):
            ep = endpoints[rank]
            machine = session[rank]
            outstanding = []
            for op in schedule.ranks.get(rank, []):
                if op.kind == "calc":
                    yield from machine.cpu.run(op.duration_ps, "app-calc")
                elif op.kind == "send":
                    req = yield from ep.send(op.peer, op.nbytes, op.tag)
                    outstanding.append(req)
                elif op.kind == "recv":
                    req = yield from ep.recv(op.peer, op.nbytes, op.tag)
                    outstanding.append(req)
                else:  # waitall
                    yield from ep.wait_all(outstanding)
                    outstanding = []
            if outstanding:
                yield from ep.wait_all(outstanding)
            finish_ps[rank] = env.now

        procs = [env.process(rank_proc(r), name=f"app[{r}]")
                 for r in range(nprocs)]
        session.run(until=env.all_of(procs))
        session.drain()

    total_ps = max(finish_ps) or 1
    comm_fractions = [
        max(0.0, 1.0 - schedule.calc_ps(r) / total_ps) for r in range(nprocs)
    ]
    return AppResult(
        name=schedule.name,
        protocol=protocol,
        total_ns=total_ps / 1000.0,
        comm_fraction=sum(comm_fractions) / nprocs,
        messages=schedule.message_count,
        copies=sum(ep.copies for ep in endpoints),
        rendezvous_stalls=sum(ep.rendezvous_stalls for ep in endpoints),
    )


def matching_speedup(
    schedule: Schedule, config: MachineConfig | str = "dis",
    eager_threshold: int = 16384,
) -> dict:
    """Table 5c row: baseline overhead + sPIN offloading speedup."""
    base = run_schedule(schedule, "rdma", config, eager_threshold)
    offl = run_schedule(schedule, "spin", config, eager_threshold)
    return {
        "app": schedule.name,
        "messages": schedule.message_count,
        "ovhd_percent": base.comm_percent,
        "speedup_percent": 100.0 * (base.total_ns - offl.total_ns) / base.total_ns,
        "baseline": base,
        "offloaded": offl,
    }


from repro.campaign.registry import Param, scenario as campaign_scenario


@campaign_scenario(
    "apps_matching",
    params=[
        Param("app", str, default="MILC",
              choices=("MILC", "POP", "coMD", "Cloverleaf")),
        Param("nprocs", int, default=16),
        Param("iters", int, default=3),
        Param("eager_threshold", int, default=16384),
    ],
    description="Table 5c full-application offloaded-matching speedup",
    tiny={"nprocs": 4, "iters": 1},
    sweep={"app": ("MILC", "POP", "coMD", "Cloverleaf")},
    tags=("table", "apps"),
)
def _apps_matching_scenario(app: str, nprocs: int, iters: int,
                            eager_threshold: int) -> dict:
    from repro.apps.tracegen import APP_TRACES

    gen = APP_TRACES[app][0]
    row = matching_speedup(gen(nprocs=nprocs, iters=iters),
                           eager_threshold=eager_threshold)
    return {
        "messages": row["messages"],
        "ovhd_percent": row["ovhd_percent"],
        "speedup_percent": row["speedup_percent"],
    }
