"""The benchmark's four workloads: fixed job lists derived from a seed.

Every workload is a closed loop with one job in flight, driven from a
single process with no worker pool.  A *pass* runs the workload's job
list once into a fresh campaign cache; a measured run makes a fixed
number of passes sized from its time budget.  The seed picks the order
of the job list and every scenario ``seed`` parameter, so one seed
always yields the same inputs (paper-figures has none to pick).  Why each workload
exists is recorded in ``BENCHMARK.json``.

This module imports nothing from ``repro``: ``run.py`` reads it before
any simulator code is loaded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["FIGURES", "LOOP", "WORKLOADS", "Workload", "job_list"]

LOOP = "closed loop, one job in flight, one process, no pool"

#: paper-figures tables: name -> (figure function, positional args).
FIGURES = {
    "fig3b": ("fig3_pingpong", ("int",)),
    "fig3c": ("fig3_pingpong", ("dis",)),
    "fig3d": ("fig3d_accumulate", ()),
    "fig4": ("fig4_hpus", ()),
    "fig5a": ("fig5a_broadcast", ("dis",)),
    "tab5c": ("tab5c_apps", ()),
    "fig7a": ("fig7a_datatype", ()),
    "fig7c": ("fig7c_raid", ()),
    "spc": ("spc_traces", ()),
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: "figures" (paper tables in-process), "points" (scenario points
    #: in-process) or "cli" (one cold ``python -m repro.campaign``
    #: process per job).
    kind: str
    #: Scenarios that get one ``--tiny`` warm-up job during setup.
    warmup: tuple[str, ...]
    #: Nominal seconds per pass on a 2-vCPU x86 host (CPython 3.11).  A run
    #: of ``--seconds S`` makes ``max(2, round(S / pass_s))`` passes, so the
    #: work per run, and with it the job count behind ``job_tail_ms``,
    #: does not depend on how fast the code under test is.  Only a host
    #: running far below nominal speed cuts a run short (see worker.py).
    pass_s: float

    def passes(self, seconds: float) -> int:
        return max(2, round(seconds / self.pass_s))


WORKLOADS = {
    "paper-figures": Workload(
        "paper-figures",
        "figures",
        ("pingpong", "accumulate", "linerate", "broadcast",
         "apps_matching", "datatype_recv", "raid_update", "spc_replay"),
        2.8,
    ),
    "congested-traffic": Workload(
        "congested-traffic",
        "points",
        ("incast_load", "permutation_traffic", "bursting_load",
         "burst_under_flap"),
        1.3,
    ),
    "kv-serving": Workload(
        "kv-serving",
        "points",
        ("kv_serving", "tenant_overload"),
        1.9,
    ),
    "cold-jobs": Workload(
        "cold-jobs",
        "cli",
        ("pingpong", "broadcast", "incast_load", "bursting_load",
         "lossy_pingpong", "kv_serving"),
        3.6,
    ),
}

#: Independently seeded repetitions of the in-process scenario points.
_REPEATS = {"congested-traffic": 6, "kv-serving": 4}
#: cold-jobs scenarios that take a ``seed`` parameter.
_SEEDED = {"incast_load", "bursting_load", "lossy_pingpong", "kv_serving"}


def _points(name: str, seed: int) -> list[tuple[str, dict]]:
    if name == "congested-traffic":
        base = [("incast_load", {}),
                ("permutation_traffic", {"routing": "ecmp"}),
                ("permutation_traffic", {"routing": "dmodk"}),
                ("bursting_load", {}),
                ("burst_under_flap", {})]
    else:
        # Request counts chosen so both scenarios take about as long per
        # job: job_p50_ms then sits inside one cluster of job times, not
        # on the gap between two.
        base = [("kv_serving", {"requests": 2000}),
                ("tenant_overload", {"requests": 700})]
    rng = random.Random(seed)
    return [(sc, dict(params, seed=rng.randrange(1, 2**31)))
            for _ in range(_REPEATS[name]) for sc, params in base]


def job_list(name: str, seed: int) -> list:
    """The workload's job list for ``seed``.

    * paper-figures: table names (keys of :data:`FIGURES`), seed-free;
    * congested-traffic / kv-serving: ``(scenario, params)`` points;
    * cold-jobs: ``(scenario, params)`` for ``campaign run --tiny``.
    """
    if name == "paper-figures":
        # Fixed points and a fixed order: the tables are deterministic, and
        # the order decides how the allocator fragments, so a seeded order
        # would make peak_rss_mib depend on the seed.
        return list(FIGURES)
    rng = random.Random(f"{name}:{seed}")
    if name == "cold-jobs":
        jobs = [(sc, {"seed": rng.randrange(1, 2**31)} if sc in _SEEDED
                 else {}) for sc in WORKLOADS[name].warmup]
    else:
        jobs = _points(name, rng.randrange(2**63))
    rng.shuffle(jobs)
    return jobs
