"""Parallel simulation-campaign subsystem.

The paper's evaluation is parameter sweeps; this package turns every
experiment, use case, and storage workload into a *scenario* with a typed
parameter space, expands sweeps into deterministic jobs, executes them
serially or across worker processes, and caches results keyed by
``(scenario, params, code_version)``.

Layers
------
``registry``   scenario registration + typed parameter spaces
``planner``    grid/point expansion → :class:`~repro.campaign.planner.Job`
``shard``      deterministic round-robin slices of one sweep (multi-host)
``executor``   serial / multiprocessing execution with per-job seeding
``cache``      append-only JSONL result store + shard merge
``__main__``   CLI (list / run / sweep / resume / merge / perf)

Quick start::

    from repro.campaign import run_grid
    res = run_grid("pingpong", {"size": (64, 4096), "mode": ("rdma",)},
                   workers=4, cache_path=".campaign/results.jsonl")
    for rec in res.records:
        print(rec["params"], rec["result"])
"""

from repro.campaign.cache import (
    CacheConflictError,
    ResultCache,
    merge_caches,
)
from repro.campaign.executor import (
    CampaignResult,
    run_grid,
    run_jobs,
    run_points,
)
from repro.campaign.planner import Job, plan_grid, plan_points
from repro.campaign.shard import ShardSpec, as_shard, shard_cache_name
from repro.campaign.registry import (
    Param,
    Scenario,
    ScenarioError,
    all_scenarios,
    get_scenario,
    load_builtins,
    scenario,
)
from repro.campaign.version import code_version

__all__ = [
    "CacheConflictError",
    "CampaignResult",
    "Job",
    "Param",
    "ResultCache",
    "Scenario",
    "ScenarioError",
    "ShardSpec",
    "all_scenarios",
    "as_shard",
    "code_version",
    "get_scenario",
    "load_builtins",
    "merge_caches",
    "plan_grid",
    "plan_points",
    "run_grid",
    "run_jobs",
    "run_points",
    "scenario",
    "shard_cache_name",
]
