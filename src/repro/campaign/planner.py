"""Sweep planner: expand parameter grids into deterministic job lists.

A :class:`Job` is the unit of campaign work: one scenario evaluated at one
point of its parameter space, with a seed derived deterministically from
``(scenario, params, base_seed)`` so the same sweep always replays the
same randomness regardless of worker count or execution order, and a cache
key derived from ``(scenario, params, code_version)`` so results survive
process restarts but invalidate when the code changes.

Both planners guarantee a **stable total order** over their jobs —
:func:`plan_grid` expands the cartesian product with the last axis
fastest (deterministic for a given grid mapping), :func:`plan_points`
keeps the caller's point order.  That order is the contract
:mod:`repro.campaign.shard` slices: shard ``i`` of ``K`` takes jobs with
index ``i (mod K)``, so K hosts planning the same sweep partition it
identically without coordinating.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.campaign.registry import Scenario, ScenarioError, get_scenario
from repro.campaign.version import code_version

__all__ = [
    "Job",
    "cache_key",
    "canonical_params",
    "job_seed",
    "plan_grid",
    "plan_points",
]


def canonical_params(params: Mapping[str, Any]) -> str:
    """Stable JSON encoding of a parameter dict (sorted keys)."""
    return json.dumps(dict(params), sort_keys=True, separators=(",", ":"))


def job_seed(scenario: str, params: Mapping[str, Any], base_seed: int = 0) -> int:
    """Deterministic 63-bit per-job seed."""
    blob = f"{scenario}|{canonical_params(params)}|{base_seed}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def cache_key(scenario: str, params: Mapping[str, Any],
              version: Optional[str] = None) -> str:
    """Cache key binding a parameter point to the code that runs it."""
    version = version if version is not None else code_version()
    blob = f"{scenario}|{canonical_params(params)}|{version}".encode()
    return hashlib.sha256(blob).hexdigest()[:24]


@dataclass(frozen=True)
class Job:
    """One scenario evaluation at one parameter point."""

    scenario: str
    params: tuple[tuple[str, Any], ...]  # sorted (name, value) pairs
    seed: int
    key: str

    def describe(self) -> str:
        ps = " ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.scenario}({ps})"


def _make_job(sc: Scenario, point: Mapping[str, Any], base_seed: int,
              version: Optional[str]) -> Job:
    params = sc.resolve(point)
    return Job(
        scenario=sc.name,
        params=tuple(sorted(params.items())),
        seed=job_seed(sc.name, params, base_seed),
        key=cache_key(sc.name, params, version),
    )


def plan_grid(
    scenario_name: str,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    base_seed: int = 0,
    overrides: Optional[Mapping[str, Any]] = None,
    version: Optional[str] = None,
) -> list[Job]:
    """Expand a parameter grid into jobs (cartesian product, grid order).

    ``grid`` maps param names to value sequences; axes iterate with the
    *last* axis fastest, matching nested-loop order.  Omitted params take
    their defaults (or ``overrides``).  With no grid at all, the
    scenario's registered default sweep is used.
    """
    sc = get_scenario(scenario_name)
    if grid is None:
        grid = sc.sweep
    if not grid:
        raise ScenarioError(
            f"scenario {scenario_name!r} declares no default sweep; "
            f"pass an explicit grid"
        )
    axes = []
    for name, values in grid.items():
        p = sc.param(name)
        values = list(values)
        if not values:
            raise ScenarioError(f"grid axis {name!r} is empty")
        axes.append((name, [p.coerce(v) for v in values]))
    jobs = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        point = dict(overrides or {})
        point.update({name: value for (name, _), value in zip(axes, combo)})
        jobs.append(_make_job(sc, point, base_seed, version))
    return jobs


def plan_points(
    scenario_name: str,
    points: Sequence[Mapping[str, Any]],
    base_seed: int = 0,
    version: Optional[str] = None,
) -> list[Job]:
    """Plan an explicit list of parameter points (non-grid sweeps)."""
    sc = get_scenario(scenario_name)
    return [_make_job(sc, point, base_seed, version) for point in points]
