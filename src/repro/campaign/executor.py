"""Campaign executor: run planned jobs serially or across worker processes.

Guarantees:

* **Determinism** — every job re-seeds ``random`` and ``numpy.random``
  from its planner-assigned seed before the scenario runs, so a sweep
  produces byte-identical results whether it runs serially, with N
  workers, or resumed across several invocations.  numpy is not imported
  for this: if a job is the first to import it, it is seeded with that
  job's seed the moment it loads.
* **Caching** — with a cache attached, finished jobs are skipped on
  re-run (key = scenario + params + code version) and fresh results are
  appended as they complete, so a killed campaign resumes where it died.
* **Isolation** — parallel jobs run in forked worker processes; one
  simulation per process at a time, no shared simulator state.
"""

from __future__ import annotations

import importlib.util
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.planner import Job, plan_grid, plan_points
from repro.campaign.registry import get_scenario
from repro.campaign.shard import ShardSpec, as_shard
from repro.campaign.version import code_version

__all__ = ["CampaignResult", "JobTimeoutError", "run_grid", "run_jobs",
           "run_observed", "run_points"]


class JobTimeoutError(RuntimeError):
    """A job's dedicated subprocess exceeded its wall-clock budget."""


@dataclass
class CampaignResult:
    """Outcome of one campaign invocation."""

    jobs: list[Job]
    #: One record per job, in job (planner) order.
    records: list[dict] = field(default_factory=list)
    executed: int = 0
    cached: int = 0
    wall_s: float = 0.0

    def results(self) -> list[dict]:
        """Just the scenario result dicts, in job order."""
        return [rec["result"] for rec in self.records]

    def lookup(self, **params: Any) -> dict:
        """Result of the unique record matching all given param values."""
        matches = [
            rec["result"] for rec in self.records
            if all(rec["params"].get(k) == v for k, v in params.items())
        ]
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} records match {params!r} (need exactly 1)"
            )
        return matches[0]

    def summary(self) -> str:
        return (
            f"{len(self.jobs)} jobs: {self.executed} executed, "
            f"{self.cached} cached, {self.wall_s:.2f}s wall"
        )


class _SeedNumpyOnImport:
    """One-shot ``sys.meta_path`` finder: seeds numpy.random as numpy loads.

    On the top-level ``numpy`` import it takes itself off ``sys.meta_path``
    and wraps the real loader's ``exec_module`` for that one call, so the
    module is seeded with ``seed`` before any importer can draw from it.
    """

    seed = 0

    def find_spec(self, name, path=None, target=None):
        if name != "numpy":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        if spec is None:
            return None
        loader = spec.loader

        def exec_module(module):
            del loader.exec_module
            loader.exec_module(module)
            module.random.seed(self.seed % 2**32)

        loader.exec_module = exec_module
        return spec


#: Process-wide, like the RNG state it seeds.
_NUMPY_SEEDER = _SeedNumpyOnImport()


def _seed_rngs(seed: int) -> None:
    random.seed(seed)
    np = sys.modules.get("numpy")
    if np is not None:
        np.random.seed(seed % 2**32)
    else:
        _NUMPY_SEEDER.seed = seed
        if _NUMPY_SEEDER not in sys.meta_path:
            sys.meta_path.insert(0, _NUMPY_SEEDER)


def _execute_job(payload: tuple) -> dict:
    """Worker entry point: run one job and return its cache record.

    Takes a plain tuple (picklable under any start method) and looks the
    scenario up in the worker's own registry, so closures never cross the
    process boundary.
    """
    scenario_name, params, seed, key, version = payload
    sc = get_scenario(scenario_name)
    _seed_rngs(seed)
    t0 = time.perf_counter()
    result = sc.fn(**dict(params))
    return {
        "key": key,
        "scenario": scenario_name,
        "params": dict(params),
        "seed": seed,
        "code_version": version,
        "result": result,
        "elapsed_s": round(time.perf_counter() - t0, 6),
    }


def _mp_context():
    # Imported here, not at module scope: a serial run never needs it.
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _attempt_with_retries(payload: tuple, retries: int,
                          backoff_s: float) -> dict:
    """Run one job, retrying transient failures with exponential backoff.

    The payload — and with it the planner-assigned seed and cache key —
    is reused verbatim on every attempt, so a retried job lands in the
    cache indistinguishable from a first-try success.
    """
    for attempt in range(retries + 1):
        try:
            return _execute_job(payload)
        except Exception:
            if attempt >= retries:
                raise
            if backoff_s > 0:
                time.sleep(backoff_s * (2 ** attempt))
    raise AssertionError("unreachable")  # pragma: no cover


def _execute_job_retrying(bundle: tuple) -> dict:
    """Pool worker entry point carrying its own retry policy.

    Retries run *inside* the (daemonic) worker — it cannot fork a fresh
    subprocess, but re-running the scenario in-process is exactly as
    deterministic thanks to the per-attempt RNG reseed.
    """
    payload, retries, backoff_s = bundle
    return _attempt_with_retries(payload, retries, backoff_s)


def _subprocess_target(conn, payload: tuple) -> None:  # pragma: no cover
    try:
        conn.send(("ok", _execute_job(payload)))
    except BaseException as exc:
        conn.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _run_bounded_parallel(ctx, payloads: Sequence[tuple], workers: int,
                          timeout_s: float, retries: int, backoff_s: float,
                          done: Callable[[dict], None]) -> None:
    """Process-per-job scheduler: up to ``workers`` bounded jobs at once.

    Used whenever a job timeout is requested, serial runs included
    (``workers=1``) — each job needs a process the scheduler may
    terminate, which a shared Pool cannot offer.  A job past its budget is
    terminated and, once its retries are spent, raises
    :class:`JobTimeoutError`.  Jobs start in planner order; completion
    order feeds ``done`` as results arrive (like ``imap_unordered``).  A
    failed job re-enqueues the same payload and starts next, so with one
    worker a retried job runs before any later one.
    """
    from multiprocessing.connection import wait

    queue = [(payload, 0) for payload in reversed(payloads)]
    live: list = []  # (proc, parent_conn, payload, attempt, deadline)
    try:
        while queue or live:
            while queue and len(live) < workers:
                payload, attempt = queue.pop()
                parent, child = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_subprocess_target,
                                   args=(child, payload))
                proc.start()
                child.close()
                live.append(
                    (proc, parent, payload, attempt,
                     time.monotonic() + timeout_s))
            wait(
                [parent for _, parent, _, _, _ in live],
                timeout=max(0.0, min(d for *_, d in live) - time.monotonic()),
            )
            still_live = []
            for proc, parent, payload, attempt, deadline in live:
                failure: Optional[str] = None
                timed_out = False
                if parent.poll():
                    try:
                        status, value = parent.recv()
                    except EOFError:
                        status, value = "err", "subprocess died"
                    if status == "ok":
                        proc.join()
                        parent.close()
                        done(value)
                        continue
                    failure = value
                elif time.monotonic() >= deadline:
                    proc.terminate()
                    failure = f"exceeded {timeout_s:g}s"
                    timed_out = True
                else:
                    still_live.append(
                        (proc, parent, payload, attempt, deadline))
                    continue
                proc.join()
                parent.close()
                if attempt >= retries:
                    name, params = payload[0], dict(payload[1])
                    raise (JobTimeoutError if timed_out else RuntimeError)(
                        f"job {name} {params!r} failed: {failure}")
                if backoff_s > 0:
                    time.sleep(backoff_s * (2 ** attempt))
                queue.append((payload, attempt + 1))
            live = still_live
    finally:
        for proc, parent, *_ in live:
            proc.terminate()
            proc.join()
            parent.close()


def run_jobs(
    jobs: Sequence[Job],
    workers: int = 1,
    cache_path: Optional[str | Path] = None,
    progress: Optional[Callable[[str], None]] = None,
    shard: Optional[ShardSpec | str] = None,
    read_caches: Sequence[str | Path] = (),
    retries: int = 0,
    retry_backoff_s: float = 0.5,
    job_timeout_s: Optional[float] = None,
) -> CampaignResult:
    """Execute jobs, consulting/filling the cache; returns ordered records.

    ``shard`` (a :class:`ShardSpec` or ``"i/K"`` string) restricts the run
    to one deterministic round-robin slice of the planned job list — the
    planner's stable total order makes the K slices disjoint and their
    union exactly the serial sweep.  ``read_caches`` are consulted (but
    never written) before ``cache_path``; a sharded host passes the
    canonical merged cache here so already-merged jobs execute nothing.

    ``retries`` re-runs a job that raised (or timed out) up to N more
    times with exponential backoff (``retry_backoff_s * 2**attempt``);
    every attempt reuses the planner's payload verbatim, so the seed and
    cache key of a retried job are unchanged.  ``job_timeout_s`` runs
    each job in a dedicated subprocess and terminates it past the budget
    (:class:`JobTimeoutError` — absorbed by the retry budget, if any).
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if job_timeout_s is not None and job_timeout_s <= 0:
        raise ValueError(f"job_timeout_s must be > 0, got {job_timeout_s}")
    t_start = time.perf_counter()
    version = code_version()
    shard_spec = as_shard(shard)
    jobs = list(jobs)
    if shard_spec is not None:
        if cache_path is None:
            # A sharded run exists to fill a cache for `merge`; without
            # one its results would be computed and thrown away.
            raise ValueError(
                f"sharded run ({shard_spec}) requires a cache_path")
        jobs = shard_spec.select(jobs)
    cache = ResultCache(cache_path) if cache_path is not None else None
    known: dict[str, dict] = {}
    for extra in read_caches:
        known.update(ResultCache(extra).load())
    if cache is not None:
        known.update(cache.load())

    by_key: dict[str, dict] = {}
    pending: list[Job] = []
    seen_keys: set[str] = set()
    for job in jobs:
        if job.key in known:
            by_key[job.key] = known[job.key]
        elif job.key not in seen_keys:
            pending.append(job)
        seen_keys.add(job.key)

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    payloads = [
        (job.scenario, job.params, job.seed, job.key, version) for job in pending
    ]
    executed = 0

    def record(rec: dict) -> None:
        nonlocal executed
        by_key[rec["key"]] = rec
        if cache is not None:
            cache.append(rec)
        executed += 1
        note(f"[{executed}/{len(payloads)}] done "
             f"{rec['scenario']} {rec['params']}")

    if payloads:
        if job_timeout_s is not None:
            _run_bounded_parallel(_mp_context(), payloads, workers,
                                  job_timeout_s, retries, retry_backoff_s,
                                  record)
        elif workers > 1:
            ctx = _mp_context()
            bundles = [(p, retries, retry_backoff_s) for p in payloads]
            with ctx.Pool(processes=min(workers, len(payloads))) as pool:
                for rec in pool.imap_unordered(_execute_job_retrying, bundles):
                    record(rec)
        else:
            for payload in payloads:
                record(_attempt_with_retries(payload, retries,
                                             retry_backoff_s))

    return CampaignResult(
        jobs=list(jobs),
        records=[by_key[job.key] for job in jobs],
        executed=executed,
        cached=len(jobs) - executed,
        wall_s=time.perf_counter() - t_start,
    )


def run_observed(
    jobs: Sequence[Job],
    capture,
    meter=None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Execute jobs serially under ambient observability.

    ``capture`` is an (unentered) :class:`~repro.obs.capture.ObsCapture`
    and ``meter`` an optional :class:`~repro.perf.meter.KernelMeter`;
    both contexts are entered around the whole run, so every session any
    job builds is traced, observed, and metered.  Observed runs are
    deliberately cache-less and in-process: a cache hit would observe
    nothing, and worker processes would strand the observers.
    """
    import contextlib

    t_start = time.perf_counter()
    version = code_version()
    records: list[dict] = []
    with contextlib.ExitStack() as stack:
        if meter is not None:
            stack.enter_context(meter)
        stack.enter_context(capture)
        for job in jobs:
            rec = _execute_job(
                (job.scenario, job.params, job.seed, job.key, version))
            records.append(rec)
            if progress is not None:
                progress(f"[{len(records)}/{len(jobs)}] done "
                         f"{rec['scenario']} {rec['params']}")
    return CampaignResult(
        jobs=list(jobs),
        records=records,
        executed=len(records),
        cached=0,
        wall_s=time.perf_counter() - t_start,
    )


def run_grid(
    scenario: str,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    workers: int = 1,
    cache_path: Optional[str | Path] = None,
    base_seed: int = 0,
    overrides: Optional[Mapping[str, Any]] = None,
    progress: Optional[Callable[[str], None]] = None,
    shard: Optional[ShardSpec | str] = None,
    read_caches: Sequence[str | Path] = (),
    retries: int = 0,
    retry_backoff_s: float = 0.5,
    job_timeout_s: Optional[float] = None,
) -> CampaignResult:
    """Plan a grid sweep and execute it (the main campaign entry point)."""
    jobs = plan_grid(scenario, grid, base_seed=base_seed, overrides=overrides)
    return run_jobs(jobs, workers=workers, cache_path=cache_path,
                    progress=progress, shard=shard, read_caches=read_caches,
                    retries=retries, retry_backoff_s=retry_backoff_s,
                    job_timeout_s=job_timeout_s)


def run_points(
    scenario: str,
    points: Sequence[Mapping[str, Any]],
    workers: int = 1,
    cache_path: Optional[str | Path] = None,
) -> CampaignResult:
    """Plan and execute an explicit list of parameter points.

    For sharding, retries or timeouts, pass the planned jobs to
    :func:`run_jobs`.
    """
    return run_jobs(plan_points(scenario, points), workers=workers,
                    cache_path=cache_path)
