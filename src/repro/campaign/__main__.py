"""CLI: ``python -m repro.campaign`` — list/run/sweep/resume/merge.

Examples::

    python -m repro.campaign list
    python -m repro.campaign run pingpong --tiny
    python -m repro.campaign run accumulate -p size=4096 -p mode=spin
    python -m repro.campaign sweep pingpong --workers 4
    python -m repro.campaign sweep broadcast -g procs=4,16 -g size=8,65536
    python -m repro.campaign sweep pingpong --shard 0/3   # one host of three
    python -m repro.campaign resume --workers 8
    python -m repro.campaign merge                        # fold shard files

Sweeps record a manifest next to the result cache, so ``resume`` replays
every known sweep; jobs whose results are already cached execute nothing.
``--shard i/K`` (zero-based) runs one deterministic slice of a sweep into
its own ``results.shard-i-of-K.jsonl``; ``merge`` folds the shard files
(and any legacy ``results.jsonl``) into the canonical cache.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.campaign.cache import (
    CacheConflictError,
    _parse_line,
    append_line,
    merge_caches,
)
from repro.campaign.executor import run_grid, run_jobs, run_observed
from repro.campaign.planner import plan_grid, plan_points
from repro.campaign.registry import ScenarioError, all_scenarios, get_scenario
from repro.campaign.shard import ShardSpec, shard_cache_name

DEFAULT_CAMPAIGN_DIR = Path(".campaign")


def _cache_path(args) -> Path:
    return Path(args.campaign_dir) / "results.jsonl"


def _manifest_path(args) -> Path:
    return Path(args.campaign_dir) / "manifests.jsonl"


def _parse_shard(args) -> ShardSpec | None:
    text = getattr(args, "shard", None)
    if not text:
        return None
    try:
        return ShardSpec.parse(text)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _shard_caches(args) -> tuple[ShardSpec | None, Path, tuple[Path, ...]]:
    """Resolve (shard, write-cache, read-only caches) for sweep/resume.

    A sharded run writes its own ``results.shard-i-of-K.jsonl`` so K
    hosts never contend on one file, but still *reads* the canonical
    cache — after a ``merge``, re-running any shard executes nothing.
    """
    shard = _parse_shard(args)
    canonical = _cache_path(args)
    if shard is None:
        return None, canonical, ()
    shard_path = canonical.parent / shard_cache_name(shard)
    return shard, shard_path, (canonical,)


def _parse_kv(pairs: list[str], what: str) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"bad {what} {pair!r}: expected name=value")
        name, value = pair.split("=", 1)
        out[name] = value
    return out


def _parse_grid(pairs: list[str]) -> dict:
    return {k: v.split(",") for k, v in _parse_kv(pairs, "grid axis").items()}


def _print_records(res) -> None:
    for rec in res.records:
        params = " ".join(f"{k}={v}" for k, v in sorted(rec["params"].items()))
        result = " ".join(
            f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in rec["result"].items()
        )
        print(f"  {rec['scenario']:>14}  {params:<52} -> {result}")
    print(res.summary())


def cmd_list(args) -> int:
    scenarios = all_scenarios()
    if args.tag:
        scenarios = {name: sc for name, sc in scenarios.items()
                     if args.tag in sc.tags}
        if not scenarios:
            known = sorted({t for sc in all_scenarios().values()
                            for t in sc.tags})
            print(f"no scenarios tagged {args.tag!r}; known tags: "
                  f"{', '.join(known) or '(none)'}", file=sys.stderr)
            return 1
    for name, sc in scenarios.items():
        tags = f"  [{', '.join(sc.tags)}]" if sc.tags else ""
        print(f"{name:<20} {sc.description}{tags}")
        if args.brief:
            continue
        for p in sc.params:
            choices = f"  choices={list(p.choices)}" if p.choices else ""
            help_ = f"  ({p.help})" if p.help else ""
            print(f"    {p.name}: {p.type.__name__} = {p.default!r}"
                  f"{choices}{help_}")
        if sc.sweep:
            axes = ", ".join(
                f"{k}={list(v)}" for k, v in sc.sweep.items()
            )
            npoints = 1
            for v in sc.sweep.values():
                npoints *= len(v)
            print(f"    default sweep: {axes} ({npoints} points)")
    return 0


def cmd_run(args) -> int:
    sc = get_scenario(args.scenario)
    overrides = dict(sc.tiny) if args.tiny else {}
    overrides.update(_parse_kv(args.param, "param"))
    jobs = plan_points(args.scenario, [overrides], base_seed=args.seed)
    want_profile = args.profile or args.profile_out
    want_obs = args.trace_out or args.report
    if want_profile or want_obs:
        # Profiled and observed runs bypass the cache — a cache hit would
        # replay a stored result dict and there would be nothing to measure.
        # The flags compose: profiling wraps the observed run.
        profiler = None
        if want_profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        if want_obs:
            from repro.obs import ObsCapture
            from repro.perf.meter import KernelMeter

            capture = ObsCapture()
            meter = KernelMeter()
            res = run_observed(jobs, capture, meter=meter,
                               progress=print if args.verbose else None)
        else:
            res = run_jobs(jobs, cache_path=None,
                           progress=print if args.verbose else None)
        if profiler is not None:
            profiler.disable()
        _print_records(res)
        if profiler is not None:
            import pstats

            print(f"\n--- cProfile: top 25 by cumulative time "
                  f"({args.scenario}) ---")
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
            if args.profile_out:
                profiler.dump_stats(args.profile_out)
                print(f"wrote full profile to {args.profile_out} "
                      f"(inspect with python -m pstats)")
        if want_obs and not capture.observers:
            print(f"error: {args.scenario} builds no Session, so there is "
                  f"nothing to trace", file=sys.stderr)
            return 2
        if args.trace_out:
            capture.export_trace(args.trace_out)
            print(f"wrote {args.trace_out} (open in https://ui.perfetto.dev)")
        if args.report:
            job = jobs[0]
            doc = capture.build_report(
                meter=meter, scenario=args.scenario,
                params=dict(job.params), seed=job.seed)
            Path(args.report).write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"wrote {args.report} "
                  f"(view with python -m repro.obs view {args.report})")
        return 0
    res = run_jobs(jobs, cache_path=None if args.no_cache else _cache_path(args),
                   progress=print if args.verbose else None,
                   retries=args.retries, retry_backoff_s=args.retry_backoff,
                   job_timeout_s=args.job_timeout)
    _print_records(res)
    return 0


def _record_manifest(args, scenario: str, grid: dict) -> None:
    append_line(_manifest_path(args), json.dumps({
        "scenario": scenario,
        "grid": grid,
        "base_seed": args.seed,
    }, sort_keys=True))


def cmd_sweep(args) -> int:
    sc = get_scenario(args.scenario)
    grid = _parse_grid(args.grid) or {k: list(v) for k, v in sc.sweep.items()}
    if not grid:
        raise SystemExit(f"scenario {args.scenario!r} has no default sweep; "
                         f"pass -g axis=v1,v2")
    # Canonical axis order (manifests round-trip through sorted-key JSON):
    # `sweep --shard` and `resume --shard` must slice the same job order.
    grid = dict(sorted(grid.items()))
    if args.no_cache and args.shard:
        raise SystemExit("error: --shard requires the cache "
                         "(a shard's only output is its cache file)")
    shard, cache, read_caches = _shard_caches(args)
    # Validate the grid BEFORE recording the manifest — a typo'd axis must
    # not poison future `resume` runs.
    jobs = plan_grid(args.scenario, grid, base_seed=args.seed)
    if args.no_cache:
        cache, read_caches = None, ()
    else:
        _record_manifest(args, args.scenario, grid)
    res = run_jobs(jobs, workers=args.workers, cache_path=cache,
                   progress=print if args.verbose else None,
                   shard=shard, read_caches=read_caches,
                   retries=args.retries, retry_backoff_s=args.retry_backoff,
                   job_timeout_s=args.job_timeout)
    if shard is not None:
        print(f"shard {shard} of {len(jobs)} planned jobs:")
    _print_records(res)
    return 0


def cmd_resume(args) -> int:
    path = _manifest_path(args)
    if not path.exists():
        print(f"no manifests at {path}; nothing to resume")
        return 1
    shard, cache, read_caches = _shard_caches(args)
    manifests: dict[tuple, dict] = {}
    with path.open("rb") as fh:
        for line in fh:
            m = _parse_line(line)  # a sweep killed mid-write tears its line
            if m is not None:
                manifests[(m["scenario"],
                           json.dumps(m["grid"], sort_keys=True))] = m
    total_exec = total_cached = failures = 0
    for m in manifests.values():
        if args.scenario and m["scenario"] != args.scenario:
            continue
        try:
            res = run_grid(m["scenario"], m["grid"], workers=args.workers,
                           cache_path=cache, read_caches=read_caches,
                           base_seed=m.get("base_seed", 0),
                           progress=print if args.verbose else None,
                           shard=shard, retries=args.retries,
                           retry_backoff_s=args.retry_backoff,
                           job_timeout_s=args.job_timeout)
        except ScenarioError as exc:
            # One stale/broken manifest must not block the others.
            print(f"{m['scenario']}: skipped ({exc})", file=sys.stderr)
            failures += 1
            continue
        print(f"{m['scenario']}: {res.summary()}")
        total_exec += res.executed
        total_cached += res.cached
    print(f"resume total: {total_exec} executed, {total_cached} cached"
          + (f", {failures} manifests skipped" if failures else ""))
    return 1 if failures else 0


def cmd_merge(args) -> int:
    canonical = _cache_path(args)
    shard_files = sorted(
        Path(args.campaign_dir).glob("results.shard-*-of-*.jsonl"))
    sources = ([canonical] if canonical.exists() else []) + shard_files
    if not sources:
        print(f"no caches under {args.campaign_dir}; nothing to merge")
        return 1
    try:
        report = merge_caches(sources, canonical)
    except CacheConflictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in sorted(report["per_file"]):
        print(f"  {name}: {report['per_file'][name]} records")
    if not args.keep_shards:
        for path in shard_files:
            path.unlink()
    print(f"merged {len(report['per_file'])} files -> {report['dest']} "
          f"({report['records']} records, "
          f"{report['conflicts_checked']} cross-file keys verified"
          + (", shard files removed)" if shard_files and not args.keep_shards
             else ")"))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Simulation campaigns: sweep scenarios across parameter "
                    "grids with caching and parallel execution.",
    )
    parser.add_argument("--campaign-dir", default=str(DEFAULT_CAMPAIGN_DIR),
                        help="directory for the result cache and manifests")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for deterministic per-job seeding")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_reliability_flags(p) -> None:
        p.add_argument("--retries", type=int, default=0, metavar="N",
                       help="re-run a failed or timed-out job up to N more "
                            "times with exponential backoff; a retried job "
                            "keeps its planner seed and cache key")
        p.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS", dest="job_timeout",
                       help="run each job in its own subprocess and "
                            "terminate it past this wall-clock budget")
        p.add_argument("--retry-backoff", type=float, default=0.5,
                       metavar="SECONDS", dest="retry_backoff",
                       help="base backoff between attempts "
                            "(sleep = backoff * 2**attempt; default 0.5)")

    p_list = sub.add_parser(
        "list",
        help="list registered scenarios with parameter spaces and sweeps")
    p_list.add_argument("--brief", action="store_true",
                        help="names and descriptions only")
    p_list.add_argument("--tag", default=None, metavar="TAG",
                        help="only scenarios carrying this tag "
                             "(e.g. traffic, faults, congestion)")
    p_list.set_defaults(fn=cmd_list)

    p_run = sub.add_parser("run", help="run one scenario point")
    p_run.add_argument("scenario")
    p_run.add_argument("-p", "--param", action="append", default=[],
                       metavar="NAME=VALUE")
    p_run.add_argument("--tiny", action="store_true",
                       help="apply the scenario's smoke-test parameters")
    p_run.add_argument("--no-cache", action="store_true")
    p_run.add_argument("--profile", action="store_true",
                       help="run under cProfile and print the top-25 "
                            "cumulative entries (disables the cache)")
    p_run.add_argument("--profile-out", default=None, metavar="FILE",
                       dest="profile_out",
                       help="dump the full cProfile stats to FILE for "
                            "offline analysis (implies --profile; inspect "
                            "with python -m pstats FILE or snakeviz)")
    p_run.add_argument("--trace-out", default=None, metavar="FILE",
                       dest="trace_out",
                       help="export a Perfetto/Chrome trace of the run to "
                            "FILE (disables the cache; open in "
                            "ui.perfetto.dev)")
    p_run.add_argument("--report", default=None, metavar="FILE",
                       help="write a structured run-telemetry report to "
                            "FILE (disables the cache; view with "
                            "python -m repro.obs view FILE)")
    add_reliability_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter-grid sweep")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("-g", "--grid", action="append", default=[],
                         metavar="AXIS=V1,V2,...")
    p_sweep.add_argument("-w", "--workers", type=int, default=1)
    p_sweep.add_argument("--shard", default=None, metavar="I/K",
                         help="run only shard I of K (zero-based, "
                              "round-robin over the planned jobs) into "
                              "results.shard-I-of-K.jsonl")
    p_sweep.add_argument("--no-cache", action="store_true")
    add_reliability_flags(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_resume = sub.add_parser("resume",
                              help="re-run recorded sweeps (cache skips "
                                   "finished jobs)")
    p_resume.add_argument("scenario", nargs="?", default=None)
    p_resume.add_argument("-w", "--workers", type=int, default=1)
    p_resume.add_argument("--shard", default=None, metavar="I/K",
                          help="replay only shard I of K of every manifest")
    add_reliability_flags(p_resume)
    p_resume.set_defaults(fn=cmd_resume)

    p_merge = sub.add_parser(
        "merge",
        help="fold shard caches (and legacy results.jsonl) into the "
             "canonical cache; key conflicts with differing deterministic "
             "views are hard errors")
    p_merge.add_argument("--keep-shards", action="store_true",
                         help="leave results.shard-*.jsonl files in place "
                              "after folding them in")
    p_merge.set_defaults(fn=cmd_merge)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
