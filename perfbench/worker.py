"""One benchmark process: set up, run passes of a workload, report JSON.

``run.py`` launches this file in fresh interpreters; it is not meant to
be run by hand.  Modes:

``setup``    time interpreter launch -> ready (imports, registry,
             ``code_version()``, one ``--tiny`` warm-up per scenario)
``measure``  setup, then repeat untraced passes for ``--seconds``
``trace``    timed setup breakdown, one untraced pass, one pass under the
             layer tracer and ``KernelMeter``, one pass under ``ObsCapture``
``cli``      run ``python -m repro.campaign ARGS`` under the layer tracer
             and ``KernelMeter`` (the traced form of a cold-jobs job)

Every mode writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LayerTracer
from workloads import FIGURES, WORKLOADS, job_list

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REPRO_DIR = ROOT / "src" / "repro"
_SUMMARY = re.compile(r"(\d+) executed, (\d+) cached")
#: Measuring stops starting passes after this multiple of ``--seconds``.
CUTOFF_X = 1.25


# -- setup -----------------------------------------------------------------

def setup(wl, marks=None) -> None:
    """Imports, registry, ``code_version()`` and the warm-up jobs.

    With ``marks`` (a dict), each step's host seconds are recorded under
    its ``setup.*`` name; numpy and networkx are imported first so their
    cost is split out of ``setup.import_s``.
    """
    t = time.perf_counter()

    def mark(name):
        nonlocal t
        now = time.perf_counter()
        if marks is not None:
            marks[name] = now - t
        t = now

    if marks is not None:
        import numpy  # noqa: F401
        mark("setup.import_numpy_s")
        import networkx  # noqa: F401
        mark("setup.import_networkx_s")
    import repro.bench.figures  # noqa: F401
    import repro.campaign as campaign
    import repro.perf.meter  # noqa: F401
    mark("setup.import_s")
    campaign.load_builtins()
    mark("setup.registry_s")
    campaign.code_version()
    mark("setup.code_version_s")
    for name in wl.warmup:
        sc = campaign.get_scenario(name)
        campaign.run_jobs(campaign.plan_points(name, [dict(sc.tiny)]))
    mark("setup.warmup_s")


# -- one pass of a workload ------------------------------------------------

class Pass:
    """Outcome of running a workload's job list once."""

    def __init__(self):
        self.wall_s = 0.0
        self.records: list[dict] = []
        self.job_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.tables: dict = {}
        self.events = 0
        self.executed = 0
        self.cached = 0
        self.environments = 0
        #: cold-jobs only: traced per-process stats, setup samples.
        self.stats: list[dict] = []
        self.setup_samples: list[float] = []


def _read_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _run_inprocess(wl, jobs, cache: Path) -> Pass:
    """Figures or scenario points through the campaign executor."""
    import repro.campaign as campaign
    from repro.bench import figures

    out = Pass()
    t0 = time.perf_counter()
    for job in jobs:
        try:
            if wl.kind == "figures":
                fn, args = FIGURES[job]
                out.tables[job] = getattr(figures, fn)(*args,
                                                       cache_path=cache)
            else:
                scenario, params = job
                campaign.run_jobs(campaign.plan_points(scenario, [params]),
                                  cache_path=cache)
        except Exception as exc:  # a failing job is counted, not fatal
            out.failures.append(f"{job}: {type(exc).__name__}: {exc}")
    out.wall_s = time.perf_counter() - t0
    out.records = _read_records(cache)
    out.job_s = [rec["elapsed_s"] for rec in out.records]
    out.executed = len(out.records)
    out.attempted = len(out.records) + len(out.failures)
    return out


def _cli(job, campaign_dir: Path, seed: int, traced_out=None):
    scenario, params = job
    args = ["--campaign-dir", str(campaign_dir), "--seed", str(seed),
            "run", scenario, "--tiny"]
    for key, value in params.items():
        args += ["-p", f"{key}={value}"]
    if traced_out is None:
        cmd = [sys.executable, "-m", "repro.campaign", *args]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "cli",
               "--out", str(traced_out), "--", *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=campaign_dir.parent, capture_output=True,
                          text=True, timeout=120)
    return time.perf_counter() - t0, proc


def _run_cold(jobs, campaign_dir: Path, seed: int, traced=False) -> Pass:
    """Each job cold, then each job again from the cache it wrote."""
    out = Pass()
    stats_files = []
    shown = {}
    cold_wall = {}
    t0 = time.perf_counter()
    for cached_pass in (False, True):
        for i, job in enumerate(jobs):
            stats_path = None
            if traced:
                stats_path = campaign_dir.parent / f"{i}-{int(cached_pass)}.json"
                stats_files.append(stats_path)
            wall, proc = _cli(job, campaign_dir, seed, stats_path)
            out.job_s.append(wall)
            out.attempted += 1
            lines = proc.stdout.splitlines()
            summary = _SUMMARY.search(lines[-1]) if lines else None
            if proc.returncode != 0 or summary is None:
                out.failures.append(f"{job}: exit {proc.returncode}: "
                                    f"{proc.stderr.strip()[-200:]}")
                continue
            executed, cached = int(summary.group(1)), int(summary.group(2))
            out.executed += executed
            out.cached += cached
            # A cached record prints its result keys sorted.
            printed = [sorted(line.split()) for line in lines[:-1]]
            if not cached_pass:
                shown[i] = printed
                cold_wall[job[0]] = wall
            elif executed != 0 or printed != shown.get(i):
                out.failures.append(f"{job}: cached pass executed "
                                    f"{executed} or changed its result")
    out.wall_s = time.perf_counter() - t0
    out.records = _read_records(campaign_dir / "results.jsonl")
    # Process wall minus the job's own recorded run time: what a cold
    # `campaign run` costs beyond the job itself.
    out.setup_samples = [cold_wall[rec["scenario"]] - rec["elapsed_s"]
                         for rec in out.records
                         if rec["scenario"] in cold_wall]
    out.stats = [json.loads(p.read_text()) for p in stats_files
                 if p.exists()]
    return out


def run_pass(wl, jobs, work: Path, index: int, seed: int,
             traced=False) -> Pass:
    pass_dir = work / f"pass{index}"
    pass_dir.mkdir(parents=True)
    if wl.kind == "cli":
        return _run_cold(jobs, pass_dir / "campaign", seed, traced)
    from repro.perf.meter import KernelMeter
    with KernelMeter() as meter:
        out = _run_inprocess(wl, jobs, pass_dir / "results.jsonl")
    out.events = meter.events
    out.environments = meter.environments
    return out


def check(out: Pass) -> None:
    """Append conservation and paper-shape failures to ``out.failures``."""
    from checks import conservation_error, shape_errors
    for rec in out.records:
        err = conservation_error(rec["scenario"], rec["params"],
                                 rec["result"])
        if err:
            out.failures.append(err)
    for table_name, table in out.tables.items():
        for err in shape_errors(table_name, table):
            out.failures.append(f"{table_name}: {err}")


def paper_error(wl, out: Pass) -> tuple[float, int]:
    """Paper error of this workload's tables; others use the Fig 3 insets."""
    from checks import paper_error_pct
    if wl.kind == "figures":
        return paper_error_pct(out.tables, out.records)
    from repro.bench import figures
    tables = {"fig3b": figures.fig3_pingpong("int"),
              "fig3c": figures.fig3_pingpong("dis")}
    return paper_error_pct(tables)


def _peak_rss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- modes -----------------------------------------------------------------

def mode_setup(args) -> dict:
    setup(WORKLOADS[args.workload])
    return {"setup_s": time.monotonic() - args.launch}


def mode_measure(args) -> dict:
    from checks import digest

    wl = WORKLOADS[args.workload]
    doc = {}
    if wl.kind != "cli":
        setup(wl)
        doc["setup_s"] = time.monotonic() - args.launch
    jobs = job_list(args.workload, args.seed)
    work = Path(args.work)
    passes = []
    # Stay within the run's time limit on a host far slower than nominal.
    cutoff = time.perf_counter() + CUTOFF_X * args.seconds
    for i in range(wl.passes(args.seconds)):
        if i >= 2 and time.perf_counter() > cutoff:
            break
        passes.append(run_pass(wl, jobs, work, i, args.seed))
        check(passes[-1])
    err, refs = paper_error(wl, passes[0])
    doc.update(
        wall_s=[p.wall_s for p in passes],
        job_s=[t for p in passes for t in p.job_s],
        attempted=sum(p.attempted for p in passes),
        failed=sum(len(p.failures) for p in passes),
        failures=[f for p in passes for f in p.failures][:10],
        digests=sorted({digest(p.records, p.events) for p in passes}),
        paper_err_pct=err,
        paper_refs=refs,
        peak_rss_mib=_peak_rss_mib(resource.RUSAGE_CHILDREN
                                   if wl.kind == "cli"
                                   else resource.RUSAGE_SELF),
    )
    if wl.kind == "cli":
        samples = [s for p in passes for s in p.setup_samples]
        doc.update(setup_s=statistics.median(samples), setup_n=len(samples))
    return doc


def _component_metrics(records) -> dict:
    """Simulated component counters from the keys scenarios report."""
    out = {"network.link_drops": 0, "network.max_link_queue": 0,
           "portals.pt_dropped": 0, "sim.timeouts": 0, "sim.retransmits": 0}
    for rec in records:
        for key, value in rec["result"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if key.endswith("link_drops"):
                out["network.link_drops"] += value
            elif key.endswith("max_link_queue"):
                out["network.max_link_queue"] = max(
                    out["network.max_link_queue"], value)
            elif key.endswith("pt_dropped_messages"):
                out["portals.pt_dropped"] += value
            elif key == "timeouts":
                out["sim.timeouts"] += value
            elif key == "retransmits":
                out["sim.retransmits"] += value
    return out


def _observed(wl, jobs, work: Path) -> dict:
    """HPU busy fraction and link wait from ``ObsCapture`` observers."""
    import repro.campaign as campaign
    from repro.bench import figures
    from repro.des.trace import span_category
    from repro.obs import ObsCapture
    from repro.obs.observer import ObsConfig

    config = ObsConfig(hpu_counters=False, message_marks=False)
    busy = capacity = wait_ps = 0
    for i, job in enumerate(jobs):
        with ObsCapture(config) as cap:
            if wl.kind == "figures":
                fn, args = FIGURES[job]
                getattr(figures, fn)(*args,
                                     cache_path=work / f"obs{i}.jsonl")
            else:
                scenario, params = job
                if wl.kind == "cli":
                    params = dict(campaign.get_scenario(scenario).tiny,
                                  **params)
                campaign.run_jobs(campaign.plan_points(scenario, [params]))
        for obs in cap.observers:
            occ = obs.occupancy
            hpu = [occ.busy_ps(r, lane) for r, lane in occ.resources()
                   if span_category(lane) == "hpu"]
            busy += sum(hpu)
            capacity += obs.elapsed_ps * len(hpu)
            wait_ps += sum(w for *_, w in obs.link_samples if w > 0)
        cap.observers.clear()
    return {"core.hpu_busy_frac": busy / capacity if capacity else 0.0,
            "network.link_wait_ns": wait_ps / 1000.0}


def mode_trace(args) -> dict:
    from checks import digest

    wl = WORKLOADS[args.workload]
    marks = {}
    setup(wl, marks)
    jobs = job_list(args.workload, args.seed)
    work = Path(args.work)
    plain = run_pass(wl, jobs, work, 0, args.seed)
    if wl.kind == "cli":
        # Each cold process traced itself; its counts add up.
        traced = run_pass(wl, jobs, work, 1, args.seed, traced=True)
        layer_stats = {key: sum(stats[key] for stats in traced.stats)
                       for key in traced.stats[0]}
        traced.events = layer_stats.pop("des.events")
        traced.environments = layer_stats.pop("des.environments")
    else:
        tracer = LayerTracer(str(REPRO_DIR), str(BENCH_DIR))
        with tracer:
            traced = run_pass(wl, jobs, work, 1, args.seed)
        layer_stats = tracer.stats()
    check(traced)
    metrics = dict(marks, **layer_stats)
    metrics.update({
        "des.events": traced.events,
        "des.environments": traced.environments,
        "campaign.jobs_executed": traced.executed,
        "campaign.jobs_cached": traced.cached,
        "trace.overhead_x": traced.wall_s / plain.wall_s,
    })
    metrics.update(_component_metrics(traced.records))
    metrics.update(_observed(wl, jobs, work))
    return {
        "metrics": metrics,
        "attempted": traced.attempted,
        "failed": len(traced.failures),
        "failures": traced.failures[:10],
        "digests": [digest(traced.records, traced.events)],
    }


def mode_cli(args) -> dict:
    """Traced cold job: the tracer is armed before ``repro`` is imported."""
    import runpy

    tracer = LayerTracer(str(REPRO_DIR), str(BENCH_DIR))
    code = 0
    with tracer:
        from repro.perf.meter import KernelMeter
        meter = KernelMeter()
        sys.argv = ["repro.campaign", *args.rest]
        with meter:
            try:
                runpy.run_module("repro.campaign", run_name="__main__",
                                 alter_sys=True)
            except SystemExit as exc:
                code = exc.code or 0
    doc = tracer.stats()
    doc.update({"des.events": meter.events,
                "des.environments": meter.environments, "exit": code})
    return doc


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace", "cli"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--launch", type=float, default=0.0,
                        help="time.monotonic() at process launch")
    parser.add_argument("--work", help="scratch directory for caches")
    parser.add_argument("--out", required=True)
    argv, rest = sys.argv[1:], []
    if "--" in argv:  # cli mode: everything after -- is for the CLI
        cut = argv.index("--")
        argv, rest = argv[:cut], argv[cut + 1:]
    args = parser.parse_args(argv)
    args.rest = rest
    modes = {"setup": mode_setup, "measure": mode_measure,
             "trace": mode_trace, "cli": mode_cli}
    doc = modes[args.mode](args)
    code = doc.pop("exit", 0)
    Path(args.out).write_text(json.dumps(doc))
    sys.exit(code)


if __name__ == "__main__":
    main()
