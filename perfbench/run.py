"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-figures --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run that reports per-layer host
time and counts (see ``README.md`` in this directory).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it describe the run (host, job list, digest).

Every simulation runs in a fresh interpreter launched from here, with
``src/`` first on ``PYTHONPATH`` and ``REPRO_*`` switches cleared, so
the measured code is the checkout's at its defaults.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from workloads import LOOP, WORKLOADS, job_list  # noqa: E402

WHY = {w["name"]: w["why"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]}

#: Extra setup-only processes per in-process run (setup_s is a median).
SETUP_SAMPLES = 6
#: Deadline for all child processes of one run (a run must end in 180 s).
CHILD_TIMEOUT_S = 170


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(mode: str, args, work: Path, deadline: float) -> dict:
    out = work / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work", str(work),
           "--out", str(out), "--launch", repr(time.monotonic())]
    # A session of its own, so a timeout takes down the worker's children.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"error: worker {mode} timed out")
    if code != 0:
        raise SystemExit(f"error: worker {mode} exited {code}")
    return json.loads(out.read_text())


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least 10 samples beyond."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _measure(args, work: Path, deadline: float) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload]
    setups = []
    if wl.kind != "cli":
        for _ in range(SETUP_SAMPLES):
            setups.append(_worker("setup", args, work, deadline)["setup_s"])
    doc = _worker("measure", args, work, deadline)
    setups.append(doc["setup_s"])
    setup_n = doc.get("setup_n", len(setups))
    job_ms = [t * 1000 for t in doc["job_s"]]
    p_tail = tail_percentile(len(job_ms))
    metrics = {
        "wall_s": (statistics.median(doc["wall_s"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "job_p50_ms": (percentile(job_ms, 50.0), "ms"),
        "job_tail_ms": (percentile(job_ms, p_tail), "ms"),
        "peak_rss_mib": (doc["peak_rss_mib"], "MiB"),
        "paper_err_pct": (doc["paper_err_pct"], "%"),
        "ok_frac": (1.0 - doc["failed"] / doc["attempted"], "frac"),
    }
    info = {
        "pass_walls_s": doc["wall_s"],
        "jobs_timed": len(job_ms),
        "job_tail_percentile": p_tail,
        "setup_samples_s": setups if wl.kind != "cli" else setup_n,
        "fail_frac": f"{doc['failed']}/{doc['attempted']}",
        "paper_refs": doc["paper_refs"],
        "paper_note": ("paper_err_pct covers the paper reference numbers "
                       "this run produces; the model is unvalidated beyond "
                       "them" if wl.kind == "figures" else
                       "paper_err_pct: Fig 3b/3c 8 B insets, checked after "
                       "the timed passes; the model is unvalidated beyond "
                       "them"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, \
        dict(doc, info=info)


def _trace(args, work: Path, deadline: float) -> tuple[dict, dict]:
    doc = _worker("trace", args, work, deadline)
    metrics = {}
    for name, value in doc["metrics"].items():
        unit = ("s" if name.endswith("_s") else
                "ns" if name.endswith("_ns") else
                "x" if name.endswith("_x") else
                "frac" if name.endswith("_frac") else "count")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, dict(doc, info={})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    # Byte-compile up front so the first timed interpreter does not pay
    # for it (a no-op when the caches are current).
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = _trace if args.trace else _measure
        metrics, doc = run(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    wl = WORKLOADS[args.workload]
    print(json.dumps({
        "host": {"python": platform.python_version(),
                 "nproc": os.cpu_count(), "platform": platform.platform()},
        "workload": wl.name, "seed": args.seed, "loop": LOOP,
        "why": WHY[wl.name], "jobs": job_list(args.workload, args.seed),
        "digests": doc["digests"], "failures": doc["failures"],
        **doc["info"],
    }))
    correct = doc["failed"] == 0 and len(doc["digests"]) == 1
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
