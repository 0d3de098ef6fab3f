"""Executor reliability: per-job retries with backoff and wall-clock budgets."""

import os
import time

import pytest

from repro.campaign.executor import JobTimeoutError, run_jobs
from repro.campaign.planner import plan_points
from repro.campaign.registry import Param, scenario

# Helper scenarios registered once at module import (names are namespaced
# to keep the global registry clean for `list` output tests).


@scenario("_test_flaky", params=[
    Param("marker", str, default=""),
    Param("fail_attempts", int, default=1),
    Param("seed", int, default=1),
], description="test helper: fails until its marker file has N lines")
def _flaky(marker: str, fail_attempts: int, seed: int) -> dict:
    with open(marker, "a") as fh:
        fh.write("x\n")
    with open(marker) as fh:
        attempts = len(fh.readlines())
    if attempts <= fail_attempts:
        raise RuntimeError(f"transient failure #{attempts}")
    return {"attempts": attempts, "seed_seen": seed}


@scenario("_test_sleepy", params=[
    Param("sleep_s", float, default=0.0),
    Param("seed", int, default=1),
], description="test helper: sleeps, then returns")
def _sleepy(sleep_s: float, seed: int) -> dict:
    time.sleep(sleep_s)
    return {"slept": sleep_s}


@scenario("_test_exceeder", params=[
    Param("seed", int, default=1),
], description="test helper: raises with 'exceeded' in the message")
def _exceeder(seed: int) -> dict:
    raise RuntimeError("capacity exceeded")


def _flaky_jobs(tmp_path, fail_attempts=1):
    marker = str(tmp_path / "attempts.txt")
    return marker, plan_points(
        "_test_flaky",
        [{"marker": marker, "fail_attempts": fail_attempts}],
        base_seed=42,
    )


class TestRetries:
    def test_without_retries_the_failure_propagates(self, tmp_path):
        _, jobs = _flaky_jobs(tmp_path)
        with pytest.raises(RuntimeError, match="transient"):
            run_jobs(jobs)

    def test_retry_succeeds_and_keeps_seed_and_cache_key(self, tmp_path):
        marker, jobs = _flaky_jobs(tmp_path, fail_attempts=2)
        res = run_jobs(jobs, retries=2, retry_backoff_s=0.0)
        rec = res.records[0]
        assert rec["result"]["attempts"] == 3  # 2 failures + 1 success
        # The retried job is indistinguishable from a first-try success:
        # planner seed and cache key are reused verbatim.
        assert rec["seed"] == jobs[0].seed
        assert rec["key"] == jobs[0].key

    def test_exhausted_budget_reraises(self, tmp_path):
        _, jobs = _flaky_jobs(tmp_path, fail_attempts=10)
        with pytest.raises(RuntimeError, match="transient"):
            run_jobs(jobs, retries=2, retry_backoff_s=0.0)

    def test_pool_workers_retry_in_process(self, tmp_path):
        # Markers are per-job files, so each parallel job retries alone.
        jobs = []
        for i in range(3):
            _, (job,) = _flaky_jobs(tmp_path / f"j{i}", fail_attempts=1)
            os.makedirs(tmp_path / f"j{i}", exist_ok=True)
            jobs.append(job)
        res = run_jobs(jobs, workers=2, retries=1, retry_backoff_s=0.0)
        assert [r["result"]["attempts"] for r in res.records] == [2, 2, 2]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_jobs([], retries=-1)


class TestJobTimeout:
    def test_serial_timeout_kills_the_job(self):
        jobs = plan_points("_test_sleepy", [{"sleep_s": 30.0}])
        t0 = time.monotonic()
        with pytest.raises(JobTimeoutError):
            run_jobs(jobs, job_timeout_s=0.5)
        assert time.monotonic() - t0 < 10.0

    def test_serial_timeout_passes_fast_jobs_through(self):
        jobs = plan_points("_test_sleepy", [{"sleep_s": 0.0}])
        res = run_jobs(jobs, job_timeout_s=30.0)
        assert res.records[0]["result"] == {"slept": 0.0}

    def test_serial_timeout_retry_keeps_seed_and_cache_key(self, tmp_path):
        _, jobs = _flaky_jobs(tmp_path)
        res = run_jobs(jobs, job_timeout_s=30.0, retries=1,
                       retry_backoff_s=0.0)
        rec = res.records[0]
        assert rec["result"]["attempts"] == 2  # 1 failure + 1 success
        assert rec["seed"] == jobs[0].seed
        assert rec["key"] == jobs[0].key

    def test_parallel_bounded_scheduler_completes_the_mix(self):
        pts = [{"sleep_s": s} for s in (0.0, 0.15, 0.05, 0.1)]
        jobs = plan_points("_test_sleepy", pts)
        res = run_jobs(jobs, workers=3, job_timeout_s=30.0)
        # Records come back in planner order regardless of finish order.
        assert [r["result"]["slept"] for r in res.records] == \
            [0.0, 0.15, 0.05, 0.1]

    def test_parallel_timeout_raises_after_fast_jobs_finish(self):
        pts = [{"sleep_s": 0.0}, {"sleep_s": 30.0}]
        jobs = plan_points("_test_sleepy", pts)
        t0 = time.monotonic()
        with pytest.raises(JobTimeoutError):
            run_jobs(jobs, workers=2, job_timeout_s=0.5)
        assert time.monotonic() - t0 < 10.0

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            run_jobs([], job_timeout_s=0.0)

    def test_error_mentioning_exceeded_is_not_a_timeout(self):
        """Timeout-vs-error classification must not sniff the message: a
        scenario failure whose text contains 'exceeded' is still an error."""
        jobs = plan_points("_test_exceeder", [{}])
        with pytest.raises(RuntimeError, match="capacity exceeded") as ei:
            run_jobs(jobs, workers=2, job_timeout_s=30.0)
        assert not isinstance(ei.value, JobTimeoutError)


class TestCliFlags:
    def test_run_accepts_reliability_flags(self, tmp_path, capsys):
        from repro.campaign.__main__ import main
        rc = main(["--campaign-dir", str(tmp_path), "run", "pingpong",
                   "--tiny", "--no-cache", "--retries", "1",
                   "--job-timeout", "120"])
        assert rc == 0
        assert "pingpong" in capsys.readouterr().out
