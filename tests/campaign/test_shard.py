"""Shard planner: deterministic slices whose union equals the serial sweep.

The contract under test (ISSUE 5 tentpole): for any grid and any K, the
K round-robin shards are disjoint, cover every planned job, and — run into
separate cache files and merged — produce records whose deterministic
views are byte-identical to one serial sweep.  Conflicting shard caches
(same key, different deterministic view) must be a hard merge error, and
``resume --shard i/K`` replays only its slice.
"""

import json
import random

import pytest

from repro.campaign import (
    CacheConflictError,
    ResultCache,
    ShardSpec,
    as_shard,
    merge_caches,
    plan_grid,
    run_jobs,
    shard_cache_name,
)
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.cache import DETERMINISTIC_FIELDS
from repro.campaign.registry import Param, scenario as campaign_scenario

# A synthetic, instant scenario: rich enough to exercise multi-axis grids
# and per-job seeding, cheap enough for property tests over many (grid, K)
# combinations.
@campaign_scenario(
    "_shard_probe",
    params=[
        Param("x", int, default=0),
        Param("y", int, default=0),
        Param("mode", str, default="a", choices=("a", "b", "c")),
    ],
    description="synthetic instant scenario for shard property tests",
)
def _shard_probe(x: int, y: int, mode: str) -> dict:
    # Depends on the params AND the executor-seeded RNG, so a wrong seed
    # assignment (e.g. a shard replaying another shard's jobs) changes the
    # deterministic view and trips the equivalence assertions.
    return {"v": x * 1000 + y * 10 + ord(mode), "draw": random.randrange(1 << 30)}


def _det(record):
    return {k: record[k] for k in DETERMINISTIC_FIELDS if k in record}


def _det_views(records_by_key):
    return {key: _det(rec) for key, rec in records_by_key.items()}


class TestShardSpec:
    def test_parse_round_trip(self):
        spec = ShardSpec.parse("1/3")
        assert (spec.index, spec.count) == (1, 3)
        assert str(spec) == "1/3"
        assert as_shard("0/2") == ShardSpec(0, 2)
        assert as_shard(spec) is spec
        assert as_shard(None) is None

    @pytest.mark.parametrize("bad", ["", "3", "1:3", "-1/3", "a/b", "1/3/5"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            ShardSpec.parse(bad)

    @pytest.mark.parametrize("index,count", [(3, 3), (5, 2), (0, 0), (1, -1)])
    def test_out_of_range_rejected(self, index, count):
        with pytest.raises(ValueError):
            ShardSpec(index, count)

    def test_round_robin_selection(self):
        jobs = list(range(10))
        assert ShardSpec(0, 3).select(jobs) == [0, 3, 6, 9]
        assert ShardSpec(1, 3).select(jobs) == [1, 4, 7]
        assert ShardSpec(2, 3).select(jobs) == [2, 5, 8]
        assert ShardSpec(0, 1).select(jobs) == jobs

    def test_cache_name(self):
        assert shard_cache_name(ShardSpec(1, 3)) == "results.shard-1-of-3.jsonl"


def _random_grid(rng: random.Random) -> dict:
    grid = {}
    if rng.random() < 0.8:
        grid["x"] = rng.sample(range(10), rng.randint(1, 4))
    if rng.random() < 0.8:
        grid["y"] = rng.sample(range(10), rng.randint(1, 3))
    grid["mode"] = rng.sample(["a", "b", "c"], rng.randint(1, 3))
    return grid


class TestShardEquivalence:
    def test_shards_partition_the_job_list(self):
        rng = random.Random(7)
        for _ in range(10):
            jobs = plan_grid("_shard_probe", _random_grid(rng))
            for k in (1, 2, 3, 5):
                slices = [ShardSpec(i, k).select(jobs) for i in range(k)]
                flat = [job for s in slices for job in s]
                assert sorted(j.key for j in flat) == sorted(j.key for j in jobs)
                assert len(flat) == len(jobs)  # disjoint cover

    def test_sharded_union_merges_to_serial_deterministic_view(
            self, tmp_path, monkeypatch):
        """The acceptance property, over random grids and K in {1,2,3,5}."""
        monkeypatch.setenv("REPRO_CODE_VERSION", "vShard")
        rng = random.Random(13)
        for trial in range(3):
            grid = _random_grid(rng)
            serial_dir = tmp_path / f"serial{trial}"
            serial = run_jobs(plan_grid("_shard_probe", grid),
                              cache_path=serial_dir / "results.jsonl")
            want = _det_views(ResultCache(serial_dir / "results.jsonl").load())
            for k in (1, 2, 3, 5):
                d = tmp_path / f"t{trial}k{k}"
                shard_files = []
                for i in range(k):
                    spec = ShardSpec(i, k)
                    path = d / shard_cache_name(spec)
                    res = run_jobs(plan_grid("_shard_probe", grid),
                                   cache_path=path, shard=spec)
                    assert res.executed == len(res.jobs)
                    shard_files.append(path)
                merge_caches(shard_files, d / "results.jsonl")
                got = _det_views(ResultCache(d / "results.jsonl").load())
                assert got == want, f"grid={grid} K={k}"

    def test_merge_rejects_conflicting_deterministic_views(self, tmp_path,
                                                           monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "vShard")
        grid = {"x": (1, 2), "mode": ("a",)}
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_jobs(plan_grid("_shard_probe", grid), cache_path=a)
        # Same keys, tampered result: a host that broke determinism.
        cache_b = ResultCache(b)
        for rec in ResultCache(a).load().values():
            bad = dict(rec)
            bad["result"] = {"v": -1, "draw": 0}
            cache_b.append(bad)
        with pytest.raises(CacheConflictError):
            merge_caches([a, b], tmp_path / "merged.jsonl")
        # Identical views merge fine (legacy results.jsonl overlap case).
        report = merge_caches([a, a], tmp_path / "merged.jsonl")
        assert report["records"] == 2
        assert report["conflicts_checked"] == 2

    def test_sharded_run_reuses_merged_canonical_cache(self, tmp_path,
                                                       monkeypatch):
        """After a merge, re-running any shard executes nothing."""
        monkeypatch.setenv("REPRO_CODE_VERSION", "vShard")
        grid = {"x": (1, 2, 3), "mode": ("a", "b")}
        jobs = plan_grid("_shard_probe", grid)
        d = tmp_path
        files = []
        for i in range(3):
            spec = ShardSpec(i, 3)
            path = d / shard_cache_name(spec)
            run_jobs(jobs, cache_path=path, shard=spec)
            files.append(path)
        merge_caches(files, d / "results.jsonl")
        again = run_jobs(jobs, cache_path=d / shard_cache_name(ShardSpec(1, 3)),
                         shard=ShardSpec(1, 3),
                         read_caches=[d / "results.jsonl"])
        assert again.executed == 0
        assert again.cached == len(again.jobs) == 2


class TestAcceptancePingpong:
    """3-shard pingpong == serial, then a rerun executes 0 jobs."""

    GRID = {"mode": ("rdma", "spin_store"), "size": (64, 512)}

    def test_three_shard_pingpong_matches_serial_and_index_skips_rerun(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "vAccept")
        jobs = plan_grid("pingpong", self.GRID)
        serial_path = tmp_path / "serial" / "results.jsonl"
        run_jobs(jobs, cache_path=serial_path)
        serial_views = _det_views(ResultCache(serial_path).load())

        d = tmp_path / "sharded"
        files = []
        for i in range(3):
            spec = ShardSpec(i, 3)
            path = d / shard_cache_name(spec)
            run_jobs(jobs, cache_path=path, shard=spec)
            files.append(path)
        merge_caches(files, d / "results.jsonl")
        merged_views = _det_views(ResultCache(d / "results.jsonl").load())
        # Byte-identical deterministic views, not just equal dicts.
        assert ({k: json.dumps(v, sort_keys=True) for k, v in merged_views.items()}
                == {k: json.dumps(v, sort_keys=True)
                    for k, v in serial_views.items()})

        # A second full sweep over the merged cache executes 0 jobs.
        again = run_jobs(jobs, cache_path=d / "results.jsonl")
        assert again.executed == 0 and again.cached == len(jobs)


class TestShardCLI:
    def _sweep(self, campaign_dir, shard=None, scenario="_shard_probe"):
        argv = ["--campaign-dir", str(campaign_dir), "sweep", scenario,
                "-g", "x=1,2,3", "-g", "mode=a,b"]
        if shard:
            argv += ["--shard", shard]
        return campaign_main(argv)

    def test_sweep_and_resume_shard_replay_only_their_slice(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "vShardCLI")
        for i in range(3):
            assert self._sweep(tmp_path, shard=f"{i}/3") == 0
        for i in range(3):
            assert (tmp_path / f"results.shard-{i}-of-3.jsonl").exists()
        assert not (tmp_path / "results.jsonl").exists()
        assert campaign_main(["--campaign-dir", str(tmp_path), "merge"]) == 0
        capsys.readouterr()
        # resume --shard 1/3 touches exactly its 2 of the 6 jobs — all
        # already merged into the canonical cache, so zero execute.
        assert campaign_main(["--campaign-dir", str(tmp_path),
                              "resume", "--shard", "1/3"]) == 0
        out = capsys.readouterr().out
        assert "resume total: 0 executed, 2 cached" in out

    def test_merge_conflict_is_a_hard_cli_error(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "vShardCLI")
        self._sweep(tmp_path, shard="0/2")
        # Forge the other shard out of shard 0's records: overlapping keys
        # with tampered results.
        src = ResultCache(tmp_path / "results.shard-0-of-2.jsonl").load()
        forged = ResultCache(tmp_path / "results.shard-1-of-2.jsonl")
        for rec in src.values():
            bad = dict(rec)
            bad["result"] = {"v": -999, "draw": 1}
            forged.append(bad)
        assert campaign_main(["--campaign-dir", str(tmp_path), "merge"]) == 2
        assert "differs between" in capsys.readouterr().err

    def test_bad_shard_spec_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            self._sweep(tmp_path, shard="9/3")

    def test_sharded_run_without_cache_is_rejected(self, tmp_path):
        """A shard's only output is its cache file; computing into the
        void (then telling the user to merge) must be an error."""
        jobs = plan_grid("_shard_probe", {"x": (1, 2), "mode": ("a",)})
        with pytest.raises(ValueError, match="cache_path"):
            run_jobs(jobs, shard=ShardSpec(0, 2))
        with pytest.raises(SystemExit, match="--shard requires"):
            campaign_main(["--campaign-dir", str(tmp_path), "sweep",
                           "_shard_probe", "-g", "x=1,2", "--no-cache",
                           "--shard", "0/2"])

    def test_merge_keep_shards(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "vShardCLI")
        self._sweep(tmp_path, shard="0/2")
        self._sweep(tmp_path, shard="1/2")
        assert campaign_main(["--campaign-dir", str(tmp_path), "merge",
                              "--keep-shards"]) == 0
        assert (tmp_path / "results.shard-0-of-2.jsonl").exists()
        merged = ResultCache(tmp_path / "results.jsonl").load()
        assert len(merged) == 6
