"""Result cache and sweep manifests: one tolerant JSONL read path.

``load()`` returns the last record per key and skips blank lines and a
line torn by a run killed mid-append; appends never glue a fresh line
onto such a tear — for result records and sweep manifests alike.
"""

import json

import pytest

from repro.campaign import ResultCache
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.registry import Param, scenario as campaign_scenario


@campaign_scenario(
    "_cache_probe",
    params=[Param("x", int, default=0)],
    description="synthetic instant scenario for manifest tests",
)
def _cache_probe(x: int) -> dict:
    return {"v": x}


def _rec(key: str, value: int, version: str = "v1") -> dict:
    return {"key": key, "scenario": "s", "params": {"x": value}, "seed": 1,
            "code_version": version, "result": {"v": value}, "elapsed_s": 0.1}


def _values(records: dict) -> dict:
    return {k: r["result"]["v"] for k, r in records.items()}


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "results.jsonl")


class TestLoad:
    def test_last_record_wins_over_duplicates(self, cache):
        for i in range(4):
            cache.append(_rec("dup", i))
        cache.append(_rec("other", 9))
        assert _values(cache.load()) == {"dup": 3, "other": 9}

    def test_raw_appends_are_read(self, cache):
        cache.append(_rec("k0", 0))
        with cache.path.open("a") as fh:  # another writer, blank line too
            fh.write(json.dumps(_rec("k1", 1)) + "\n\n")
            fh.write(json.dumps(_rec("k0", 7)) + "\n")
        assert _values(cache.load()) == {"k0": 7, "k1": 1}

    def test_torn_final_line_tolerated_and_never_corrupts_appends(self, cache):
        cache.append(_rec("k0", 0))
        with cache.path.open("a") as fh:
            fh.write('{"key": "trunc')  # killed mid-append, no newline
        assert set(cache.load()) == {"k0"}
        cache.append(_rec("k1", 1))  # must not concatenate onto the tear
        assert _values(ResultCache(cache.path).load()) == {"k0": 0, "k1": 1}

    def test_missing_file_loads_empty(self, cache):
        assert cache.load() == {}
        assert not cache.path.exists()


class TestManifests:
    def _sweep(self, campaign_dir, grid):
        return campaign_main(["--campaign-dir", str(campaign_dir), "sweep",
                              "_cache_probe", "-g", grid])

    def test_torn_manifest_line_does_not_break_resume(self, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "vManifest")
        assert self._sweep(tmp_path, "x=1,2") == 0
        manifests = tmp_path / "manifests.jsonl"
        with manifests.open("a") as fh:
            fh.write('{"base_seed": 0, "grid": {"x": [')  # killed sweep
        assert self._sweep(tmp_path, "x=3") == 0
        capsys.readouterr()
        assert campaign_main(["--campaign-dir", str(tmp_path), "resume"]) == 0
        out = capsys.readouterr().out
        assert "resume total: 0 executed, 3 cached" in out
