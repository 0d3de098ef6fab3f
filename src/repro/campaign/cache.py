"""JSON-lines result cache for campaign runs.

Each record is one line of JSON::

    {"key": "...", "scenario": "...", "params": {...}, "seed": 123,
     "code_version": "...", "result": {...}, "elapsed_s": 0.42}

``key`` binds ``(scenario, params, code_version)``; a sweep consults the
cache before executing and skips any job whose key is present, which is
what makes interrupted campaigns resumable and repeated campaigns free.
Records are append-only (last record for a key wins), so concurrent
history survives and the file doubles as a run log.

:meth:`ResultCache.load` is one tolerant scan of the file: blank lines and
a line torn by a run killed mid-append are skipped, and
:func:`append_line` never glues a fresh line onto such a tear.  Sweep
manifests are written through the same helper.

Sharded campaigns write per-shard files (``results.shard-i-of-K.jsonl``);
:func:`merge_caches` folds them (plus any legacy ``results.jsonl``) into
one canonical cache, treating two records with the same key but differing
:meth:`~ResultCache.deterministic_view` as a hard error.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Sequence, Union

__all__ = ["CacheConflictError", "ResultCache", "append_line", "merge_caches"]

#: Fields of a record that identify the computation (everything except
#: measurement noise like wall-clock timings).
DETERMINISTIC_FIELDS = ("key", "scenario", "params", "seed", "code_version", "result")


class CacheConflictError(RuntimeError):
    """Two caches disagree on the deterministic view of one key."""


def _parse_line(line: Union[str, bytes]) -> Optional[dict]:
    """One tolerant JSONL parse: a dict or None (torn/blank lines)."""
    line = line.strip()
    if not line:
        return None
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        return None
    return rec if isinstance(rec, dict) else None


def append_line(path: Path, line: str) -> None:
    """Append one JSONL line in a single write.

    A killed run may have left a torn line without a newline; end it
    first, so the fresh line is never concatenated onto the tear.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    data = (line + "\n").encode()
    with path.open("a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                data = b"\n" + data
        fh.write(data)


class ResultCache:
    """Append-only JSONL store keyed by the planner's cache key."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def load(self) -> dict[str, dict]:
        """All records by key (last one wins); {} if the file is absent."""
        records: dict[str, dict] = {}
        if not self.path.exists():
            return records
        with self.path.open("rb") as fh:
            for line in fh:
                rec = _parse_line(line)
                if rec is not None and "key" in rec:
                    records[rec["key"]] = rec
        return records

    def append(self, record: dict) -> None:
        """Durably append one result record."""
        append_line(self.path, json.dumps(record, sort_keys=True))

    @staticmethod
    def deterministic_view(record: dict) -> dict:
        """The record minus timing noise — what equivalence tests compare."""
        return {k: record[k] for k in DETERMINISTIC_FIELDS if k in record}


def merge_caches(sources: Sequence[Union[str, Path]],
                 dest: Union[str, Path]) -> dict:
    """Fold several cache files into one canonical cache at ``dest``.

    Within a file, the ordinary last-record-wins rule applies.  Across
    files, the same key must carry the same deterministic view — shards of
    one sweep are disjoint by construction, so a disagreement means two
    hosts computed different results for one job (broken determinism or a
    mislabelled shard) and raises :class:`CacheConflictError` instead of
    silently picking a winner.

    ``dest`` may itself appear in ``sources`` (the legacy-results case);
    the canonical file is written atomically.  Returns a report dict
    (``records``, ``per_file``, ``conflicts_checked``).
    """
    dest = Path(dest)
    merged: dict[str, dict] = {}
    origin: dict[str, str] = {}
    per_file: dict[str, int] = {}
    conflicts_checked = 0
    for src in sources:
        src = Path(src)
        if not src.exists():
            continue
        recs = ResultCache(src).load()
        per_file[src.name] = len(recs)
        for key, rec in recs.items():
            if key in merged:
                conflicts_checked += 1
                if (ResultCache.deterministic_view(rec)
                        != ResultCache.deterministic_view(merged[key])):
                    raise CacheConflictError(
                        f"key {key!r} differs between {origin[key]} and "
                        f"{src.name}: sharded runs of one sweep must be "
                        f"byte-equivalent (check shard specs and seeds)"
                    )
                continue
            merged[key] = rec
            origin[key] = src.name
    dest.parent.mkdir(parents=True, exist_ok=True)
    tmp = dest.parent / (dest.name + ".tmp")
    with tmp.open("w") as fh:
        for rec in merged.values():
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    os.replace(tmp, dest)
    return {
        "dest": str(dest),
        "records": len(merged),
        "per_file": per_file,
        "conflicts_checked": conflicts_checked,
    }
