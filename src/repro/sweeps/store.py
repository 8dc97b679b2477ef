"""Persistent, content-addressed sweep results store.

Layout (default root ``benchmarks/results/store/``)::

    store/
      shard-ab.jsonl   # append-only record log, sharded by key prefix
      shard-3f.jsonl

Every record is one JSON line carrying its own ``key``: the SHA-256 of the
canonical JSON of ``{schema, engine (result family), point}``.  Because the
key is a *content* hash of the configuration (plus the code-relevant schema
version and engine family), re-running any spec — from the sweep executor
or a notebook — deduplicates automatically: a point whose key is present is
served from the store instead of recomputed.

Durability contract:

* the JSONL shards are the whole store; this module writes no other file.
  :meth:`ResultsStore.put` appends one line and fsyncs it before returning,
  so a sweep killed at any moment loses at most the point being computed;
* opening a store scans the shards, and a torn final line (the
  kill-mid-write case) is cut off the shard, so the next append starts on a
  fresh line, and the point is simply recomputed on resume;
* shards are append-only.  Re-recording a key appends a new line; lookups
  return the latest record, and the older lines remain as the result
  trajectory (an adaptive point's batch-by-batch accumulation).

Writer model: several writers (threads or processes, each with its own
:class:`ResultsStore`) may share one root.  Writers only append whole lines
to the shards; no file is ever rewritten or replaced.  Any other file in the
root (such as the key index older versions kept) is never read.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.core.runner import TrialsResult, TrialSummary
from repro.exceptions import ConfigurationError
from repro.observability.tracer import current_tracer
from repro.sweeps.spec import SweepPoint, canonical_json

#: Bumped whenever a kernel/engine change alters what stored results mean;
#: part of every content key, so stale caches can never be served.
STORE_SCHEMA_VERSION = 1

#: Environment override for the store root used by the CLI and the harness.
STORE_ROOT_ENV = "REPRO_SWEEP_STORE"


def default_store_root() -> Path:
    """The store root: ``$REPRO_SWEEP_STORE`` or ``benchmarks/results/store``.

    The default is anchored at the repository root (located relative to this
    file) rather than the current working directory, so the CLI, the
    benchmark harness and library callers all share one store no matter
    where they are invoked from; outside a repo checkout (no ``benchmarks/``
    sibling) it falls back to a cwd-relative path.
    """
    override = os.environ.get(STORE_ROOT_ENV)
    if override:
        return Path(override)
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "results" / "store"
    return Path("benchmarks/results/store")


def point_key(point: SweepPoint, family: str) -> str:
    """Content key of one sweep point's results under one engine family.

    The hash covers the canonical point (every field, canonically ordered),
    the engine *family* (``vectorized`` or ``object``; the process count a
    point ran on never enters it) and the store schema version — the
    code-relevant parameters.  Stable across dict ordering by
    construction (:func:`repro.sweeps.spec.canonical_json`).
    """
    if family not in ("vectorized", "object"):
        raise ConfigurationError(
            f"point keys are per result family ('vectorized'/'object'), got {family!r}"
        )
    payload = {
        "schema": STORE_SCHEMA_VERSION,
        "engine": family,
        "point": point.canonical(),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def adaptive_key(point: SweepPoint, family: str) -> str:
    """Content key of one point's *adaptive* (accumulating) result record.

    Adaptive runs grow a point's trial count batch by batch, so the key
    covers every configuration field except ``trials``
    (:meth:`SweepPoint.canonical_base`): all batches of one point — across
    interruptions, resumes and precision changes — accumulate under one key,
    and the append-only shard lines are the batch-by-batch trajectory.
    """
    if family not in ("vectorized", "object"):
        raise ConfigurationError(
            f"point keys are per result family ('vectorized'/'object'), got {family!r}"
        )
    payload = {
        "schema": STORE_SCHEMA_VERSION,
        "engine": family,
        "kind": "adaptive",
        "point": point.canonical_base(),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def sweep_record(point: SweepPoint, result: TrialsResult, family: str) -> dict[str, Any]:
    """Build the stored record for one computed sweep point.

    ``engine`` names the result family.  Older records may carry
    ``vectorized-mp`` / ``object-mp`` there, or a second field naming the
    family; their keys are per family, so they are still served from the
    cache.
    """
    return {
        "kind": "sweep-point",
        "schema": STORE_SCHEMA_VERSION,
        "engine": family,
        "point": point.canonical(),
        "summary": result.summary(),
        "trial_fields": list(TrialSummary._fields),
        "trials": [list(summary) for summary in result.trials],
    }


def adaptive_record(
    point: SweepPoint,
    result: TrialsResult,
    family: str,
    *,
    precision: float,
    batch_size: int,
    max_trials: int,
    z: float,
) -> dict[str, Any]:
    """Build the stored record for one point's accumulated adaptive result.

    The layout is a :func:`sweep_record` whose embedded point carries the
    *accumulated* trial count (so :func:`result_from_record` rebuilds the
    full :class:`~repro.core.runner.TrialsResult` unchanged), plus an
    ``adaptive`` block recording the targets the accumulation ran under.
    """
    from dataclasses import replace

    accumulated = replace(point, trials=result.num_trials)
    record = sweep_record(accumulated, result, family)
    record["kind"] = "adaptive-point"
    record["adaptive"] = {
        "precision": precision,
        "batch_size": batch_size,
        "max_trials": max_trials,
        "z": z,
        "initial_trials": point.trials,
    }
    return record


def result_from_record(record: Mapping[str, Any]) -> TrialsResult:
    """Rebuild a full :class:`~repro.core.runner.TrialsResult` from a stored
    sweep-point record (one-shot ``sweep-point`` and accumulated
    ``adaptive-point`` records share the trial-table layout)."""
    if record.get("kind") not in ("sweep-point", "adaptive-point"):
        raise ConfigurationError(
            f"record is not a sweep point (kind={record.get('kind')!r})"
        )
    point = SweepPoint.from_mapping(record["point"])
    names = record["trial_fields"]
    summaries = [
        TrialSummary(**dict(zip(names, values))) for values in record["trials"]
    ]
    # Records written before the sharded families were folded into their
    # result families name them ``vectorized-mp`` / ``object-mp``.
    return TrialsResult(
        experiment=point.experiment(), trials=summaries,
        engine=record["engine"].removesuffix("-mp"),
    )


class ResultsStore:
    """Append-only JSONL store with an in-memory latest-record view.

    Open is cheap (one scan of the shard files); all reads are served from
    memory, every :meth:`put` appends to disk before returning.  Safe to
    re-open after a kill at any point — see the module docstring for the
    durability contract.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.root.mkdir(parents=True, exist_ok=True)
        self._records: dict[str, dict[str, Any]] = {}
        self._lines = 0
        self._load()

    # -- loading -------------------------------------------------------
    def _shard_path(self, key: str) -> Path:
        return self.root / f"shard-{key[:2]}.jsonl"

    def _load(self) -> None:
        for shard in sorted(self.root.glob("shard-*.jsonl")):
            data = shard.read_bytes()
            end = data.rfind(b"\n") + 1
            if end < len(data):
                # A torn final line from an interrupted append: the point was
                # never acknowledged, so it is simply recomputed on resume.
                # Cut it off, or the next append would extend the fragment
                # into one unparseable line and lose an acknowledged record.
                os.truncate(shard, end)
            for line in data[:end].split(b"\n"):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:  # a garbled line carries no usable record
                    continue
                key = record.get("key")
                if isinstance(key, str) and key:
                    self._records[key] = record
                    self._lines += 1

    # -- reads ---------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def appended_lines(self) -> int:
        """Total record lines on disk (>= len(self): the trajectory depth)."""
        return self._lines

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    def get(self, key: str) -> dict[str, Any] | None:
        """The latest record stored under ``key`` (or None)."""
        current_tracer().count("store.read")
        return self._records.get(key)

    def records(self) -> list[dict[str, Any]]:
        """All latest records."""
        return list(self._records.values())

    # -- writes --------------------------------------------------------
    def put(self, key: str, record: Mapping[str, Any]) -> None:
        """Append one record under ``key`` (flushed before returning)."""
        if not key:
            raise ConfigurationError("a store key must be non-empty")
        current_tracer().count("store.write")
        stamped = {
            "key": key,
            **record,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        line = json.dumps(stamped, sort_keys=True, separators=(",", ":"))
        path = self._shard_path(key)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._records[key] = stamped
        self._lines += 1

    def flush_index(self) -> None:
        """A no-op: ``sweepbench/layers.py`` times this name."""
