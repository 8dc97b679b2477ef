"""Schema-versioned JSONL trace export and validation.

A trace file is newline-delimited JSON: a ``trace`` header line first, then
one event per line.  The event vocabulary:

``trace``
    Header: ``{"event": "trace", "schema": 1, "run_id": ..., "meta": {...}}``.
    ``schema`` is :data:`TRACE_SCHEMA_VERSION`; readers reject other versions.

``span``
    One closed span: ``name``, ``seq`` (entry order within its process),
    ``parent`` (enclosing span's ``seq`` or ``null``), ``shard`` (worker
    index, ``null`` in the parent process), ``start_ns`` (offset from the
    tracer's epoch) and ``duration_ns`` on the monotonic clock, plus an
    optional ``meta`` object.

``counter``
    One flushed counter total: ``name`` and integer ``value``.  Counters are
    flushed once at export time; the child counters of sharded
    (``workers > 1``) workers fold into the parent totals before the flush.

``object_round`` / ``object_summary``
    The object simulator's :class:`~repro.simulator.trace.ExecutionTrace`
    rendered into the same stream: one ``object_round`` per
    :class:`~repro.simulator.trace.RoundRecord` and one ``object_summary``
    carrying :meth:`ExecutionTrace.summary`.

Files are written under :func:`default_traces_dir`
(``benchmarks/results/traces/`` unless ``REPRO_TRACE_DIR`` overrides it) as
``<run_id>.jsonl``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable

from repro.observability.tracer import Tracer

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "default_traces_dir",
    "object_trace_events",
    "read_trace",
    "trace_events",
    "validate_events",
    "write_trace",
]

#: Version stamped into (and required of) every trace header.
TRACE_SCHEMA_VERSION = 1

#: Directory override for exported traces.
DIR_ENV_VAR = "REPRO_TRACE_DIR"

#: The known event vocabulary.
EVENT_TYPES = frozenset(
    {"trace", "span", "counter", "object_round", "object_summary"}
)

#: Required keys (beyond ``event``) per event type.
_REQUIRED_KEYS = {
    "trace": ("schema",),
    "span": ("name", "seq", "parent", "shard", "start_ns", "duration_ns"),
    "counter": ("name", "value"),
    "object_round": ("round", "corrupted_total", "honest_decided"),
    "object_summary": ("rounds",),
}


def default_traces_dir() -> Path:
    """Where exported traces land: ``$REPRO_TRACE_DIR`` or the benchmark dir."""
    override = os.environ.get(DIR_ENV_VAR)
    if override:
        return Path(override)
    return Path("benchmarks") / "results" / "traces"


def trace_events(
    tracer: Tracer, *, run_id: str | None = None, meta: dict[str, Any] | None = None
) -> list[dict[str, Any]]:
    """The tracer's full event stream: header, spans/raw events, counters.

    Span and raw events come out in the deterministic (shard, sequence)
    order of :meth:`Tracer.events`; counter totals flush last, sorted by
    name.
    """
    header: dict[str, Any] = {
        "event": "trace",
        "schema": TRACE_SCHEMA_VERSION,
        "run_id": run_id if run_id is not None else tracer.run_id,
    }
    if meta:
        header["meta"] = meta
    events = [header]
    events.extend(tracer.events())
    for name in sorted(tracer.counters):
        events.append(
            {
                "event": "counter",
                "name": name,
                "value": tracer.counters[name],
                "shard": None,
            }
        )
    return events


def write_trace(
    tracer: Tracer,
    path: str | Path | None = None,
    *,
    run_id: str | None = None,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Export ``tracer`` as a JSONL file and return the path written.

    Without an explicit ``path`` the file is
    ``<default_traces_dir>/<run_id>.jsonl`` (the tracer's own ``run_id`` when
    the argument is omitted).
    """
    events = trace_events(tracer, run_id=run_id, meta=meta)
    if path is None:
        chosen = run_id if run_id is not None else tracer.run_id
        if not chosen:
            raise ValueError("write_trace needs a run_id (or an explicit path)")
        path = default_traces_dir() / f"{chosen}.jsonl"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    return path


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Load and validate a JSONL trace file."""
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: not JSON: {error}") from None
            events.append(event)
    validate_events(events, source=str(path))
    return events


def validate_events(
    events: Iterable[dict[str, Any]], *, source: str = "trace"
) -> list[dict[str, Any]]:
    """Check an event stream against the schema; raises ``ValueError``.

    Asserts: a header first line with the supported schema version, known
    event types, each event's required keys present, and integer span
    timings/sequence numbers.  Returns the events unchanged on success.
    """
    events = list(events)
    if not events:
        raise ValueError(f"{source}: empty trace")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"{source}: event {index} is not an object")
        kind = event.get("event")
        if kind not in EVENT_TYPES:
            raise ValueError(f"{source}: event {index} has unknown type {kind!r}")
        missing = [key for key in _REQUIRED_KEYS[kind] if key not in event]
        if missing:
            raise ValueError(
                f"{source}: {kind} event {index} is missing keys {missing}"
            )
        if index == 0:
            if kind != "trace":
                raise ValueError(f"{source}: first event must be the trace header")
            if event["schema"] != TRACE_SCHEMA_VERSION:
                raise ValueError(
                    f"{source}: unsupported schema version {event['schema']!r} "
                    f"(supported: {TRACE_SCHEMA_VERSION})"
                )
        elif kind == "trace":
            raise ValueError(f"{source}: duplicate trace header at event {index}")
        if kind == "span":
            for key in ("seq", "start_ns", "duration_ns"):
                if not isinstance(event[key], int):
                    raise ValueError(
                        f"{source}: span event {index} field {key!r} is not an int"
                    )
        if kind == "counter" and not isinstance(event["value"], int):
            raise ValueError(f"{source}: counter event {index} value is not an int")
    return events


def object_trace_events(trace: Any) -> list[dict[str, Any]]:
    """Render an :class:`~repro.simulator.trace.ExecutionTrace` as events.

    One ``object_round`` per :class:`~repro.simulator.trace.RoundRecord`
    followed by one ``object_summary`` built from
    :meth:`ExecutionTrace.summary` — the object simulator's per-round trace
    in the same JSONL schema the batched stack exports.
    """
    events: list[dict[str, Any]] = []
    for record in trace.records:
        events.append(
            {
                "event": "object_round",
                "round": record.round_index,
                "phase": record.phase,
                "newly_corrupted": list(record.newly_corrupted),
                "corrupted_total": record.corrupted_total,
                "honest_decided": record.honest_decided,
                "honest_terminated": record.honest_terminated,
                "messages": record.message_count,
                "bits": record.bit_count,
            }
        )
    events.append({"event": "object_summary", **trace.summary()})
    return events
