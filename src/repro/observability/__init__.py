"""Telemetry: span tracing, stage counters, and profiling surfaces.

The subsystem has three layers:

:mod:`repro.observability.tracer`
    The instrumentation surface.  A context-scoped :class:`Tracer` records
    monotonic-clock spans and integer counters; the module-level default is a
    :class:`NullTracer` whose every method is a no-op, so the instrumentation
    sites threaded through the execution stack (PhaseEngine stages, plane-op
    counters, sweep dispatch, the store) cost nothing unless a tracer is
    activated via ``--trace`` / ``REPRO_TRACE=1``.

:mod:`repro.observability.export`
    The JSONL event exporter: one schema-versioned event per span / counter /
    object-simulator round, written under ``benchmarks/results/traces/`` and
    re-loadable (with validation) for reporting.  Child traces from the
    sharded (``workers > 1``) workers of either engine family merge
    deterministically by (shard, sequence).

:mod:`repro.observability.report`
    Aggregation: folds a trace's spans into a per-stage wall-time breakdown
    (call counts, cumulative and self time, share of traced wall time) plus
    the counter totals — the table behind ``repro trace report``.

Telemetry never changes results: tracing reads clocks and increments
counters, it draws no randomness and touches no simulation state, so outputs
and sweep-store keys are bit-identical with tracing on or off.
"""

from repro.observability.export import (
    TRACE_SCHEMA_VERSION,
    default_traces_dir,
    object_trace_events,
    read_trace,
    trace_events,
    validate_events,
    write_trace,
)
from repro.observability.report import (
    counter_rows,
    render_report,
    stage_rows,
    trace_breakdown,
)
from repro.observability.tracer import (
    ENV_VAR,
    NULL_TRACER,
    NullTracer,
    Tracer,
    activate,
    current_tracer,
    env_enabled,
)

__all__ = [
    "ENV_VAR",
    "NULL_TRACER",
    "NullTracer",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "activate",
    "counter_rows",
    "current_tracer",
    "default_traces_dir",
    "env_enabled",
    "object_trace_events",
    "read_trace",
    "render_report",
    "stage_rows",
    "trace_breakdown",
    "trace_events",
    "validate_events",
    "write_trace",
]
