"""The instrumentation surface: context-scoped spans and counters.

Every instrumentation site in the execution stack reads the *current* tracer
(:func:`current_tracer`) and calls :meth:`~Tracer.span` or
:meth:`~Tracer.count` on it.  By default the current tracer is the singleton
:data:`NULL_TRACER`, whose methods do nothing and whose ``span`` returns one
shared, stateless context manager — the disabled path is a global read plus
an empty method call, cheap enough to leave in the PhaseEngine phase loop and
the plane-op hot paths (asserted <2% of engine throughput by
``benchmarks/bench_trace_overhead.py``).

A real :class:`Tracer` is installed for the duration of a ``with
activate(tracer):`` block (the CLI does this for ``--trace`` /
``REPRO_TRACE=1``).  Activation is per process: the workers of a sharded
(``workers > 1``) sweep of either engine family receive an explicit
child-trace assignment with their trial range instead of inheriting the
parent's tracer.

Determinism contract: tracing reads :func:`time.perf_counter_ns` and mutates
its own event list — it never draws randomness or touches simulation state,
so results are bit-identical with tracing on or off.  Span *sequence numbers*
(assigned at span entry) are deterministic for a deterministic call sequence;
only the recorded clock values vary between runs.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

__all__ = [
    "ENV_VAR",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "activate",
    "current_tracer",
    "env_enabled",
]

#: Environment switch: any value other than ""/"0"/"false"/"no"/"off"
#: (case-insensitive) enables tracing on the CLI entry points.
ENV_VAR = "REPRO_TRACE"


def env_enabled(environ: Mapping[str, str] | None = None) -> bool:
    """True when :data:`ENV_VAR` requests tracing."""
    value = (environ if environ is not None else os.environ).get(ENV_VAR, "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


class _NullSpan:
    """The shared no-op span: enter/exit do nothing, carry no state."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **meta: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    One module-level instance (:data:`NULL_TRACER`) serves every
    instrumentation site; nothing is ever recorded.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, **meta: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def counter_value(self, name: str) -> int:
        return 0

    @property
    def counters(self) -> dict[str, int]:
        return {}


NULL_TRACER = NullTracer()


class _Span:
    """One live span; used as a context manager by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "meta", "seq", "parent", "_start")

    def __init__(self, tracer: "Tracer", name: str, meta: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.meta = meta

    def annotate(self, **meta: Any) -> None:
        """Attach metadata discovered while the span is open."""
        self.meta.update(meta)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack
        self.parent = stack[-1] if stack else None
        self.seq = tracer._seq
        tracer._seq += 1
        stack.append(self.seq)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter_ns()
        tracer = self._tracer
        tracer._stack.pop()
        event: dict[str, Any] = {
            "event": "span",
            "name": self.name,
            "seq": self.seq,
            "parent": self.parent,
            "shard": tracer.shard,
            "start_ns": self._start - tracer._epoch,
            "duration_ns": end - self._start,
        }
        if self.meta:
            event["meta"] = self.meta
        tracer._events.append(event)
        return False


class Tracer:
    """An enabled tracer: records spans, raw events and integer counters.

    Args:
        run_id: Identifier stamped into the exported trace header.
        shard: Worker-shard index for child tracers created inside
            sharded sweep workers (``None`` for the parent process).
    """

    enabled = True

    def __init__(self, run_id: str | None = None, shard: int | None = None) -> None:
        self.run_id = run_id
        self.shard = shard
        self._events: list[dict[str, Any]] = []
        self._counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._seq = 0
        self._epoch = time.perf_counter_ns()

    # ------------------------------------------------------------ recording
    def span(self, name: str, **meta: Any) -> _Span:
        """A context manager timing one named stage (nestable)."""
        return _Span(self, name, meta)

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named integer counter."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount

    def emit(self, event: dict[str, Any]) -> None:
        """Record a pre-built event (e.g. an ``object_round``) in sequence."""
        event = dict(event)
        event.setdefault("seq", self._seq)
        self._seq = max(self._seq, int(event["seq"]) + 1)
        event.setdefault("shard", self.shard)
        self._events.append(event)

    def absorb(self, events: list[dict[str, Any]], shard: int) -> None:
        """Merge a child trace's events, re-tagged with the worker's shard.

        Child span/raw events keep their own sequence numbers (their process'
        deterministic call order); counter totals fold into this tracer's
        counters.  Export order is ``(shard, seq)`` with the parent's own
        events first, so the merged trace is deterministic regardless of
        worker scheduling.
        """
        for event in events:
            kind = event.get("event")
            if kind == "trace":
                continue
            if kind == "counter":
                self.count(str(event["name"]), int(event["value"]))
                continue
            merged = dict(event)
            merged["shard"] = shard
            self._events.append(merged)

    # ------------------------------------------------------------ inspection
    def counter_value(self, name: str) -> int:
        return self._counters.get(name, 0)

    @property
    def counters(self) -> dict[str, int]:
        return dict(self._counters)

    def events(self) -> list[dict[str, Any]]:
        """Recorded span/raw events, sorted by (shard, sequence).

        Parent-process events (``shard`` ``None``) sort first; each worker
        shard follows in index order, each internally in sequence order —
        the deterministic merge order of a sharded (``workers > 1``) trace.
        """
        return sorted(
            self._events,
            key=lambda event: (
                -1 if event.get("shard") is None else int(event["shard"]),
                int(event.get("seq", 0)),
            ),
        )


#: The process-wide current tracer.  A plain module global (not a
#: contextvar): reads are on the engine's per-phase path and the plane-op
#: path, and the execution stack records from one thread per process (the
#: loss-draw threads of :mod:`repro.topology.loss` never touch the tracer).
_ACTIVE: Tracer | NullTracer = NULL_TRACER


def current_tracer() -> Tracer | NullTracer:
    """The tracer instrumentation sites should record into."""
    return _ACTIVE


@contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the current tracer for the block's duration."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous
