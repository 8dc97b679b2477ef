"""Resumable sweep execution.

:func:`run_spec` drives the pending points of a :class:`SweepSpec` through
:func:`repro.engine.run_sweep` and writes every result into a
:class:`~repro.sweeps.store.ResultsStore` as soon as it is computed, so an
interrupted sweep (Ctrl-C, OOM kill, pre-empted CI runner) can simply be
re-invoked: points whose content key is already stored are served from the
cache and only the remainder executes.  Multi-core machines additionally get
trial-range sharding for free — ``workers > 1`` spreads every computed point
over that many processes, bit-identically and under the same store key.

The executor is deliberately dumb about *what* it runs: every decision that
affects results (grid contents, seeds, engine family) is owned by the spec
and the store key, which is what makes caching sound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.engine import run_sweep, select_engine, validate_workers
from repro.exceptions import ConfigurationError
from repro.observability.tracer import current_tracer
from repro.sweeps.spec import SweepPoint, SweepSpec
from repro.sweeps.store import ResultsStore, point_key, sweep_record

#: Per-point progress callback: ``(outcome, index, total)``.
ProgressCallback = Callable[["PointOutcome", int, int], None]


@dataclass(frozen=True)
class PointOutcome:
    """What happened to one point of a sweep run."""

    point: SweepPoint
    key: str
    status: str  # "cached" | "computed" | "pending"
    engine: str = "-"
    seconds: float = 0.0


@dataclass
class SweepRunReport:
    """Outcome of one :func:`run_spec` invocation."""

    spec: SweepSpec
    engine: str
    outcomes: list[PointOutcome]
    seconds: float

    @property
    def total(self) -> int:
        return len(self.outcomes)

    def count(self, status: str) -> int:
        return sum(outcome.status == status for outcome in self.outcomes)

    @property
    def cached(self) -> int:
        return self.count("cached")

    @property
    def computed(self) -> int:
        return self.count("computed")

    @property
    def pending(self) -> int:
        return self.count("pending")

    @property
    def cache_hits(self) -> int:
        """Points served from the store."""
        return self.cached

    @property
    def cache_misses(self) -> int:
        """Points that had to execute, or still wait for a budget to run in."""
        return self.computed + self.pending

    def summary_line(self) -> str:
        """One machine-greppable line (asserted by the CI sweep-smoke job)."""
        return (
            f"sweep {self.spec.name}: {self.total} points, "
            f"{self.computed} computed, {self.cached} cached, "
            f"{self.pending} pending (engine {self.engine}, "
            f"{self.seconds:.2f}s)"
        )

    def cache_line(self) -> str:
        """The store-cache counter line (printed below the summary line)."""
        return (
            f"store cache: {self.cache_hits} hits, {self.cache_misses} misses "
            f"({self.computed} points computed, {self.cached} served from cache)"
        )


def spec_keys(
    spec: SweepSpec,
    *,
    engine: str | None = None,
    key: Callable[[SweepPoint, str], str] = point_key,
) -> list[tuple[SweepPoint, str]]:
    """Expand a spec and compute each point's content key.

    The key depends on the *result family* that would run the point
    (``select_engine`` per point — "auto" may resolve differently per
    configuration), never on how many processes run it.  ``key`` maps a
    point and its family to the key: :func:`point_key` for uniform runs, the
    trials-independent ``adaptive_key`` for adaptive ones.
    """
    requested = engine if engine is not None else spec.engine
    pairs = []
    for point in spec.expand():
        family = select_engine(
            point.protocol,
            point.adversary,
            engine=requested,
            max_rounds=point.max_rounds,
            topology=point.topology,
            loss=point.loss,
        )
        pairs.append((point, key(point, family)))
    return pairs


def run_spec(
    spec: SweepSpec,
    *,
    store: ResultsStore,
    engine: str | None = None,
    workers: int | None = None,
    limit: int | None = None,
    progress: ProgressCallback | None = None,
) -> SweepRunReport:
    """Execute the pending points of ``spec``, caching every result.

    Args:
        store: Results store consulted before and written after every point.
        engine: Engine override (defaults to the spec's own choice).
        workers: Processes per computed point (see
            :func:`repro.engine.run_sweep`); never part of a store key.
        limit: Execute at most this many *pending* points (``>= 0``),
            leaving the rest for a later invocation (the CI resume check uses
            this to emulate an interrupted run deterministically; ``0`` is
            :func:`status_spec`).
        progress: Called once per point, cached or computed, in grid order.

    Returns:
        A :class:`SweepRunReport`; interruptions (KeyboardInterrupt) are NOT
        swallowed, but every point computed before one is already durable in
        the store.
    """
    if limit is not None and limit < 0:
        raise ConfigurationError(f"limit must be >= 0, got {limit}")
    validate_workers(workers)
    if spec.adaptive:
        raise ConfigurationError(
            f"spec {spec.name!r} declares a precision target; run it with "
            "repro.sweeps.adaptive.run_adaptive (CLI: repro sweep run) "
            "instead of the uniform executor"
        )
    started = time.perf_counter()
    pairs = spec_keys(spec, engine=engine)
    requested = engine if engine is not None else spec.engine
    outcomes: list[PointOutcome] = []
    executed = 0
    tracer = current_tracer()
    for index, (point, key) in enumerate(pairs):
        cached = key in store
        # Traced runs feed sweepbench's sweeps.cache_hit_frac.
        tracer.count("store.cache_hit" if cached else "store.cache_miss")
        if cached:
            outcome = PointOutcome(point=point, key=key, status="cached",
                                   engine=store.get(key).get("engine", "-"))
        elif limit is not None and executed >= limit:
            outcome = PointOutcome(point=point, key=key, status="pending")
        else:
            point_started = time.perf_counter()
            with tracer.span("sweep.point", point=point.label(), key=key[:12]):
                result = run_sweep(
                    experiment=point.experiment(),
                    trials=point.trials,
                    base_seed=point.base_seed,
                    engine=requested,
                    workers=workers,
                )
                store.put(key, sweep_record(point, result, result.engine))
            executed += 1
            outcome = PointOutcome(
                point=point,
                key=key,
                status="computed",
                engine=result.engine,
                seconds=time.perf_counter() - point_started,
            )
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome, index, len(pairs))
    return SweepRunReport(
        spec=spec,
        engine=requested,
        outcomes=outcomes,
        seconds=time.perf_counter() - started,
    )


def status_spec(
    spec: SweepSpec,
    *,
    store: ResultsStore,
    engine: str | None = None,
) -> SweepRunReport:
    """Coverage of ``spec`` in ``store``: a run with a zero budget."""
    return run_spec(spec, store=store, engine=engine, limit=0)


def report_rows(
    spec: SweepSpec,
    *,
    store: ResultsStore,
    engine: str | None = None,
) -> list[dict[str, Any]]:
    """Result table of a spec, read entirely from the store.

    One row per point; uncomputed points appear with empty measurement cells
    so coverage gaps are visible rather than silently dropped.
    """
    from repro.metrics.reporting import sweep_report_rows

    pairs = spec_keys(spec, engine=engine)
    records = []
    for point, key in pairs:
        record = store.get(key)
        records.append((point, record))
    return sweep_report_rows(records)
