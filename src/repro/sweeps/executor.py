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

One private loop runs every sweep.  :func:`run_spec` is its uniform plan:
each point without a record gets one batch of its ``trials``.
:func:`repro.sweeps.adaptive.run_adaptive` is its adaptive plan: the same
first phase, then variance-greedy batches.  The two differ only in the store
key and the record they write.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.core.runner import TrialsResult
from repro.engine import run_sweep, select_engine, validate_workers
from repro.exceptions import ConfigurationError
from repro.observability.tracer import current_tracer
from repro.sweeps.spec import SweepPoint, SweepSpec
from repro.sweeps.store import ResultsStore, point_key, result_from_record, sweep_record

if TYPE_CHECKING:
    from repro.sweeps.adaptive import PointEstimate

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
            f"{self.pending} pending (engine {self.spec.engine}, "
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
    key: Callable[[SweepPoint, str], str] = point_key,
) -> list[tuple[SweepPoint, str]]:
    """Expand a spec and compute each point's content key.

    The key depends on the *result family* that would run the point
    (``select_engine`` per point on the spec's ``engine`` — "auto" may
    resolve differently per configuration), never on how many processes run
    it.  ``key`` maps a point and its family to the key: :func:`point_key`
    for uniform runs, the trials-independent ``adaptive_key`` for adaptive
    ones.
    """
    pairs = []
    for point in spec.expand():
        family = select_engine(
            point.protocol,
            point.adversary,
            engine=spec.engine,
            max_rounds=point.max_rounds,
            topology=point.topology,
            loss=point.loss,
        )
        pairs.append((point, key(point, family)))
    return pairs


@dataclass
class _PointState:
    """One point of a sweep run: its key, its latest record, and this run's work."""

    point: SweepPoint
    key: str
    record: dict[str, Any] | None
    computed_trials: int = 0
    computed_batches: int = 0
    seconds: float = 0.0
    estimate: PointEstimate | None = None  # the adaptive plan's, kept per batch

    @property
    def trials(self) -> int:
        """Accumulated trials, read from the record without decoding it."""
        return 0 if self.record is None else self.record["point"]["trials"]

    @cached_property
    def result(self) -> TrialsResult | None:
        """The accumulated result; a stored record is decoded on first use."""
        return None if self.record is None else result_from_record(self.record)


def _run_batches(
    spec: SweepSpec,
    *,
    store: ResultsStore,
    workers: int | None,
    limit: int | None,
    key: Callable[[SweepPoint, str], str],
    record: Callable[[SweepPoint, TrialsResult, str], dict[str, Any]],
    visit: Callable[[_PointState, int, int], None] | None = None,
    pick: Callable[[list[_PointState]], tuple[_PointState, int] | None] | None = None,
    after: Callable[[_PointState, int, float, int], dict[str, Any]] | None = None,
) -> tuple[list[_PointState], int]:
    """The one sweep loop; :func:`run_spec` and ``run_adaptive`` are plans over it.

    Every point is looked up once in ``store`` under ``key``.  The first
    phase walks the grid in order: a point below its spec ``trials`` gets
    one batch that tops it up, and ``visit(state, index, total)`` then sees
    the point.  The second phase runs the batches ``pick`` chooses until it
    returns None.  At most ``limit`` batches run in all.  A batch draws from
    the point's accumulated trial count on, under one ``sweep.point`` span;
    the merged result is stored at once as ``record`` builds it, and
    ``after(state, trials, seconds, batches)`` returns the span's annotation.

    Returns the point states in grid order and the number of batches run.
    """
    if limit is not None and limit < 0:
        raise ConfigurationError(f"limit must be >= 0, got {limit}")
    validate_workers(workers)
    tracer = current_tracer()
    states = [
        _PointState(point, digest, store.get(digest))
        for point, digest in spec_keys(spec, key=key)
    ]
    executed = 0

    def plan() -> Iterator[tuple[_PointState, int]]:
        # Resumed only after the loop below has run the batch it yielded, so
        # `executed` and every state are current at each budget check.
        for index, state in enumerate(states):
            # Traced runs feed sweepbench's sweeps.cache_hit_frac.
            tracer.count("store.cache_miss" if state.record is None else "store.cache_hit")
            if state.trials < state.point.trials and (limit is None or executed < limit):
                yield state, state.point.trials - state.trials
            if visit is not None:
                visit(state, index, len(states))
        while pick is not None and (limit is None or executed < limit):
            batch = pick(states)
            if batch is None:
                return
            yield batch

    for state, count in plan():
        started = time.perf_counter()
        with tracer.span("sweep.point", point=state.point.label(), key=state.key[:12],
                         offset=state.trials, trials=count) as span:
            result = run_sweep(
                experiment=state.point.experiment(),
                trials=count,
                base_seed=state.point.base_seed,
                engine=spec.engine,
                workers=workers,
                trial_offset=state.trials,
            )
            if state.trials:
                result = TrialsResult.merge([state.result, result])
            state.result = result
            state.record = record(state.point, result, result.engine)
            store.put(state.key, state.record)
            seconds = time.perf_counter() - started
            executed += 1
            state.computed_trials += count
            state.computed_batches += 1
            state.seconds += seconds
            if after is not None:
                span.annotate(**after(state, count, seconds, executed))
    return states, executed


def run_spec(
    spec: SweepSpec,
    *,
    store: ResultsStore,
    workers: int | None = None,
    limit: int | None = None,
    progress: ProgressCallback | None = None,
) -> SweepRunReport:
    """Execute the pending points of ``spec``, caching every result.

    The uniform plan over the sweep loop: each point without a record gets
    one batch of its ``trials``, and there is no second phase.

    Args:
        store: Results store consulted before and written after every point.
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
    if spec.adaptive:
        raise ConfigurationError(
            f"spec {spec.name!r} declares a precision target; run it with "
            "repro.sweeps.adaptive.run_adaptive (CLI: repro sweep run) "
            "instead of the uniform executor"
        )
    started = time.perf_counter()
    outcomes: list[PointOutcome] = []

    def visit(state: _PointState, index: int, total: int) -> None:
        record = state.record
        outcome = PointOutcome(
            point=state.point,
            key=state.key,
            status=(
                "computed" if state.computed_batches
                else "pending" if record is None else "cached"
            ),
            engine="-" if record is None else record.get("engine", "-"),
            seconds=state.seconds,
        )
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome, index, total)

    _run_batches(spec, store=store, workers=workers, limit=limit,
                 key=point_key, record=sweep_record, visit=visit)
    return SweepRunReport(
        spec=spec,
        outcomes=outcomes,
        seconds=time.perf_counter() - started,
    )


def status_spec(spec: SweepSpec, *, store: ResultsStore) -> SweepRunReport:
    """Coverage of ``spec`` in ``store``: a run with a zero budget."""
    return run_spec(spec, store=store, limit=0)


def report_rows(spec: SweepSpec, *, store: ResultsStore) -> list[dict[str, Any]]:
    """Result table of a spec, read entirely from the store.

    One row per point; uncomputed points appear with empty measurement cells
    so coverage gaps are visible rather than silently dropped.
    """
    from repro.metrics.reporting import sweep_report_rows

    pairs = spec_keys(spec)
    records = []
    for point, key in pairs:
        record = store.get(key)
        records.append((point, record))
    return sweep_report_rows(records)
