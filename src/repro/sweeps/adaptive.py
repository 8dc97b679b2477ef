"""Sequential, precision-targeted sweep execution.

The uniform executor (:mod:`repro.sweeps.executor`) spends a fixed trial
budget on every point of a grid, so low-variance points are oversampled while
crossover-region points get noisy estimates.  This module inverts that: each
:class:`~repro.sweeps.spec.SweepPoint` runs in *batches*, and after every
batch the executor measures two confidence intervals via
:mod:`repro.analysis.statistics` —

* the **Wilson interval** on the agreement rate (its full width), and
* the **relative CI width** on mean rounds (full width over the mean),

both at 95% confidence (:data:`~repro.analysis.statistics.Z_95`), and keeps
allocating further batches — always to the point whose widest of the two
measures is largest ("variance-greedy") — until every point is below the
``precision`` target or at its ``max_trials`` ceiling.

Reproducibility contract
------------------------
Batches run through :func:`repro.engine.run_sweep` with ``trial_offset`` set
to the point's accumulated trial count, so batch trials draw from the same
global counter streams — Philox key ``(base_seed, k)`` on the vectorised
kernels, master seed ``base_seed + k`` on the object family — they would use
in one unsplit sweep.  Concatenating the batches with
:meth:`repro.core.runner.TrialsResult.merge` is therefore **bit-identical**
to a one-shot run at the same total trial count, and because the greedy
allocation decisions depend only on the accumulated results (ties broken by
grid order), an interrupted-and-resumed adaptive run replays the identical
batch sequence and lands on the identical estimates.

Every completed batch immediately appends the point's *accumulated* record to
the content-addressed :class:`~repro.sweeps.store.ResultsStore` under its
trials-independent :func:`~repro.sweeps.store.adaptive_key`, so a kill at any
moment loses at most the in-flight batch: on resume, the latest durable
record per point is merged back in and only the remainder executes.

:func:`run_adaptive` is a plan over the uniform executor's sweep loop
(:mod:`repro.sweeps.executor`): that loop runs, stores and traces every
batch; this module picks the greedy batches and measures each point's
estimate once per batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.analysis.statistics import (
    Z_95,
    RateEstimate,
    mean_confidence_interval,
    relative_ci_width,
    success_rate,
)
from repro.core.runner import TrialsResult
from repro.exceptions import ConfigurationError
from repro.sweeps.executor import _PointState, _run_batches, spec_keys
from repro.sweeps.spec import SweepPoint, SweepSpec
from repro.sweeps.store import ResultsStore, adaptive_key, adaptive_record

#: Default per-point ceiling, in batches, when the spec sets no
#: ``max_trials``.
DEFAULT_CEILING_BATCHES = 64

#: Per-batch progress callback: ``(outcome, batches_so_far)``.
AdaptiveProgress = Callable[["BatchOutcome", int], None]


@dataclass(frozen=True)
class PrecisionTargets:
    """The resolved stopping rule of an adaptive spec."""

    precision: float
    batch_size: int
    max_trials: int


def resolve_targets(spec: SweepSpec) -> PrecisionTargets:
    """The spec's stopping rule, with its defaults filled in.

    The spec's ``trials`` is the initial batch every point receives;
    ``batch_size`` defaults to it, and ``max_trials`` defaults to
    :data:`DEFAULT_CEILING_BATCHES` batches.  :class:`SweepSpec` has already
    checked every field the spec sets.
    """
    if spec.precision is None:
        raise ConfigurationError(
            f"spec {spec.name!r} has no precision target; set the spec's "
            "'adaptive' block"
        )
    batch_size = spec.batch_size if spec.batch_size is not None else spec.trials
    max_trials = spec.max_trials
    if max_trials is None:
        max_trials = DEFAULT_CEILING_BATCHES * batch_size
        if max_trials < spec.trials:
            raise ConfigurationError(
                f"the default ceiling of {DEFAULT_CEILING_BATCHES} batches "
                f"({max_trials} trials) is below the initial trials "
                f"({spec.trials}); set the spec's max_trials"
            )
    return PrecisionTargets(
        precision=spec.precision, batch_size=batch_size, max_trials=max_trials,
    )


@dataclass(frozen=True)
class PointEstimate:
    """The current precision state of one point."""

    point: SweepPoint
    key: str
    trials: int
    agreement: RateEstimate | None
    rounds_mean: float | None
    rounds_low: float | None
    rounds_high: float | None
    rounds_rel_width: float | None
    width: float  # max(agreement width, rounds relative width); inf if no data
    converged: bool
    ceiling_hit: bool

    @property
    def status(self) -> str:
        if self.trials == 0:
            return "pending"
        if self.converged:
            return "converged"
        if self.ceiling_hit:
            return "ceiling"
        return "partial"


def estimate_point(
    point: SweepPoint,
    key: str,
    result: TrialsResult | None,
    targets: PrecisionTargets,
) -> PointEstimate:
    """Measure one point's precision state from its accumulated result."""
    if result is None or result.num_trials == 0:
        return PointEstimate(
            point=point, key=key, trials=0, agreement=None, rounds_mean=None,
            rounds_low=None, rounds_high=None, rounds_rel_width=None,
            width=math.inf, converged=False, ceiling_hit=False,
        )
    trials = result.num_trials
    successes = sum(trial.agreement for trial in result.trials)
    agreement = success_rate(successes, trials)
    rounds = mean_confidence_interval([float(trial.rounds) for trial in result.trials])
    mean, low, high = rounds
    rel_width = relative_ci_width(rounds)
    width = max(agreement.width, rel_width)
    return PointEstimate(
        point=point,
        key=key,
        trials=trials,
        agreement=agreement,
        rounds_mean=mean,
        rounds_low=low,
        rounds_high=high,
        rounds_rel_width=rel_width,
        width=width,
        converged=width <= targets.precision,
        ceiling_hit=trials >= targets.max_trials,
    )


@dataclass(frozen=True)
class BatchOutcome:
    """What one executed batch did (for progress reporting)."""

    point: SweepPoint
    key: str
    batch_trials: int
    total_trials: int
    width: float
    converged: bool
    engine: str
    seconds: float


@dataclass
class AdaptiveRunReport:
    """Outcome of one :func:`run_adaptive` invocation."""

    spec: SweepSpec
    targets: PrecisionTargets
    estimates: list[PointEstimate]
    computed_trials: int
    computed_batches: int
    seconds: float
    states: list[_PointState] = field(repr=False)

    @property
    def total(self) -> int:
        return len(self.estimates)

    @property
    def total_trials(self) -> int:
        return sum(estimate.trials for estimate in self.estimates)

    @property
    def converged(self) -> int:
        return sum(estimate.converged for estimate in self.estimates)

    @property
    def at_ceiling(self) -> int:
        return sum(
            estimate.ceiling_hit and not estimate.converged
            for estimate in self.estimates
        )

    def summary_line(self) -> str:
        """One machine-greppable line (asserted by the CI adaptive-smoke job)."""
        return (
            f"adaptive sweep {self.spec.name}: {self.total} points, "
            f"{self.total_trials} trials (+{self.computed_trials} computed), "
            f"{self.converged} converged, {self.at_ceiling} at ceiling, "
            f"precision {self.targets.precision:g} (engine {self.spec.engine}, "
            f"{self.seconds:.2f}s)"
        )


def run_adaptive(
    spec: SweepSpec,
    *,
    store: ResultsStore,
    workers: int | None = None,
    limit: int | None = None,
    progress: AdaptiveProgress | None = None,
) -> AdaptiveRunReport:
    """Run ``spec`` adaptively: batches go where the error bars are widest.

    Args:
        store: Results store; each point's accumulated record is read on
            entry (resume) and appended after every completed batch.
        workers: Execution policy, forwarded to
            :func:`repro.engine.run_sweep`; results never depend on it.
        limit: Execute at most this many *batches* (``>= 0``), leaving the
            rest for a later (resumed) invocation — the CI resume check uses
            this to emulate an interrupted run deterministically; ``0`` is
            :func:`adaptive_status`.
        progress: Called once per executed batch.

    Returns:
        An :class:`AdaptiveRunReport`; interruptions (KeyboardInterrupt) are
        NOT swallowed, but every batch completed before one is already
        durable in the store.
    """
    started = time.perf_counter()
    targets = resolve_targets(spec)

    def estimate(state: _PointState) -> PointEstimate:
        # One estimate per point, refreshed only after that point's batch.
        if state.estimate is None:
            state.estimate = estimate_point(state.point, state.key, state.result, targets)
        return state.estimate

    def pick(states: list[_PointState]) -> tuple[_PointState, int] | None:
        # Variance-greedy allocation.  Every decision depends only on the
        # accumulated results (max() keeps the first of tied widths, and
        # states iterate in grid order), so an interrupted run resumed from
        # the store replays the identical batch sequence.
        open_states = [
            state for state in states
            if state.trials < targets.max_trials and not estimate(state).converged
        ]
        if not open_states:
            return None
        widest = max(open_states, key=lambda state: estimate(state).width)
        return widest, min(targets.batch_size, targets.max_trials - widest.trials)

    def after(state: _PointState, count: int, seconds: float, batches: int) -> dict[str, Any]:
        # The batch moved this point's estimate; the returned span annotation
        # replays the greedy width trajectory.
        state.estimate = None
        current = estimate(state)
        if progress is not None:
            progress(
                BatchOutcome(
                    point=state.point, key=state.key, batch_trials=count,
                    total_trials=current.trials, width=current.width,
                    converged=current.converged, engine=state.result.engine,
                    seconds=seconds,
                ),
                batches,
            )
        return {"total_trials": current.trials, "width": current.width,
                "converged": current.converged}

    states, executed = _run_batches(
        spec, store=store, workers=workers, limit=limit,
        key=adaptive_key,
        record=partial(
            adaptive_record, precision=targets.precision,
            batch_size=targets.batch_size, max_trials=targets.max_trials, z=Z_95,
        ),
        pick=pick, after=after,
    )
    return AdaptiveRunReport(
        spec=spec,
        targets=targets,
        estimates=[estimate(state) for state in states],
        computed_trials=sum(state.computed_trials for state in states),
        computed_batches=executed,
        seconds=time.perf_counter() - started,
        states=states,
    )


def adaptive_status(spec: SweepSpec, *, store: ResultsStore) -> AdaptiveRunReport:
    """Precision coverage of ``spec`` in ``store``: a run with a zero budget."""
    return run_adaptive(spec, store=store, limit=0)


def adaptive_report_rows(spec: SweepSpec, *, store: ResultsStore) -> list[dict[str, Any]]:
    """Result table of an adaptive spec, read entirely from the store.

    One row per point with the accumulated trial count and both intervals;
    uncomputed points appear with empty measurement cells.
    """
    report = adaptive_status(spec, store=store)
    rows = []
    for estimate in report.estimates:
        point = estimate.point
        agreement = estimate.agreement
        rows.append(
            {
                "protocol": point.protocol,
                "adversary": point.adversary,
                "n": point.n,
                "t": point.t,
                "trials": estimate.trials or None,
                "agreement_rate": None if agreement is None else agreement.rate,
                "agree_low": None if agreement is None else agreement.low,
                "agree_high": None if agreement is None else agreement.high,
                "mean_rounds": estimate.rounds_mean,
                "rounds_low": estimate.rounds_low,
                "rounds_high": estimate.rounds_high,
                "ci_width": (
                    None if estimate.trials == 0 else estimate.width
                ),
                "status": estimate.status,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Deterministic allocation-plan table (embedded in docs/sweeps.md)
# ----------------------------------------------------------------------
def adaptive_plan_table(spec: SweepSpec) -> list[dict[str, Any]]:
    """The deterministic allocation plan of an adaptive spec, as table rows.

    Everything here is derivable without running a single trial: the
    expanded grid, each point's seed range start, the initial batch, the
    increment and the ceiling.  Rendered (for the ``crossover-adaptive``
    library spec) into ``docs/sweeps.md`` as a drift-guarded example table.
    """
    targets = resolve_targets(spec)
    rows = []
    for index, (point, key) in enumerate(spec_keys(spec, key=adaptive_key)):
        rows.append(
            {
                "#": index,
                "protocol": point.protocol,
                "adversary": point.adversary,
                "n": point.n,
                "t": point.t,
                "base_seed": point.base_seed,
                "initial": point.trials,
                "batch": targets.batch_size,
                "ceiling": targets.max_trials,
                "precision": targets.precision,
                "key": key[:12],
            }
        )
    return rows


def markdown_adaptive_plan() -> str:
    """The ``crossover-adaptive`` allocation plan as a marked markdown block.

    ``docs/sweeps.md`` embeds this block between the same markers and
    ``tests/test_docs.py`` asserts the embedded copy is byte-identical, so
    the documented adaptive example can never drift from the live spec.
    """
    from repro.metrics.reporting import format_markdown_table
    from repro.sweeps.library import get_spec

    table = format_markdown_table(adaptive_plan_table(get_spec("crossover-adaptive")))
    return (
        "<!-- sweeps:adaptive-plan:begin -->\n"
        f"{table}\n"
        "<!-- sweeps:adaptive-plan:end -->"
    )


__all__ = [
    "AdaptiveRunReport",
    "BatchOutcome",
    "DEFAULT_CEILING_BATCHES",
    "PointEstimate",
    "PrecisionTargets",
    "adaptive_plan_table",
    "adaptive_report_rows",
    "adaptive_status",
    "estimate_point",
    "markdown_adaptive_plan",
    "resolve_targets",
    "run_adaptive",
]
