"""Unified sweep execution — one entry point, four engines.

Every multi-trial experiment in the repository is a *sweep*: the same
``(n, t, protocol, adversary, inputs)`` configuration repeated over a seed
range.  Four executors can run a sweep:

``vectorized``
    A batched NumPy kernel: all trials execute simultaneously on
    ``(trials, n)`` arrays.  The committee-family protocols run on the engine
    of :mod:`repro.simulator.vectorized`; every other baseline protocol has a
    dedicated kernel in :mod:`repro.baselines.kernels`.  Which
    ``(protocol, adversary)`` pairs qualify is recorded in the
    :data:`PROTOCOL_KERNELS` capability registry; qualifying sweeps run orders
    of magnitude faster than the object simulator and are the only practical
    option at thousand-node scale.

``object``
    The faithful per-message object simulator
    (:mod:`repro.simulator.scheduler`), one seeded run per trial.  Supports
    every protocol and adversary.

``vectorized-mp``
    The batched kernel sharded over a ``ProcessPoolExecutor`` by trial range:
    the ``trials`` counter range is split into contiguous per-worker
    sub-batches, each worker runs its range on the sweep's global Philox keys
    (trial ``k`` always uses key ``(base_seed, k)`` — the kernels'
    ``trial_offset`` contract) and the partial aggregates are merged exactly
    with :meth:`repro.core.runner.TrialsResult.merge`.  Bit-identical to
    ``vectorized``; only wall-clock time changes.

``object-mp``
    The object simulator fanned out over a ``ProcessPoolExecutor`` by seed
    range.  Bit-identical to ``object`` (trial ``k`` always uses master seed
    ``base_seed + k``); only wall-clock time changes.

:func:`run_sweep` auto-dispatches between them (``engine="auto"``) or obeys an
explicit choice.  The decision logic is exposed separately as
:func:`select_engine` so callers (and the README's dispatch table) can see
which configurations take the fast path.  :func:`run_coin_sweep` provides the
same dispatch for the standalone common-coin Monte-Carlo (experiment E2).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from repro.adversary.kernels.capabilities import derive_behaviours
from repro.baselines.kernels import (
    BASELINE_KERNELS,
    CoinTrialsResult,
    KernelSpec,
    run_coin_trials,
)
from repro.core.parameters import ProtocolParameters
from repro.core.runner import (
    ADVERSARIES,
    PROTOCOLS,
    AgreementExperiment,
    TrialsResult,
    TrialSummary,
    run_single_trial,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.observability.export import read_trace, write_trace
from repro.observability.tracer import Tracer, activate, current_tracer
from repro.simulator.planes import PlaneBackend, resolve_backend
from repro.simulator.vectorized import (
    COMMITTEE_ENGINE_HOOKS,
    COMMITTEE_PROTOCOLS,
    run_vectorized_trials,
)
from repro.topology.loss import validate_loss

#: Engine names accepted by :func:`run_sweep`.
ENGINES = ("auto", "vectorized", "vectorized-mp", "object", "object-mp")

#: Engine name -> result family.  Engines within one family are bit-identical
#: (the parallel variants only change wall-clock time), which is why the
#: sweep results store (:mod:`repro.sweeps.store`) keys cached results by
#: family rather than by concrete engine.
ENGINE_FAMILIES = {
    "vectorized": "vectorized",
    "vectorized-mp": "vectorized",
    "object": "object",
    "object-mp": "object",
}

#: Object-simulator adversary names -> committee-engine behaviours, derived
#: from the committee engine's full hook surface (the vectorised names
#: themselves are accepted as aliases so existing callers of
#: ``run_vectorized_trials`` can migrate without renaming).  Every registered
#: adversary strategy has a committee-family fast path.
ADVERSARY_FAST_PATH = derive_behaviours(COMMITTEE_ENGINE_HOOKS)

#: The committee engine's bit-identity guarantee is against its own
#: single-trial vectorised path (same (seed, k) Philox keys), not the object
#: simulator — the object nodes draw committee shares from per-node streams —
#: so every committee fast-path pair is recorded as statistically validated.
_COMMITTEE_EXACT: frozenset[str] = frozenset()


def _committee_spec(protocol: str) -> KernelSpec:
    """Capability record for one committee-family protocol."""
    return KernelSpec(
        name="committee",
        run_trials=partial(run_vectorized_trials, protocol=protocol),
        hooks=COMMITTEE_ENGINE_HOOKS,
        exact=_COMMITTEE_EXACT,
        supports_params=True,
        supports_topology=True,
        supports_backend=True,
        protocol_kwargs=frozenset({"alpha"}),
    )


#: protocol -> kernel capability record: which adversaries (and options) have
#: a vectorised fast path.  Committee-family entries point at the committee
#: engine; the baselines bring their own kernels.
PROTOCOL_KERNELS: dict[str, KernelSpec] = {
    **{protocol: _committee_spec(protocol) for protocol in COMMITTEE_PROTOCOLS},
    **BASELINE_KERNELS,
}

#: Protocols with a vectorised implementation (for some adversaries).
VECTORIZED_PROTOCOLS = tuple(sorted(PROTOCOL_KERNELS))

#: Below this much estimated work (``trials * n^2`` message deliveries) the
#: process-pool startup cost outweighs the parallelism.
_MIN_WORK_FOR_PROCESSES = 5_000_000

#: Seed-range chunks handed out per worker (keeps the pool load-balanced when
#: per-seed run times vary).
_CHUNKS_PER_WORKER = 4


@dataclass
class SweepResult(TrialsResult):
    """A :class:`TrialsResult` that also records which engine produced it."""

    engine: str = "object"


def vectorizable(
    protocol: str,
    adversary: str,
    *,
    max_rounds: int | None = None,
    topology: str = "clique",
    loss: float = 0.0,
    protocol_kwargs: dict[str, Any] | None = None,
    adversary_kwargs: dict[str, Any] | None = None,
) -> bool:
    """True when the configuration has a modelled vectorised equivalent.

    The decision is a :data:`PROTOCOL_KERNELS` lookup: the pair must have a
    registered fault behaviour, any custom round cap must be honoured by the
    kernel, an off-clique topology or positive message loss requires the
    kernel's masked communication planes (``supports_topology``), protocol
    kwargs must be within the kernel's modelled set, and any adversary kwargs
    (e.g. explicit target lists or per-phase spend limits) force the object
    path.
    """
    spec = PROTOCOL_KERNELS.get(protocol)
    if spec is None:
        return False
    if adversary not in spec.behaviours:
        return False
    if max_rounds is not None and not spec.supports_max_rounds:
        return False
    if (topology != "clique" or loss > 0.0) and not spec.supports_topology:
        return False
    if adversary_kwargs:
        return False
    if protocol_kwargs and set(protocol_kwargs) - set(spec.protocol_kwargs):
        return False
    return True


def select_engine(
    protocol: str,
    adversary: str,
    *,
    engine: str = "auto",
    trials: int = 10,
    n: int = 0,
    workers: int | None = None,
    max_rounds: int | None = None,
    topology: str = "clique",
    loss: float = 0.0,
    protocol_kwargs: dict[str, Any] | None = None,
    adversary_kwargs: dict[str, Any] | None = None,
) -> str:
    """Resolve ``engine="auto"`` to a concrete engine name.

    Raises:
        ConfigurationError: For unknown engine names, or when
            ``engine="vectorized"`` is forced for a configuration no kernel
            models.
    """
    if engine not in ENGINES:
        raise ConfigurationError(f"unknown engine {engine!r}; available: {ENGINES}")
    fast = vectorizable(
        protocol,
        adversary,
        max_rounds=max_rounds,
        topology=topology,
        loss=loss,
        protocol_kwargs=protocol_kwargs,
        adversary_kwargs=adversary_kwargs,
    )
    if engine in ("vectorized", "vectorized-mp"):
        if not fast:
            raise ConfigurationError(
                f"no vectorized kernel for protocol={protocol!r} "
                f"adversary={adversary!r} with the given options; "
                "use engine='object' (or 'auto')"
            )
        return engine
    if engine == "auto":
        if fast:
            # An explicit workers= under auto is an explicit request for the
            # sharded pool (results are bit-identical either way).
            if workers is not None and workers > 1 and trials > 1:
                return "vectorized-mp"
            return "vectorized"
        if workers is not None:
            return "object-mp" if workers > 1 else "object"
        # Escalate to the process pool only when the sweep is big enough for
        # the pool startup to pay off.
        effective = os.cpu_count() or 1
        if effective > 1 and trials > 1 and trials * n * n >= _MIN_WORK_FOR_PROCESSES:
            return "object-mp"
        return "object"
    # Explicit "object" / "object-mp" choices are honored verbatim.
    return engine


def _seed_chunks(base_seed: int, trials: int, chunks: int) -> list[list[int]]:
    """Split the seed range into at most ``chunks`` contiguous pieces."""
    seeds = [base_seed + k for k in range(trials)]
    size = max(1, -(-len(seeds) // max(1, chunks)))
    return [seeds[i : i + size] for i in range(0, len(seeds), size)]


def _trials_chunk(payload: tuple[AgreementExperiment, list[int]]) -> list[TrialSummary]:
    """Worker entry point: run one contiguous seed range serially."""
    experiment, seeds = payload
    return [run_single_trial(experiment, seed) for seed in seeds]


def _run_object_sweep(
    experiment: AgreementExperiment,
    trials: int,
    base_seed: int,
    workers: int | None,
    parallel: bool,
) -> list[TrialSummary]:
    """Object-simulator sweep, serial or fanned out over processes.

    The parallel path is bit-identical to the serial one: seeds are assigned
    as ``base_seed + k`` either way and results are re-assembled in seed
    order.
    """
    if not parallel or trials < 2:
        return [run_single_trial(experiment, base_seed + k) for k in range(trials)]
    pool_size = workers if workers is not None else (os.cpu_count() or 1)
    pool_size = max(1, min(pool_size, trials))
    chunks = _seed_chunks(base_seed, trials, pool_size * _CHUNKS_PER_WORKER)
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        parts = list(pool.map(_trials_chunk, [(experiment, chunk) for chunk in chunks]))
    return [summary for part in parts for summary in part]


def _run_vectorized_sweep(
    experiment: AgreementExperiment,
    trials: int,
    base_seed: int,
    params: ProtocolParameters | None,
    trial_offset: int = 0,
    backend: str | PlaneBackend | None = None,
) -> list[TrialSummary]:
    """Batched kernel sweep: the kernel's :class:`TrialSummary` rows.

    Trial ``k`` of the call uses the counter-based Philox key
    ``(base_seed, trial_offset + k)``, and the kernel records the global key
    counter ``trial_offset + k`` as its row's ``seed``.
    """
    spec = PROTOCOL_KERNELS[experiment.protocol]
    kwargs: dict[str, Any] = {
        key: value
        for key, value in experiment.protocol_kwargs.items()
        if key in spec.protocol_kwargs
    }
    if spec.supports_params:
        kwargs["params"] = params
        if experiment.alpha is not None:
            kwargs["alpha"] = experiment.alpha
        else:
            kwargs.setdefault("alpha", 4.0)
    if spec.supports_max_rounds and experiment.max_rounds is not None:
        kwargs["max_rounds"] = experiment.max_rounds
    # Backends are bit-identical, so the choice is pure execution policy:
    # it never reaches the sweep-store keys, and kernels without plane state
    # (closed-form tallies) simply ignore it by not receiving it.
    if spec.supports_backend and backend is not None:
        kwargs["backend"] = backend
    # The clique/loss-free default passes *no* masking kwargs, keeping the
    # historical code path (and its results) bit for bit.
    if experiment.topology != "clique" or experiment.loss > 0.0:
        from repro.topology import build_topology

        if experiment.topology != "clique":
            kwargs["adjacency"] = build_topology(experiment.topology, experiment.n)
        kwargs["loss"] = experiment.loss
    rows = spec.run_trials(
        experiment.n,
        experiment.t,
        adversary=spec.behaviours[experiment.adversary],
        inputs=experiment.inputs,
        trials=trials,
        seed=base_seed,
        trial_offset=trial_offset,
        **kwargs,
    )
    if not experiment.allow_timeout and any(row.timed_out for row in rows):
        raise SimulationError(
            f"{experiment.protocol} sweep exceeded its round cap; "
            "pass allow_timeout=True to accept censored trials"
        )
    return rows


def _vectorized_shard(
    payload: tuple[
        AgreementExperiment,
        int,
        int,
        ProtocolParameters | None,
        int,
        str | PlaneBackend | None,
        tuple[int, str] | None,
    ],
) -> list[TrialSummary]:
    """Worker entry point: one contiguous trial range of a sharded sweep.

    When the parent is tracing, the payload carries a ``(shard_index, path)``
    child-trace assignment: the worker runs under its own shard-tagged
    :class:`Tracer` and exports it to ``path`` for the parent to merge
    (tracers are per process, never inherited through the pool).
    """
    experiment, count, base_seed, params, trial_offset, backend, trace_spec = payload
    if trace_spec is None:
        return _run_vectorized_sweep(
            experiment, count, base_seed, params, trial_offset, backend
        )
    shard_index, trace_path = trace_spec
    tracer = Tracer(run_id=f"shard-{shard_index}", shard=shard_index)
    with activate(tracer):
        summaries = _run_vectorized_sweep(
            experiment, count, base_seed, params, trial_offset, backend
        )
    write_trace(tracer, trace_path)
    return summaries


def _run_vectorized_sharded(
    experiment: AgreementExperiment,
    trials: int,
    base_seed: int,
    params: ProtocolParameters | None,
    workers: int | None,
    backend: str | PlaneBackend | None = None,
    trial_offset: int = 0,
) -> list[TrialSummary]:
    """The batched kernel sweep sharded over processes by trial range.

    The trial counter range ``[trial_offset, trial_offset + trials)`` is
    split into contiguous sub-batches; each worker runs its sub-batch with
    ``trial_offset`` set to the range start, so every trial draws from the
    same ``(base_seed, k)`` Philox key it would use in the single-process
    batch.  Partial aggregates are merged in range order via
    :meth:`TrialsResult.merge`, which makes the sharded sweep bit-identical
    to ``engine="vectorized"``.
    """
    pool_size = workers if workers is not None else (os.cpu_count() or 1)
    pool_size = max(1, min(pool_size, trials))
    if pool_size == 1:
        return _run_vectorized_sweep(
            experiment, trials, base_seed, params, trial_offset, backend
        )
    tracer = current_tracer()
    child_dir = (
        tempfile.mkdtemp(prefix="repro-trace-shards-") if tracer.enabled else None
    )
    size = -(-trials // pool_size)
    shards = []
    for shard_index, start in enumerate(range(0, trials, size)):
        trace_spec = (
            None
            if child_dir is None
            else (
                shard_index,
                os.path.join(child_dir, f"shard-{shard_index:03d}.jsonl"),
            )
        )
        shards.append(
            (
                experiment, min(size, trials - start), base_seed, params,
                trial_offset + start, backend, trace_spec,
            )
        )
    try:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(_vectorized_shard, shards))
        if child_dir is not None:
            # Merge the child traces in shard order; each child's events keep
            # their own sequence numbers, so the merged trace orders
            # deterministically by (shard, sequence) regardless of worker
            # scheduling.
            for payload in shards:
                trace_spec = payload[6]
                if trace_spec is not None and os.path.exists(trace_spec[1]):
                    tracer.absorb(read_trace(trace_spec[1]), shard=trace_spec[0])
    finally:
        if child_dir is not None:
            shutil.rmtree(child_dir, ignore_errors=True)
    merged = TrialsResult.merge(
        [TrialsResult(experiment=experiment, trials=part) for part in parts]
    )
    return merged.trials


def run_sweep(
    n: int | None = None,
    t: int | None = None,
    *,
    experiment: AgreementExperiment | None = None,
    protocol: str = "committee-ba",
    adversary: str = "coin-attack",
    inputs: str = "split",
    trials: int = 10,
    base_seed: int = 0,
    alpha: float | None = None,
    engine: str = "auto",
    workers: int | None = None,
    params: ProtocolParameters | None = None,
    max_rounds: int | None = None,
    allow_timeout: bool = False,
    topology: str = "clique",
    loss: float = 0.0,
    backend: str | PlaneBackend | None = None,
    trial_offset: int = 0,
    protocol_kwargs: dict[str, Any] | None = None,
    adversary_kwargs: dict[str, Any] | None = None,
) -> SweepResult:
    """Run a multi-trial sweep on the most appropriate engine.

    Either pass an :class:`AgreementExperiment` via ``experiment`` or describe
    the configuration with ``n``/``t`` and the keyword fields.

    Args:
        engine: ``"auto"`` (default) picks the batched vectorised kernel
            whenever :data:`PROTOCOL_KERNELS` registers one for the
            ``(protocol, adversary)`` pair and otherwise falls back to the
            object simulator, escalating to a multiprocessing executor when
            ``workers > 1`` is requested (trial-range sharding of the batched
            kernel) or the object sweep is large (seed-range fan-out);
            ``"vectorized"`` / ``"vectorized-mp"`` / ``"object"`` /
            ``"object-mp"`` force a path (``"object"`` never spawns
            processes).
        workers: Process count for the sharded executors (``None`` = one
            per CPU).  Results never depend on it.
        params: Committee-geometry override for the committee-family kernels
            (used by E3 to decouple the declared ``t`` from the attack
            budget).
        trials: Number of independent trials; trial ``k`` uses master seed
            ``base_seed + k`` (object engines) or Philox key
            ``(base_seed, k)`` (vectorised kernels).
        trial_offset: Start of the call's trial-counter range (default 0).
            Trial ``k`` of the call uses the *global* counter
            ``trial_offset + k`` — master seed ``base_seed + trial_offset +
            k`` on the object engines, Philox key ``(base_seed, trial_offset
            + k)`` on the vectorised kernels — so concatenating batches run
            at consecutive offsets is bit-identical to one unsplit sweep.
            This is the contract the sharded and adaptive executors build on.
        backend: ``None`` (the default) lets the plane kernels pick their
            representation by batch size
            (:data:`repro.simulator.phase_engine.PACKED_MIN_CELLS`);
            ``"numpy"``, ``"packed"`` or a
            :class:`~repro.simulator.planes.base.PlaneBackend` forces one, for
            bit-identity checks.  Both are bit-identical, so results — and
            sweep-store cache keys — never depend on it; the object engines
            and closed-form kernels have no planes and ignore it.

    Returns:
        A :class:`SweepResult` whose ``trials`` list and aggregate properties
        match :func:`repro.core.runner.run_trials`, with ``engine`` recording
        the executor actually used.
    """
    if trials < 1:
        raise ConfigurationError(f"num_trials must be positive, got {trials}")
    if trial_offset < 0:
        raise ConfigurationError(f"trial_offset must be >= 0, got {trial_offset}")
    if experiment is None:
        if n is None or t is None:
            raise ConfigurationError("run_sweep needs either (n, t) or experiment=")
        experiment = AgreementExperiment(
            n=n,
            t=t,
            protocol=protocol,
            adversary=adversary,
            inputs=inputs,
            alpha=alpha,
            max_rounds=max_rounds,
            allow_timeout=allow_timeout,
            topology=topology,
            loss=loss,
            protocol_kwargs=dict(protocol_kwargs or {}),
            adversary_kwargs=dict(adversary_kwargs or {}),
        )
    elif n is not None or t is not None:
        raise ConfigurationError("pass either (n, t) or experiment=, not both")
    validate_loss(experiment.loss)
    if backend is not None:
        resolve_backend(backend)

    tracer = current_tracer()
    with tracer.span(
        "dispatch.select_engine",
        protocol=experiment.protocol,
        adversary=experiment.adversary,
        requested=engine,
    ):
        chosen = select_engine(
            experiment.protocol,
            experiment.adversary,
            engine=engine,
            trials=trials,
            n=experiment.n,
            workers=workers,
            max_rounds=experiment.max_rounds,
            topology=experiment.topology,
            loss=experiment.loss,
            protocol_kwargs=experiment.protocol_kwargs,
            adversary_kwargs=experiment.adversary_kwargs,
        )
    if params is not None and (
        chosen not in ("vectorized", "vectorized-mp")
        or not PROTOCOL_KERNELS[experiment.protocol].supports_params
    ):
        raise ConfigurationError(
            "a committee-geometry override (params=) requires a vectorized "
            "committee-family kernel"
        )

    tracer.count(
        "dispatch.kernel_path"
        if chosen in ("vectorized", "vectorized-mp")
        else "dispatch.object_path"
    )
    with tracer.span(
        f"sweep.{chosen}",
        protocol=experiment.protocol,
        adversary=experiment.adversary,
        n=experiment.n,
        trials=trials,
    ):
        if chosen == "vectorized":
            summaries = _run_vectorized_sweep(
                experiment, trials, base_seed, params, trial_offset, backend
            )
        elif chosen == "vectorized-mp":
            summaries = _run_vectorized_sharded(
                experiment, trials, base_seed, params, workers, backend, trial_offset
            )
        else:
            # The object engines' global counter is the master seed itself:
            # trial k of the call runs on seed base_seed + trial_offset + k.
            summaries = _run_object_sweep(
                experiment, trials, base_seed + trial_offset, workers,
                parallel=chosen == "object-mp",
            )
    return SweepResult(experiment=experiment, trials=summaries, engine=chosen)


# ----------------------------------------------------------------------
# Common-coin Monte-Carlo dispatch (experiment E2)
# ----------------------------------------------------------------------
def run_coin_sweep(
    n: int,
    budget: int,
    *,
    trials: int = 100,
    base_seed: int = 0,
    engine: str = "auto",
) -> CoinTrialsResult:
    """Monte-Carlo sweep of the standalone common coin under the straddle.

    ``engine="auto"``/``"vectorized"`` runs the batched kernel
    (:func:`repro.baselines.kernels.run_coin_trials`): the whole
    ``(trials, n)`` flip plane is drawn at once and every trial's outcome is
    evaluated vectorised.  ``engine="object"`` repeats
    :func:`repro.core.common_coin.run_common_coin` with the full scheduler and
    a live :class:`~repro.adversary.strategies.coin_attack.CoinAttackAdversary`
    over seeds ``base_seed + k`` — the serial loop experiment E2 originally
    shipped, kept for cross-validation.  The two draw different randomness, so
    they agree statistically, not bit-for-bit.
    """
    if engine in ("auto", "vectorized"):
        return run_coin_trials(n, budget, trials=trials, seed=base_seed)
    if engine != "object":
        raise ConfigurationError(
            f"unknown coin-sweep engine {engine!r}; "
            "available: ('auto', 'vectorized', 'object')"
        )
    from repro.adversary.strategies.coin_attack import CoinAttackAdversary
    from repro.core.common_coin import run_common_coin

    common = np.zeros(trials, dtype=bool)
    values = np.zeros(trials, dtype=np.int8)
    for k in range(trials):
        outcome = run_common_coin(n, CoinAttackAdversary(budget), seed=base_seed + k)
        common[k] = outcome.common
        values[k] = outcome.value or 0
    return CoinTrialsResult(
        n=n, budget=budget, trials=trials, common=common, values=values, engine="object"
    )


# ----------------------------------------------------------------------
# Introspection tables (README / `python -m repro engines`)
# ----------------------------------------------------------------------
def dispatch_table() -> list[dict[str, str]]:
    """One row per protocol × adversary pair: which engine ``auto`` picks.

    Rendered in the README and by ``python -m repro engines``.  ``kernel``
    names the batched kernel serving the fast path and ``validation`` records
    whether that pair is bit-identical to the object simulator or
    statistically cross-validated.
    """
    rows = []
    for protocol in sorted(PROTOCOLS):
        spec = PROTOCOL_KERNELS.get(protocol)
        for adversary in sorted(ADVERSARIES):
            fast = vectorizable(protocol, adversary)
            if fast and spec:
                if adversary in spec.inapplicable:
                    validation = "exact (no-op)"
                elif adversary in spec.exact:
                    validation = "exact"
                else:
                    validation = "statistical"
            else:
                validation = "-"
            rows.append(
                {
                    "protocol": protocol,
                    "adversary": adversary,
                    "auto engine": "vectorized" if fast else "object",
                    "kernel": spec.name if fast and spec else "-",
                    "fast-path behaviour": spec.behaviours[adversary] if fast and spec else "-",
                    "validation": validation,
                }
            )
    return rows


def kernel_support_table() -> list[dict[str, str]]:
    """One row per protocol: its kernel and the adversaries it vectorises.

    ``inapplicable`` lists — explicitly — the strategies with no lever on the
    protocol (their object implementations provably no-op; the fast path runs
    the exact failure-free behaviour for them), and ``object only`` the pairs
    whose lever the kernels do not model.
    """
    rows = []
    for protocol in sorted(PROTOCOLS):
        spec = PROTOCOL_KERNELS.get(protocol)
        if spec is None:
            rows.append(
                {
                    "protocol": protocol,
                    "kernel": "-",
                    "vectorized adversaries": "-",
                    "inapplicable": "-",
                    "object only": "-",
                    "max_rounds": "-",
                    "plane backend": "-",
                }
            )
            continue
        inapplicable = sorted(spec.inapplicable)
        supported = sorted(
            name
            for name in spec.behaviours
            if name in ADVERSARIES and name not in spec.inapplicable
        )
        unmodelled = sorted(
            name for name in ADVERSARIES if name not in spec.behaviours
        )
        rows.append(
            {
                "protocol": protocol,
                "kernel": spec.name,
                "vectorized adversaries": ", ".join(supported),
                "inapplicable": ", ".join(inapplicable) if inapplicable else "-",
                "object only": ", ".join(unmodelled) if unmodelled else "-",
                "max_rounds": "yes" if spec.supports_max_rounds else "object only",
                "topology/loss": "masked" if spec.supports_topology else "object only",
                "plane backend": (
                    "by batch size" if spec.supports_backend else "numpy-bool"
                ),
            }
        )
    return rows


#: Off-clique validation tier per protocol, shown in the topology-support
#: table.  Deterministic protocols with replayable randomness stay *exact*
#: off-clique at ``loss == 0`` for the randomness-free behaviours; everything
#: else on the masked planes is statistical (the kernels and the object
#: nodes consume different streams); protocols without masked planes run
#: off-clique configurations on the object simulator only.
_TOPOLOGY_VALIDATION = {
    "phase-king": "exact (null/silent, loss=0); statistical otherwise",
    "rabin": "exact (null/silent, loss=0); statistical otherwise",
    "ben-or": "statistical",
}


def topology_support_table() -> list[dict[str, str]]:
    """One row per protocol: how off-clique / lossy configurations execute.

    ``off-clique engine`` reports where a ``topology != "clique"`` or
    ``loss > 0`` sweep runs (the masked vectorised planes, or the object
    simulator's per-round drop sets), and ``off-clique validation`` the
    cross-validation tier the test suite holds that path to.
    """
    rows = []
    for protocol in sorted(PROTOCOLS):
        spec = PROTOCOL_KERNELS.get(protocol)
        if spec is not None and spec.supports_topology:
            engine_name = "vectorized (masked planes)"
            validation = _TOPOLOGY_VALIDATION.get(protocol, "statistical")
        else:
            engine_name = "object (per-round drops)"
            validation = "object only"
        rows.append(
            {
                "protocol": protocol,
                "kernel": spec.name if spec is not None else "-",
                "off-clique engine": engine_name,
                "off-clique validation": validation,
            }
        )
    return rows


def markdown_engine_tables() -> dict[str, str]:
    """The introspection tables as marked, embeddable markdown blocks.

    Returns one block per table name (``"kernel-support"``, ``"dispatch"``,
    ``"topology-support"``): a GitHub-flavoured markdown table wrapped in
    ``<!-- engines:<name>:begin/end -->`` marker comments.  ``python -m repro
    engines --markdown`` prints these blocks verbatim; the README and
    ``docs/`` embed them between the same markers, and
    ``tests/test_docs.py`` asserts every embedded copy is byte-identical to
    this function's output — so the documented tables can never drift from
    the live :data:`PROTOCOL_KERNELS` registry.
    """
    from repro.metrics.reporting import format_markdown_table

    tables = {
        "kernel-support": format_markdown_table(kernel_support_table()),
        "dispatch": format_markdown_table(dispatch_table()),
        "topology-support": format_markdown_table(topology_support_table()),
    }
    return {
        name: (
            f"<!-- engines:{name}:begin -->\n"
            f"{table}\n"
            f"<!-- engines:{name}:end -->"
        )
        for name, table in tables.items()
    }


__all__ = [
    "ADVERSARY_FAST_PATH",
    "ENGINE_FAMILIES",
    "ENGINES",
    "PROTOCOL_KERNELS",
    "SweepResult",
    "VECTORIZED_PROTOCOLS",
    "dispatch_table",
    "kernel_support_table",
    "markdown_engine_tables",
    "run_coin_sweep",
    "run_sweep",
    "select_engine",
    "topology_support_table",
    "vectorizable",
]
