"""Unified sweep execution — one entry point, two engine families.

Every multi-trial experiment in the repository is a *sweep*: the same
``(n, t, protocol, adversary, inputs)`` configuration repeated over a seed
range.  The ``engine`` argument names the *result family* that runs it:

``vectorized``
    A batched NumPy kernel: all trials execute simultaneously on
    ``(trials, n)`` arrays.  The six two-round-phase protocols (committee-BA,
    Chor–Coan, Rabin and Ben-Or) run on the one entry of
    :mod:`repro.simulator.vectorized`, with the coin picked by the protocol
    name; phase king, EIG and sampling-majority have dedicated kernels in
    :mod:`repro.baselines.kernels`.  Which
    ``(protocol, adversary)`` pairs qualify is recorded in the
    :data:`PROTOCOL_KERNELS` capability registry; qualifying sweeps run orders
    of magnitude faster than the object simulator and are the only practical
    option at thousand-node scale.

``object``
    The faithful per-message object simulator
    (:mod:`repro.simulator.scheduler`), one seeded run per trial.  Supports
    every protocol and adversary.

``workers`` alone decides *placement*: ``workers=k > 1`` splits the trial
counter range into contiguous ranges run on a ``ProcessPoolExecutor`` of
``min(k, trials)`` processes, whichever family runs them.  Trial ``k``
always uses the same Philox key ``(base_seed, k)`` or master seed
``base_seed + k`` (the ``trial_offset`` contract), so a sharded sweep is
bit-identical to the in-process one; only wall-clock time changes.

:func:`run_sweep` auto-dispatches between the families (``engine="auto"``)
or obeys an explicit choice.  The decision logic is exposed separately as
:func:`select_engine` so callers (and the README's dispatch table) can see
which configurations take the fast path.  :func:`run_coin_sweep` provides the
same dispatch for the standalone common-coin Monte-Carlo (experiment E2).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Any, Callable

import numpy as np

from repro.adversary.kernels.capabilities import (
    fast_path_adversaries,
    inapplicable_adversaries,
)
from repro.baselines.kernels import (
    CoinTrialsResult,
    run_coin_trials,
)
from repro.baselines.kernels.eig import EIG_HOOKS, run_eig_trials
from repro.baselines.kernels.phase_king import PHASE_KING_HOOKS, run_phase_king_trials
from repro.baselines.kernels.sampling_majority import (
    SAMPLING_HOOKS,
    run_sampling_majority_trials,
)
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
from repro.simulator.draws import validate_seed
from repro.simulator.planes import PlaneBackend, resolve_backend
from repro.simulator.vectorized import (
    COMMITTEE_ENGINE_HOOKS,
    PHASE_PROTOCOLS,
    run_vectorized_trials,
)

#: Engine names accepted by :func:`run_sweep`: ``auto`` or a result family.
ENGINES = ("auto", "vectorized", "object")


@dataclass(frozen=True)
class KernelSpec:
    """Capability record for one protocol's batched kernel.

    Attributes:
        name: Kernel identifier shown in the engine-dispatch table.
        run_trials: Sweep entry point with the
            :func:`repro.simulator.vectorized.run_vectorized_trials`
            signature convention
            (``(n, t, *, adversary, inputs, trials, seed, ...)``), returning
            one :class:`~repro.core.runner.TrialSummary` row per trial in
            trial order.  Every kernel also honours ``trial_offset``: trial
            ``k`` of the call uses the Philox key ``(seed, trial_offset +
            k)`` and records ``seed = trial_offset + k``, so contiguous
            sub-batches concatenate bit-identically to one full batch (the
            contract ``run_sweep(..., workers=k)`` sharding relies on).
        hooks: The adversary hook surface the kernel implements (the
            :mod:`repro.adversary.kernels.capabilities` vocabulary), from
            which ``adversaries`` and ``inapplicable`` are derived.
        adversaries: Names of the adversaries with a fast path on this
            kernel.  A supported strategy runs its own plane kernel
            (:data:`repro.adversary.kernels.ADVERSARY_PLANE_KERNELS`); an
            inapplicable one runs the exact ``"null"`` kernel.
        inapplicable: The subset of ``adversaries`` with *no lever* on this
            protocol (their object implementations provably no-op); listed
            explicitly in the engine tables.
        exact: Adversary names whose kernel runs are bit-identical to the
            object simulator (everything else is statistically validated).
        supports_alpha: Kernel sizes its committees from ``alpha`` (the
            committee coin), so a run's ``alpha`` is forwarded to it; the
            other kernels have no committees to size and never receive it.
        supports_max_rounds: Kernel honours an explicit round cap
            (timed-out trials are reported, not mis-simulated).
        supports_topology: Kernel accepts ``adjacency``/``loss`` kwargs (the
            masked communication planes of :mod:`repro.topology`); protocols
            without it run off-clique configurations on the object path only.
        supports_backend: Kernel runs on the shared
            :class:`~repro.simulator.phase_engine.PhaseEngine` planes, which
            pick their representation by batch size, and accepts a
            ``backend`` kwarg forcing one (:mod:`repro.simulator.planes`).
            Phase king (raw boolean planes) and the closed-form kernels have
            no plane state to represent.  Both representations are
            bit-identical, so the flag never enters sweep-store keys.
    """

    name: str
    run_trials: Callable[..., list[TrialSummary]]
    hooks: frozenset[str]
    adversaries: frozenset[str] = field(init=False)
    inapplicable: frozenset[str] = field(init=False)
    exact: frozenset[str] = frozenset()
    supports_alpha: bool = False
    supports_max_rounds: bool = False
    supports_topology: bool = False
    supports_backend: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "adversaries", fast_path_adversaries(self.hooks))
        object.__setattr__(
            self, "inapplicable", inapplicable_adversaries(self.hooks)
        )


#: Kernel name of each two-round-phase coin source.
_PHASE_KERNEL_NAMES = {
    "committee": "committee",
    "dealer": "dealer-coin",
    "private": "private-coin",
}

#: protocol -> kernel capability record, the one registry dispatch reads.
#: The six two-round-phase protocols all run ``run_vectorized_trials``; the
#: other three baselines bring their own kernels.  ``exact`` marks the pairs
#: the cross-validation suite holds to bit-identity with the object
#: simulator.  The committee coin has none: the object nodes draw their
#: shares from per-node streams, so its pairs are validated statistically
#: (its bit-identity reference is its own single-trial path).
PROTOCOL_KERNELS: dict[str, KernelSpec] = {
    **{
        protocol: KernelSpec(
            name=_PHASE_KERNEL_NAMES[coin],
            run_trials=partial(run_vectorized_trials, protocol=protocol),
            hooks=COMMITTEE_ENGINE_HOOKS,
            # Rabin's dealer stream is replayed exactly and these fault
            # models are deterministic; the rushing share attacks depend on
            # the honest share draws and stay statistical.
            exact=frozenset(
                {"null", "silent", "static", "equivocate", "committee-targeting"}
                if coin == "dealer" else ()
            ),
            supports_alpha=coin == "committee",
            supports_max_rounds=coin == "private",
            supports_topology=True,
            supports_backend=True,
        )
        for protocol, (coin, _) in PHASE_PROTOCOLS.items()
    },
    "phase-king": KernelSpec(
        name="phase-king",
        run_trials=run_phase_king_trials,
        hooks=PHASE_KING_HOOKS,
        supports_topology=True,
        exact=frozenset(
            {
                "null",
                "silent",
                "static",
                "equivocate",
                "committee-targeting",
                "coin-attack",
                "crash",
            }
        ),
    ),
    "eig": KernelSpec(
        name="eig-tree",
        run_trials=run_eig_trials,
        hooks=EIG_HOOKS,
        exact=frozenset(
            {
                "null",
                "silent",
                "static",
                "random-noise",
                "coin-attack",
                "crash",
                "committee-targeting",
            }
        ),
    ),
    "sampling-majority": KernelSpec(
        name="sampling-majority",
        run_trials=run_sampling_majority_trials,
        hooks=SAMPLING_HOOKS,
    ),
}

#: Below this much estimated work (``trials * n^2`` message deliveries) the
#: process-pool startup cost outweighs the parallelism of an object sweep.
_MIN_WORK_FOR_PROCESSES = 5_000_000

#: Trial ranges handed out per worker on the object family (keeps the pool
#: load-balanced when per-seed run times vary); a vectorized batch pays
#: per-phase fixed costs, so it gets one range per worker.
_CHUNKS_PER_WORKER = 4


def vectorizable(
    protocol: str,
    adversary: str,
    *,
    max_rounds: int | None = None,
    topology: str = "clique",
    loss: float = 0.0,
) -> bool:
    """True when the configuration has a modelled vectorised equivalent.

    The decision is a :data:`PROTOCOL_KERNELS` lookup: the pair must have a
    registered adversary plane kernel, any custom round cap must be honoured
    by the kernel (which runs whole two-round phases, so the cap must be a
    positive even number), and an off-clique topology or positive message
    loss requires the kernel's masked communication planes
    (``supports_topology``).
    """
    spec = PROTOCOL_KERNELS.get(protocol)
    if spec is None:
        return False
    if adversary not in spec.adversaries:
        return False
    if max_rounds is not None and (
        not spec.supports_max_rounds or max_rounds % 2 or max_rounds < 2
    ):
        return False
    if (topology != "clique" or loss > 0.0) and not spec.supports_topology:
        return False
    return True


def select_engine(
    protocol: str,
    adversary: str,
    *,
    engine: str = "auto",
    max_rounds: int | None = None,
    topology: str = "clique",
    loss: float = 0.0,
) -> str:
    """Resolve ``engine`` to the result family that runs the configuration.

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
    )
    if engine == "vectorized" and not fast:
        raise ConfigurationError(
            f"no vectorized kernel for protocol={protocol!r} "
            f"adversary={adversary!r} with the given options; "
            "use engine='object' (or 'auto')"
        )
    if engine == "auto":
        return "vectorized" if fast else "object"
    return engine


def validate_workers(workers: int | None) -> None:
    """Reject a process count below one (``None`` means automatic)."""
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")


def _pool_size(family: str, trials: int, n: int, workers: int | None) -> int:
    """How many processes a sweep runs on; ``workers`` alone decides.

    ``workers=k`` runs on ``min(k, trials)`` processes (``1`` means
    in-process).  ``None`` keeps vectorized sweeps in-process and spreads an
    object sweep over every CPU once its ``trials * n^2`` message deliveries
    reach :data:`_MIN_WORK_FOR_PROCESSES`, where the pool startup pays off.
    """
    if workers is None:
        if family == "vectorized" or trials * n * n < _MIN_WORK_FOR_PROCESSES:
            return 1
        workers = os.cpu_count() or 1
    return min(workers, trials)


def _run_vectorized_sweep(
    experiment: AgreementExperiment,
    trials: int,
    base_seed: int,
    trial_offset: int = 0,
    backend: str | PlaneBackend | None = None,
) -> list[TrialSummary]:
    """Batched kernel sweep: the kernel's :class:`TrialSummary` rows.

    Trial ``k`` of the call uses the counter-based Philox key
    ``(base_seed, trial_offset + k)``, and the kernel records the global key
    counter ``trial_offset + k`` as its row's ``seed``.
    """
    spec = PROTOCOL_KERNELS[experiment.protocol]
    kwargs: dict[str, Any] = {}
    if spec.supports_alpha and experiment.alpha is not None:
        kwargs["alpha"] = experiment.alpha
    if spec.supports_max_rounds and experiment.max_rounds is not None:
        kwargs["max_rounds"] = experiment.max_rounds
    # Backends are bit-identical, so the choice is pure execution policy:
    # it never reaches the sweep-store keys, and kernels without plane state
    # (closed-form tallies) simply ignore it by not receiving it.
    if spec.supports_backend and backend is not None:
        kwargs["backend"] = backend
    # The clique/loss-free default passes no masking kwargs, so the kernels
    # without a topology axis never see them; on the others it is the
    # clique channel.
    if experiment.topology != "clique" or experiment.loss > 0.0:
        from repro.topology import build_topology

        if experiment.topology != "clique":
            kwargs["adjacency"] = build_topology(experiment.topology, experiment.n)
        kwargs["loss"] = experiment.loss
    adversary = experiment.adversary
    rows = spec.run_trials(
        experiment.n,
        experiment.t,
        adversary="null" if adversary in spec.inapplicable else adversary,
        inputs=experiment.inputs,
        trials=trials,
        seed=base_seed,
        trial_offset=trial_offset,
        **kwargs,
    )
    if not experiment.allow_timeout and any(map(attrgetter("timed_out"), rows)):
        raise SimulationError(
            f"{experiment.protocol} sweep exceeded its round cap; "
            "pass allow_timeout=True to accept censored trials"
        )
    return rows


def _run_range(
    family: str,
    experiment: AgreementExperiment,
    base_seed: int,
    backend: str | PlaneBackend | None,
    offset: int,
    count: int,
    trace: tuple[int, str] | None = None,
) -> list[TrialSummary]:
    """Trials ``[offset, offset + count)`` of a sweep, run in this process.

    Both the in-process path and the one worker entry of :func:`_run_sharded`.
    A sharded worker of a traced sweep gets a ``(shard_index, path)``
    child-trace assignment: it runs under its own shard-tagged
    :class:`Tracer` and exports it to ``path`` for the parent to merge
    (tracers are per process, never inherited through the pool).
    """
    if trace is not None:
        shard, path = trace
        tracer = Tracer(run_id=f"shard-{shard}", shard=shard)
        with activate(tracer), tracer.span("sweep.shard", offset=offset, trials=count):
            rows = _run_range(family, experiment, base_seed, backend, offset, count)
        write_trace(tracer, path)
        return rows
    if family == "vectorized":
        return _run_vectorized_sweep(experiment, count, base_seed, offset, backend)
    # The object family's global counter is the master seed itself: trial k
    # runs on seed base_seed + k.
    first = base_seed + offset
    return [run_single_trial(experiment, seed) for seed in range(first, first + count)]


def _run_sharded(
    family: str,
    experiment: AgreementExperiment,
    trials: int,
    base_seed: int,
    backend: str | PlaneBackend | None,
    trial_offset: int,
    processes: int,
) -> list[TrialSummary]:
    """A sweep sharded over ``processes`` workers by trial range.

    The trial counter range ``[trial_offset, trial_offset + trials)`` is split
    into contiguous ranges — :data:`_CHUNKS_PER_WORKER` per worker on the
    object family, one per worker on the vectorized one.  Each range runs on
    the same global Philox keys or master seeds it would use in process, and
    the rows are concatenated in range order, so the sharded sweep is
    bit-identical to the in-process one.  When the parent is tracing, every
    range writes a child trace that the parent absorbs in range order.
    """
    ranges = processes * (_CHUNKS_PER_WORKER if family == "object" else 1)
    size = -(-trials // ranges)
    starts = range(0, trials, size)
    tracer = current_tracer()
    child_dir = (
        tempfile.mkdtemp(prefix="repro-trace-shards-") if tracer.enabled else None
    )
    traces = [
        None if child_dir is None
        else (shard, os.path.join(child_dir, f"shard-{shard:03d}.jsonl"))
        for shard in range(len(starts))
    ]
    run = partial(_run_range, family, experiment, base_seed, backend)
    try:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(
                run,
                [trial_offset + start for start in starts],
                [min(size, trials - start) for start in starts],
                traces,
            ))
        # Each child's events keep their own sequence numbers, so the merged
        # trace orders deterministically by (shard, sequence) regardless of
        # worker scheduling.
        for trace in traces:
            if trace is not None and os.path.exists(trace[1]):
                tracer.absorb(read_trace(trace[1]), shard=trace[0])
    finally:
        if child_dir is not None:
            shutil.rmtree(child_dir, ignore_errors=True)
    return [row for part in parts for row in part]


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
    max_rounds: int | None = None,
    allow_timeout: bool = False,
    topology: str = "clique",
    loss: float = 0.0,
    backend: str | PlaneBackend | None = None,
    trial_offset: int = 0,
) -> TrialsResult:
    """Run a multi-trial sweep on the most appropriate engine.

    Either pass an :class:`AgreementExperiment` via ``experiment`` or describe
    the configuration with ``n``/``t`` and the keyword fields.

    Args:
        engine: ``"auto"`` (default) picks the batched vectorised kernel
            whenever :data:`PROTOCOL_KERNELS` registers one for the
            ``(protocol, adversary)`` pair and otherwise falls back to the
            object simulator; ``"vectorized"`` / ``"object"`` force a family.
        workers: Processes to run on — ``workers`` alone decides placement,
            whatever the engine.  ``1`` runs in-process, ``k > 1`` shards the
            trial range over ``min(k, trials)`` processes, and ``None`` keeps
            vectorized sweeps in-process and spreads large object sweeps over
            every CPU.  Results never depend on it.
        trials: Number of independent trials; trial ``k`` uses master seed
            ``base_seed + k`` (object family) or Philox key
            ``(base_seed, k)`` (vectorised kernels).
        trial_offset: Start of the call's trial-counter range (default 0).
            Trial ``k`` of the call uses the *global* counter
            ``trial_offset + k`` — master seed ``base_seed + trial_offset +
            k`` on the object family, Philox key ``(base_seed, trial_offset
            + k)`` on the vectorised kernels — so concatenating batches run
            at consecutive offsets is bit-identical to one unsplit sweep.
            This is the contract the sharded and adaptive executors build on.
        backend: ``None`` (the default) lets the plane kernels pick their
            representation by batch size
            (:data:`repro.simulator.phase_engine.PACKED_MIN_CELLS`);
            ``"numpy"``, ``"packed"`` or a
            :class:`~repro.simulator.planes.base.PlaneBackend` forces one, for
            bit-identity checks.  Both are bit-identical, so results — and
            sweep-store cache keys — never depend on it; the object family
            and closed-form kernels have no planes and ignore it.

    Returns:
        A :class:`~repro.core.runner.TrialsResult` whose ``engine`` records
        the result family that ran it.
    """
    if trials < 1:
        raise ConfigurationError(f"num_trials must be positive, got {trials}")
    if trial_offset < 0:
        raise ConfigurationError(f"trial_offset must be >= 0, got {trial_offset}")
    validate_seed(base_seed)
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
        )
    elif n is not None or t is not None:
        raise ConfigurationError("pass either (n, t) or experiment=, not both")
    validate_workers(workers)
    if backend is not None:
        resolve_backend(backend)

    tracer = current_tracer()
    with tracer.span(
        "dispatch.select_engine",
        protocol=experiment.protocol,
        adversary=experiment.adversary,
        requested=engine,
    ):
        family = select_engine(
            experiment.protocol,
            experiment.adversary,
            engine=engine,
            max_rounds=experiment.max_rounds,
            topology=experiment.topology,
            loss=experiment.loss,
        )
        processes = _pool_size(family, trials, experiment.n, workers)
    tracer.count(
        "dispatch.kernel_path" if family == "vectorized" else "dispatch.object_path"
    )
    with tracer.span(
        f"sweep.{family}",
        protocol=experiment.protocol,
        adversary=experiment.adversary,
        n=experiment.n,
        trials=trials,
        workers=processes,
    ):
        if processes == 1:
            summaries = _run_range(
                family, experiment, base_seed, backend, trial_offset, trials
            )
        else:
            summaries = _run_sharded(
                family, experiment, trials, base_seed, backend,
                trial_offset, processes,
            )
    return TrialsResult(experiment=experiment, trials=summaries, engine=family)


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
    whether that pair is bit-identical to the object simulator, an
    inapplicable pair running the failure-free ``null`` kernel
    (``exact (no-op)``), or statistically cross-validated.
    """
    rows = []
    for protocol in sorted(PROTOCOLS):
        spec = PROTOCOL_KERNELS[protocol]
        for adversary in sorted(ADVERSARIES):
            fast = vectorizable(protocol, adversary)
            if not fast:
                validation = "-"
            elif adversary in spec.inapplicable:
                validation = "exact (no-op)"
            elif adversary in spec.exact:
                validation = "exact"
            else:
                validation = "statistical"
            rows.append(
                {
                    "protocol": protocol,
                    "adversary": adversary,
                    "auto engine": "vectorized" if fast else "object",
                    "kernel": spec.name if fast else "-",
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
        spec = PROTOCOL_KERNELS[protocol]
        inapplicable = sorted(spec.inapplicable)
        supported = sorted(spec.adversaries - spec.inapplicable)
        unmodelled = sorted(set(ADVERSARIES) - spec.adversaries)
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
        spec = PROTOCOL_KERNELS[protocol]
        if spec.supports_topology:
            engine_name = "vectorized (masked planes)"
            validation = _TOPOLOGY_VALIDATION.get(protocol, "statistical")
        else:
            engine_name = "object (per-round drops)"
            validation = "object only"
        rows.append(
            {
                "protocol": protocol,
                "kernel": spec.name,
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
    "ENGINES",
    "KernelSpec",
    "PROTOCOL_KERNELS",
    "dispatch_table",
    "kernel_support_table",
    "markdown_engine_tables",
    "run_coin_sweep",
    "run_sweep",
    "select_engine",
    "topology_support_table",
    "validate_workers",
    "vectorizable",
]
