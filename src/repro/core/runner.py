"""High-level execution API.

This module is the front door used by the examples, tests and benchmarks:

* :func:`run_agreement` — run one execution of any protocol in the repository
  against any adversary strategy and return the detailed
  :class:`repro.simulator.scheduler.RunResult`;
* :func:`run_trials` — repeat an experiment over many seeds and aggregate
  rounds / messages / agreement statistics;
* :class:`AgreementExperiment` — a declarative description of a single
  experimental configuration (protocol, adversary, inputs, parameters), which
  the benchmark harness sweeps over.

Protocols and adversaries are referred to by short names (see
:data:`PROTOCOLS` and :data:`ADVERSARIES`) so that experiment configurations
are plain data.  Multi-trial dispatch — including the batched vectorised
kernels registered per protocol in :data:`repro.engine.PROTOCOL_KERNELS` —
lives in :func:`repro.engine.run_sweep`; :func:`run_trials` here is the
always-object-simulator wrapper around it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.adversary.base import Adversary, NullAdversary
from repro.adversary.static import StaticAdversary
from repro.adversary.strategies.coin_attack import CoinAttackAdversary
from repro.adversary.strategies.committee_targeting import CommitteeTargetingAdversary
from repro.adversary.strategies.crash import AdaptiveCrashAdversary
from repro.adversary.strategies.equivocate import EquivocatingAdversary
from repro.adversary.strategies.random_noise import RandomNoiseAdversary
from repro.adversary.strategies.silence import SilentAdversary
from repro.baselines.ben_or import BenOrNode
from repro.baselines.chor_coan import ChorCoanLasVegasNode, ChorCoanNode, chor_coan_parameters
from repro.baselines.eig import EIGNode
from repro.baselines.phase_king import PhaseKingNode
from repro.baselines.rabin import RabinDealerNode
from repro.baselines.sampling_majority import ITERATIONS_FACTOR, SamplingMajorityNode
from repro.core.agreement import CommitteeAgreementNode
from repro.core.committee import CommitteePartition
from repro.core.inputs import INPUT_PATTERNS as INPUT_PATTERNS  # re-export
from repro.core.inputs import input_list
from repro.core.las_vegas import LasVegasAgreementNode
from repro.core.parameters import ProtocolParameters, log2n, validate_alpha, validate_n_t
from repro.exceptions import ConfigurationError
from repro.simulator.node import ProtocolNode
from repro.simulator.rng import RandomnessSource
from repro.simulator.scheduler import RunResult, SynchronousScheduler
from repro.topology import TOPOLOGIES, validate_loss

if TYPE_CHECKING:
    from repro.sweeps.spec import SweepPoint

# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
#: Node classes that reuse the two-round committee-phase skeleton; they share
#: the same context (parameters + partition) handed to the adversary.
_COMMITTEE_FAMILY = {
    "committee-ba": CommitteeAgreementNode,
    "committee-ba-las-vegas": LasVegasAgreementNode,
    "chor-coan": ChorCoanNode,
    "chor-coan-las-vegas": ChorCoanLasVegasNode,
    "rabin": RabinDealerNode,
    "ben-or": BenOrNode,
}

#: All runnable protocols.
PROTOCOLS: dict[str, type[ProtocolNode]] = {
    **_COMMITTEE_FAMILY,
    "phase-king": PhaseKingNode,
    "eig": EIGNode,
    "sampling-majority": SamplingMajorityNode,
}

#: All adversary strategies, by short name.
ADVERSARIES: dict[str, Callable[..., Adversary]] = {
    "null": NullAdversary,
    "static": StaticAdversary,
    "silent": SilentAdversary,
    "random-noise": RandomNoiseAdversary,
    "equivocate": EquivocatingAdversary,
    "coin-attack": CoinAttackAdversary,
    "committee-targeting": CommitteeTargetingAdversary,
    "crash": AdaptiveCrashAdversary,
}


def validate_names(
    protocols: Iterable[str],
    adversaries: Iterable[str],
    inputs: Iterable[str],
    topologies: Iterable[str],
) -> None:
    """Reject an unknown protocol, adversary, input-pattern or topology name.

    Takes each vocabulary's names as a collection, so a single configuration
    (:func:`validate_configuration`) and a sweep spec's axes
    (:class:`repro.sweeps.spec.SweepSpec`) share one check and one message.

    Raises:
        ConfigurationError: Naming the unknown name and its vocabulary.
    """
    for protocol in protocols:
        if protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {protocol!r}; available: {sorted(PROTOCOLS)}"
            )
    for adversary in adversaries:
        if adversary not in ADVERSARIES:
            raise ConfigurationError(
                f"unknown adversary {adversary!r}; available: {sorted(ADVERSARIES)}"
            )
    for pattern in inputs:
        if pattern not in INPUT_PATTERNS:
            raise ConfigurationError(
                f"unknown input pattern {pattern!r}; expected one of {INPUT_PATTERNS}"
            )
    for topology in topologies:
        if topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology {topology!r}; available: {sorted(TOPOLOGIES)}"
            )


def validate_max_rounds(max_rounds: int | None) -> None:
    """Reject a round cap below one (``None`` means the protocol's own)."""
    if max_rounds is not None and max_rounds < 1:
        raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")


def validate_configuration(config: AgreementExperiment | SweepPoint) -> None:
    """Reject an unknown name or an out-of-range value in one configuration.

    The one field check behind :class:`AgreementExperiment` and
    :class:`repro.sweeps.spec.SweepPoint`, which share the fields it reads and
    call it from ``__post_init__``, so a :func:`repro.engine.run_sweep` call
    and a sweep point refuse a bad configuration with the same message,
    before dispatch picks an engine or starts a process pool.

    Raises:
        ConfigurationError: Naming the offending field.
    """
    validate_names(
        (config.protocol,), (config.adversary,), (config.inputs,), (config.topology,)
    )
    validate_n_t(config.n, config.t)
    validate_alpha(config.alpha)
    validate_max_rounds(config.max_rounds)
    validate_loss(config.loss)


def default_max_rounds(protocol: str, n: int, t: int) -> int:
    """A generous round cap for the given protocol.

    The committee protocols finish within their phase schedule; the Las Vegas
    variants are delayed by at most one phase per corruption the adversary
    spends plus a logarithmic number of un-spoiled phases, so a cap of
    ``2 * (t + O(log n))`` phases covers every implemented adversary with a
    wide margin.  Ben-Or and sampling-majority get larger caps because their
    convergence is not budget-bounded.
    """
    log_n = log2n(n)
    if protocol in ("committee-ba", "chor-coan", "rabin"):
        params = protocol_parameters(protocol, n, t)
        return 2 * (params.num_phases + 2) + 4
    if protocol in ("committee-ba-las-vegas", "chor-coan-las-vegas"):
        return 2 * (2 * t + 40 * int(log_n) + 60)
    if protocol == "ben-or":
        return 2 * (2 * t + 60 * int(log_n) + 200)
    if protocol == "phase-king":
        return 2 * (t + 2)
    if protocol == "eig":
        return t + 3
    if protocol == "sampling-majority":
        return 2 * (math.ceil(ITERATIONS_FACTOR * log_n * log_n) + 2)
    return 20 * n + 100


def protocol_parameters(
    protocol: str, n: int, t: int, alpha: float | None = None
) -> ProtocolParameters:
    """Committee geometry for the committee-family protocols.

    The single source of truth for alpha/committee sizing, shared with the
    vectorised engines (:func:`repro.simulator.vectorized.build_vectorized_simulator`
    resolves its parameters here), so the object and plane paths cannot
    drift.  ``alpha`` (default 4.0) sizes the committee-BA and Chor–Coan
    committees; Rabin and Ben-Or run their fixed phase schedule.
    """
    alpha = 4.0 if alpha is None else alpha
    if protocol in ("committee-ba", "committee-ba-las-vegas"):
        return ProtocolParameters.derive(n, t, alpha)
    if protocol in ("chor-coan", "chor-coan-las-vegas"):
        return chor_coan_parameters(n, t, alpha=alpha)
    if protocol in ("rabin", "ben-or"):
        from repro.baselines.rabin import rabin_parameters

        return rabin_parameters(n, t)
    raise ConfigurationError(f"protocol {protocol!r} does not use committee parameters")


def _build_nodes(
    protocol: str,
    n: int,
    t: int,
    inputs: Sequence[int],
    randomness: RandomnessSource,
    alpha: float | None,
) -> tuple[list[ProtocolNode], dict[str, Any]]:
    """Construct the per-node protocol instances and the adversary context."""
    node_class = PROTOCOLS[protocol]
    context: dict[str, Any] = {"protocol": protocol, "n": n, "t": t}
    nodes: list[ProtocolNode] = []

    if protocol in _COMMITTEE_FAMILY:
        params = protocol_parameters(protocol, n, t, alpha)
        partition = CommitteePartition(n, params.committee_size)
        context["params"] = params
        context["partition"] = partition
        # All Rabin nodes must share the dealer's public coin stream.
        extra = {"dealer_seed": randomness.seed} if protocol == "rabin" else {}
        for node_id in range(n):
            nodes.append(
                node_class(
                    node_id, n, t, inputs[node_id], randomness.node_stream(node_id),
                    params=params, **extra,
                )
            )
    else:
        if protocol == "phase-king":
            # Expose the king schedule as the degenerate committee partition
            # (committees of one), so the distinguished-node adversaries —
            # committee targeting foremost — degrade to king targeting
            # instead of silently no-opping.
            context["partition"] = CommitteePartition(n, 1)
        for node_id in range(n):
            nodes.append(
                node_class(
                    node_id, n, t, inputs[node_id], randomness.node_stream(node_id)
                )
            )
    return nodes, context


# ----------------------------------------------------------------------
# Single runs
# ----------------------------------------------------------------------
def run_agreement(
    n: int,
    t: int,
    *,
    protocol: str = "committee-ba",
    adversary: str = "null",
    inputs: str = "split",
    seed: int = 0,
    alpha: float | None = None,
    max_rounds: int | None = None,
    collect_trace: bool = False,
    allow_timeout: bool = False,
    strict_congest: bool = False,
    topology: str = "clique",
    loss: float = 0.0,
) -> RunResult:
    """Run one Byzantine agreement execution.

    The named fields are the whole configuration: they are validated as an
    :class:`AgreementExperiment` before any node is built.  A hand-built node
    or adversary runs on :class:`~repro.simulator.scheduler.SynchronousScheduler`
    directly.

    Args:
        n: Number of nodes.
        t: Byzantine budget handed to the adversary and declared to the
            protocol (``t < n/3``; tighter limits apply to some baselines).
        protocol: Protocol name (see :data:`PROTOCOLS`).
        adversary: Adversary name (see :data:`ADVERSARIES`).
        inputs: Input pattern name (:data:`INPUT_PATTERNS`).
        seed: Master seed; runs are reproducible from ``(seed, configuration)``.
        alpha: Committee-count constant for the committee-BA and Chor–Coan
            protocols (the others have no committees and ignore it).
        max_rounds: Round cap; defaults to a per-protocol generous bound.
        collect_trace: Record a per-round execution trace on the result.
        allow_timeout: Return (rather than raise) when the cap is hit.
        strict_congest: Raise on CONGEST per-edge budget violations.
        topology: Named topology (:data:`repro.topology.TOPOLOGIES`); the
            default ``"clique"`` is the paper's model and keeps the
            historical execution bit for bit.
        loss: Per-edge i.i.d. message-loss probability (drawn from the run's
            dedicated network stream).

    Returns:
        The :class:`RunResult`, whose ``agreement`` / ``validity`` properties
        evaluate Definition 1 and whose counters feed the metrics layer.
    """
    AgreementExperiment(
        n=n, t=t, protocol=protocol, adversary=adversary, inputs=inputs, alpha=alpha,
        max_rounds=max_rounds, allow_timeout=allow_timeout, topology=topology, loss=loss,
    )
    randomness = RandomnessSource(seed)
    inputs_list = input_list(n, inputs, randomness)
    nodes, context = _build_nodes(protocol, n, t, inputs_list, randomness, alpha)
    adversary_instance = ADVERSARIES[adversary](t, rng=randomness.adversary_stream())

    adjacency = None
    if topology != "clique":
        from repro.topology import build_topology

        adjacency = build_topology(topology, n)
    scheduler = SynchronousScheduler(
        nodes,
        adversary_instance,
        max_rounds=max_rounds if max_rounds is not None else default_max_rounds(protocol, n, t),
        context=context,
        collect_trace=collect_trace,
        strict_congest=strict_congest,
        allow_timeout=allow_timeout,
        adjacency=adjacency,
        loss=loss,
        loss_rng=randomness.network_stream() if loss > 0.0 else None,
    )
    result = scheduler.run()
    result.extra["phases"] = math.ceil(result.rounds / 2)
    result.extra["params"] = context.get("params")
    result.extra["adversary"] = adversary_instance
    return result


# ----------------------------------------------------------------------
# Multi-trial experiments
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AgreementExperiment:
    """Declarative description of one experimental configuration."""

    n: int
    t: int
    protocol: str = "committee-ba"
    adversary: str = "coin-attack"
    inputs: str = "split"
    alpha: float | None = None
    max_rounds: int | None = None
    allow_timeout: bool = False
    topology: str = "clique"
    loss: float = 0.0

    def __post_init__(self) -> None:
        validate_configuration(self)

    def label(self) -> str:
        label = f"{self.protocol}/{self.adversary}/n={self.n}/t={self.t}"
        if self.topology != "clique":
            label += f"/{self.topology}"
        if self.loss > 0.0:
            label += f"/loss={self.loss:g}"
        return label


@dataclass(frozen=True)
class TrialSummary:
    """Per-trial scalars kept by :func:`run_trials`."""

    seed: int
    rounds: int
    phases: int
    agreement: bool
    validity: bool
    decision: int | None
    messages: int
    bits: int
    corrupted: int
    timed_out: bool


@dataclass
class TrialsResult:
    """Aggregate of many trials of the same experiment.

    ``engine`` records the result family that produced the trials
    (``"vectorized"`` or ``"object"``).  Aggregates are *mergeable*: every
    statistic is a property computed from the per-trial list, so
    concatenating the ``trials`` of several partial results of the same
    experiment and family (:meth:`merge`) reproduces the aggregate of the
    unsplit sweep exactly — the property the adaptive executor relies on.
    """

    experiment: AgreementExperiment
    trials: list[TrialSummary]
    engine: str = "object"

    @classmethod
    def merge(cls, parts: Sequence["TrialsResult"]) -> "TrialsResult":
        """Concatenate partial results of the same experiment, in order.

        Because all aggregate statistics derive from the per-trial list, the
        merged result is exactly the aggregate the unsplit sweep would have
        produced; sub-result order is preserved, and the result keeps the
        parts' family.

        Raises:
            ConfigurationError: When ``parts`` is empty or the parts describe
                different experiments or come from different families.
        """
        if not parts:
            raise ConfigurationError("cannot merge zero partial results")
        first = parts[0]
        if any(part.experiment != first.experiment for part in parts[1:]):
            raise ConfigurationError(
                "cannot merge partial results of different experiments"
            )
        if any(part.engine != first.engine for part in parts[1:]):
            raise ConfigurationError(
                "cannot merge partial results of different result families: "
                f"{sorted({part.engine for part in parts})}"
            )
        return cls(
            experiment=first.experiment,
            trials=[summary for part in parts for summary in part.trials],
            engine=first.engine,
        )

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def mean_rounds(self) -> float:
        return statistics.fmean(trial.rounds for trial in self.trials)

    @property
    def median_rounds(self) -> float:
        return float(statistics.median(trial.rounds for trial in self.trials))

    @property
    def max_rounds(self) -> int:
        return max(trial.rounds for trial in self.trials)

    @property
    def mean_phases(self) -> float:
        return statistics.fmean(trial.phases for trial in self.trials)

    @property
    def mean_messages(self) -> float:
        return statistics.fmean(trial.messages for trial in self.trials)

    @property
    def mean_bits(self) -> float:
        return statistics.fmean(trial.bits for trial in self.trials)

    @property
    def agreement_rate(self) -> float:
        return sum(trial.agreement for trial in self.trials) / self.num_trials

    @property
    def validity_rate(self) -> float:
        return sum(trial.validity for trial in self.trials) / self.num_trials

    @property
    def timeout_rate(self) -> float:
        return sum(trial.timed_out for trial in self.trials) / self.num_trials

    @property
    def mean_corrupted(self) -> float:
        return statistics.fmean(trial.corrupted for trial in self.trials)

    def summary(self) -> dict[str, float]:
        """Scalar summary used by the reporting layer."""
        return {
            "trials": float(self.num_trials),
            "mean_rounds": self.mean_rounds,
            "median_rounds": self.median_rounds,
            "max_rounds": float(self.max_rounds),
            "mean_phases": self.mean_phases,
            "mean_messages": self.mean_messages,
            "mean_bits": self.mean_bits,
            "agreement_rate": self.agreement_rate,
            "validity_rate": self.validity_rate,
            "timeout_rate": self.timeout_rate,
            "mean_corrupted": self.mean_corrupted,
        }


def run_single_trial(experiment: AgreementExperiment, seed: int) -> TrialSummary:
    """Run one seeded execution of ``experiment`` and summarise it.

    Module-level (and operating on plain dataclasses) so that the sharded
    sweep executor can ship it to worker processes.
    """
    result = run_agreement(
        experiment.n,
        experiment.t,
        protocol=experiment.protocol,
        adversary=experiment.adversary,
        inputs=experiment.inputs,
        seed=seed,
        alpha=experiment.alpha,
        max_rounds=experiment.max_rounds,
        allow_timeout=experiment.allow_timeout,
        topology=experiment.topology,
        loss=experiment.loss,
    )
    return TrialSummary(
        seed=seed,
        rounds=result.rounds,
        phases=int(result.extra.get("phases", 0)),
        agreement=result.agreement,
        validity=result.validity,
        decision=result.decision,
        messages=result.message_count,
        bits=result.bit_count,
        corrupted=len(result.corrupted),
        timed_out=result.timed_out,
    )


def run_trials(
    experiment: AgreementExperiment,
    num_trials: int = 10,
    *,
    base_seed: int = 0,
    workers: int | None = None,
) -> TrialsResult:
    """Run ``num_trials`` independent executions of ``experiment``.

    Trial ``k`` uses master seed ``base_seed + k``, so sweeps are reproducible
    and trivially parallelisable by seed range.  Dispatch (including the
    process count, decided by ``workers`` alone, and the per-protocol batched
    kernels) lives in :func:`repro.engine.run_sweep`; this wrapper always uses
    the faithful object simulator and returns the same per-trial results
    regardless of worker count.
    """
    from repro.engine import run_sweep

    return run_sweep(
        experiment=experiment,
        trials=num_trials,
        base_seed=base_seed,
        engine="object",
        workers=workers,
    )
