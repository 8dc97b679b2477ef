"""Fast NumPy execution engine for large parameter sweeps.

The object-level simulator (:mod:`repro.simulator.scheduler`) delivers every
message individually, which is faithful but quadratic-per-round in Python; at
``n`` in the thousands a single run of the paper's protocol under attack takes
minutes.  The benchmark sweeps (experiments E1, E3, E4, E5, E9) therefore use
this vectorised engine, which simulates the *same* protocols under every
registered adversary strategy: the six protocols built on the two-round phase
of Algorithm 3 (:data:`PHASE_PROTOCOLS`), which differ only in the coin —
the committee's shares (Algorithm 3 and the Chor–Coan baseline, each bounded
or Las Vegas), Rabin's dealer bit or Ben-Or's private flips.

Batched execution runs on the shared hook-driven plane engine
(:class:`repro.simulator.phase_engine.PhaseEngine`): the engine owns the
honest protocol — tallies, thresholds, coins, flush bookkeeping, live-trial
compaction — and delegates every Byzantine decision to a pluggable
:class:`~repro.adversary.kernels.base.AdversaryKernel` through four hooks per
phase (``setup`` once, then ``round1`` / ``pre_coin`` / ``round2``).  The
adversary names it accepts are the keys of
:data:`repro.adversary.kernels.ADVERSARY_PLANE_KERNELS`; see
:mod:`repro.adversary.kernels` for what each strategy does and how it is
validated against the object simulator.  The batch set-up and row building
here (:func:`batch_setup`, :func:`batch_summaries`) also serve the phase-king,
EIG and sampling-majority kernels of :mod:`repro.baselines.kernels`.

Two entry points are provided: :meth:`VectorizedAgreementSimulator.run`
executes one trial on 1-D arrays (the reference implementation, kept for the
committee coin under the ``null`` and ``coin-attack`` adversaries), and
:meth:`VectorizedAgreementSimulator.run_batch` executes a whole batch of
``B`` trials simultaneously on 2-D ``(B, n)`` arrays, drawing from the
batch's :class:`~repro.simulator.draws.TrialStreams`.  For the ``null`` and
``coin-attack`` adversaries the two are bit-for-bit identical given the same
per-trial Philox keys, which the test-suite checks exhaustively; both are
cross-validated against the object simulator statistically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.adversary.kernels import ADVERSARY_PLANE_KERNELS, build_adversary_kernel
from repro.adversary.kernels.capabilities import (
    COMMITTEE,
    CORRUPT_ADAPTIVE,
    CORRUPT_STATIC,
    SHARES_BROADCAST,
)
from repro.core.inputs import input_row
from repro.core.parameters import ProtocolParameters, validate_n_t
from repro.core.runner import TrialSummary, default_max_rounds, protocol_parameters
from repro.exceptions import ConfigurationError
# trial_generator is re-exported: callers, and sweepbench/layers.py's
# rng-setup timer, look it up on this module.
from repro.simulator.draws import TrialStreams, trial_generator  # noqa: F401
from repro.simulator.messages import PAYLOAD_BITS
from repro.simulator.phase_engine import PhaseEngine, finalize_planes

#: CONGEST cost (bits) of the round-1 and round-2 payloads: the live
#: CombinedAnnouncement size.
_ROUND_PAYLOAD_BITS = PAYLOAD_BITS["CombinedAnnouncement"]

#: The six two-round-phase protocols this engine runs -> (coin source, Las
#: Vegas).  The coin is the only protocol setting of the
#: :class:`~repro.simulator.phase_engine.PhaseEngine`; a Las Vegas run cycles
#: phases until it finishes, a bounded one decides by exhaustion after its
#: phase schedule.
PHASE_PROTOCOLS: dict[str, tuple[str, bool]] = {
    "committee-ba": ("committee", False),
    "committee-ba-las-vegas": ("committee", True),
    "chor-coan": ("committee", False),
    "chor-coan-las-vegas": ("committee", True),
    "rabin": ("dealer", False),
    "ben-or": ("private", True),
}

#: Adversary hook surface of the engine — the full vocabulary: up-front and
#: per-phase corruption, rushing share observation and the rotating
#: designated committee (the whole network for Rabin and Ben-Or, whose
#: bookkeeping committee has size ``n``).
COMMITTEE_ENGINE_HOOKS = frozenset(
    {
        CORRUPT_STATIC,
        CORRUPT_ADAPTIVE,
        SHARES_BROADCAST,
        COMMITTEE,
    }
)


@dataclass
class VectorizedAgreementSimulator:
    """Vectorised simulation of a two-round-phase agreement protocol.

    Args:
        n: Network size.
        t: The adversary's corruption budget (``t < n/3``).
        params: Committee geometry (the paper's formula, Chor–Coan's, or the
            bookkeeping-only whole-network committee of Rabin and Ben-Or)
            and the declared bound ``params.t >= t`` that sets the decide
            (``n - t``) and adopt (``t + 1``) quorums.
        adversary: A key of
            :data:`repro.adversary.kernels.ADVERSARY_PLANE_KERNELS`.
        coin: The coin source
            (:data:`repro.simulator.phase_engine.COIN_SOURCES`): the
            committee's shares, Rabin's public dealer bit (trial ``k``'s
            dealer seed is the object runner's master seed of that trial,
            the batch's master seed plus the trial counter) or Ben-Or's
            private flips.
        las_vegas: When True the protocol cycles committees until termination;
            when False it stops after ``params.num_phases`` phases and decides
            by exhaustion (the w.h.p. variant).
        max_phases: Safety cap for Las Vegas runs, in whole phases
            (:func:`build_vectorized_simulator` passes half the round cap).
        adjacency: Optional ``(n, n)`` boolean topology mask
            (:mod:`repro.topology`); ``None`` runs the historical clique path.
        loss: Per-edge i.i.d. message-loss probability.
        backend: Forced plane representation for the batched engine
            (``"numpy"`` or ``"packed"``); ``None`` picks it by batch size
            (:class:`~repro.simulator.phase_engine.PhaseEngine`).  Both are
            bit-identical; the single-trial :meth:`run` loop is the
            reference path and ignores the choice.
    """

    n: int
    t: int
    params: ProtocolParameters
    max_phases: int
    adversary: str = "coin-attack"
    coin: str = "committee"
    las_vegas: bool = True
    adjacency: np.ndarray | None = None
    loss: float = 0.0
    backend: str | None = None

    def __post_init__(self) -> None:
        validate_n_t(self.n, self.t)
        if self.params.n != self.n or self.params.t < self.t:
            raise ConfigurationError(
                f"params were derived for (n={self.params.n}, t={self.params.t}); "
                f"this simulator needs n={self.n} and a declared t >= its budget {self.t}"
            )
        if self.adversary not in ADVERSARY_PLANE_KERNELS:
            raise ConfigurationError(
                f"vectorized adversary must be one of {tuple(ADVERSARY_PLANE_KERNELS)}, "
                f"got {self.adversary!r}"
            )

    # ------------------------------------------------------------------
    def run(self, inputs: np.ndarray, streams: TrialStreams) -> TrialSummary:
        """Execute one trial on ``inputs``, drawing from the one-row ``streams``.

        The row's trial counter becomes the summary's ``seed``, as in
        :meth:`run_batch`.
        """
        # Quorums follow the declared bound; the attack budget is `self.t`.
        n, t = self.n, self.params.t
        if inputs.shape != (n,):
            raise ConfigurationError(f"inputs must have shape ({n},), got {inputs.shape}")
        if len(streams) != 1:
            raise ConfigurationError(f"run takes one trial stream, got {len(streams)}")
        if (
            self.coin != "committee"
            or self.adversary not in ("null", "coin-attack")
            or self.adjacency is not None
            or self.loss > 0.0
        ):
            # The other coins, the other adversaries and the masked
            # communication planes are implemented only once, in the batched
            # path; a single trial is just a batch of one.
            return self.run_batch(inputs[None, :], streams)[0]
        rng = streams[0]
        committee_size = self.params.committee_size
        num_committees = max(1, math.ceil(n / committee_size))
        phase_cap = self.max_phases if self.las_vegas else self.params.num_phases

        value = inputs.astype(np.int8).copy()
        decided = np.zeros(n, dtype=bool)
        corrupted = np.zeros(n, dtype=bool)
        terminated = np.zeros(n, dtype=bool)
        flush_phase = np.full(n, -1, dtype=np.int64)  # -1: not finishing
        output = np.full(n, -1, dtype=np.int8)
        budget = self.t
        messages = 0
        rounds = 0
        phases = 0
        honest_inputs = inputs.copy()

        def active_mask() -> np.ndarray:
            return ~corrupted & ~terminated

        for phase in range(1, phase_cap + 1):
            if not np.any(active_mask()):
                break
            phases = phase
            # Sender set: every honest, non-terminated node broadcasts in both
            # rounds (including nodes in their flush phase).
            senders = active_mask()
            sender_count = int(senders.sum())
            updatable = senders & (flush_phase == -1)

            # ---------------- Round 1 ----------------
            rounds += 1
            messages += sender_count * n
            ones = int(value[senders].sum())
            zeros = sender_count - ones
            if ones >= n - t:
                value[updatable] = 1
                decided[updatable] = True
            elif zeros >= n - t:
                value[updatable] = 0
                decided[updatable] = True
            else:
                decided[updatable] = False

            # ---------------- Round 2 ----------------
            rounds += 1
            messages += sender_count * n
            decided_senders = senders & decided
            d1 = int(value[decided_senders].sum())
            d0 = int(decided_senders.sum()) - d1

            committee_index = (phase - 1) % num_committees
            start = committee_index * committee_size
            stop = min(n, start + committee_size)
            committee = np.zeros(n, dtype=bool)
            committee[start:stop] = True
            honest_committee = committee & senders
            shares = np.zeros(n, dtype=np.int8)
            flips = rng.integers(0, 2, size=int(honest_committee.sum())) * 2 - 1
            shares[honest_committee] = flips.astype(np.int8)
            honest_sum = int(shares.sum())
            controlled_in_committee = int((committee & corrupted).sum())

            finish_value = None
            if d1 >= n - t:
                finish_value = 1
            elif d0 >= n - t:
                finish_value = 0
            adopt_value = None
            if finish_value is None:
                if d1 >= t + 1:
                    adopt_value = 1
                elif d0 >= t + 1:
                    adopt_value = 0

            if finish_value is not None:
                value[updatable] = finish_value
                decided[updatable] = True
                flush_phase[updatable] = phase + 1
            elif adopt_value is not None:
                value[updatable] = adopt_value
                decided[updatable] = True
            else:
                # Case 3: the committee coin, possibly under attack.
                spoiled = False
                if self.adversary == "coin-attack" and budget > 0:
                    sign = 1 if honest_sum >= 0 else -1
                    if honest_sum >= 0:
                        needed = max(0, math.ceil((honest_sum - controlled_in_committee + 1) / 2))
                    else:
                        needed = max(0, math.ceil((-honest_sum - controlled_in_committee) / 2))
                    same_sign = honest_committee & (shares == sign)
                    available = int(same_sign.sum())
                    if needed <= budget and needed <= available:
                        # Corrupt `needed` same-sign committee members.
                        target_ids = np.flatnonzero(same_sign)[:needed]
                        corrupted[target_ids] = True
                        budget -= needed
                        controlled_total = controlled_in_committee + needed
                        recipients = np.flatnonzero(active_mask() & (flush_phase == -1))
                        # Adversary round-2 traffic: controlled members to all honest.
                        messages += controlled_total * int(active_mask().sum())
                        half = len(recipients) // 2
                        value[recipients[half:]] = 1
                        value[recipients[:half]] = 0
                        decided[recipients] = False
                        spoiled = True
                if not spoiled:
                    coin = 1 if honest_sum >= 0 else 0
                    recipients = active_mask() & (flush_phase == -1)
                    value[recipients] = coin
                    decided[recipients] = False

            # Flush-phase terminations (nodes finishing this phase).
            finishing_now = active_mask() & (flush_phase != -1) & (flush_phase <= phase)
            if np.any(finishing_now):
                output[finishing_now] = value[finishing_now]
                terminated[finishing_now] = True

            # Bounded variant: decide by exhaustion after the last phase.
            if not self.las_vegas and phase >= self.params.num_phases:
                remaining = active_mask()
                output[remaining] = value[remaining]
                terminated[remaining] = True

        honest = ~corrupted
        finished = honest & terminated
        timed_out = bool(np.any(honest & ~terminated))
        if timed_out:
            # Treat unfinished honest nodes' current value as their output so
            # that agreement/validity can still be evaluated.
            output[honest & ~terminated] = value[honest & ~terminated]
        outputs = output[honest]
        agreement = bool(len(np.unique(outputs)) <= 1) if outputs.size else True
        decision = int(outputs[0]) if agreement and outputs.size else None
        honest_input_values = np.unique(honest_inputs[honest])
        validity = True
        if len(honest_input_values) == 1 and outputs.size:
            validity = bool(np.all(outputs == honest_input_values[0]))
        return TrialSummary(
            seed=int(streams.trial_counters[0]),
            rounds=rounds,
            phases=phases,
            agreement=agreement,
            validity=validity,
            decision=decision,
            messages=messages,
            bits=messages * _ROUND_PAYLOAD_BITS,
            corrupted=int(corrupted.sum()),
            timed_out=timed_out,
        )

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def run_batch(
        self, inputs: np.ndarray, streams: TrialStreams
    ) -> list[TrialSummary]:
        """Execute a whole batch of ``B`` independent trials simultaneously.

        Args:
            inputs: ``(B, n)`` array of per-trial input bits.
            streams: The per-trial Philox streams.  Trial ``b`` consumes row
                ``b`` in exactly the same order as a single-trial :meth:`run`
                call consumes its one-row streams, so for the ``null`` and
                ``coin-attack`` adversaries the rows of
                ``run_batch(inputs, TrialStreams(seed, 0, B))`` equal
                ``[self.run(inputs[b], TrialStreams(seed, b, 1)) for b in
                range(B)]``.

        The batch runs on the shared hook-driven
        :class:`~repro.simulator.phase_engine.PhaseEngine` with the
        simulator's coin and the adversary's plane kernel;
        per-trial results are independent of how trials are batched together.

        Returns:
            One :class:`~repro.core.runner.TrialSummary` per trial, in batch
            order, whose ``seed`` is the row's trial counter.
        """
        inputs = np.asarray(inputs, dtype=np.int8)
        if inputs.ndim != 2 or inputs.shape[1] != self.n:
            raise ConfigurationError(
                f"batched inputs must have shape (B, {self.n}), got {inputs.shape}"
            )
        if inputs.shape[0] != len(streams):
            raise ConfigurationError(
                f"got {inputs.shape[0]} input rows but {len(streams)} trial streams"
            )
        if inputs.shape[0] == 0:
            return []
        kernel = build_adversary_kernel(
            self.adversary, n=self.n, t=self.t, params=self.params
        )
        dealer_seeds = None
        if self.coin == "dealer":
            # Each trial's master seed in the object runner, kept as Python
            # ints because seed + counter may pass 2**64.
            dealer_seeds = [streams.seed + k for k in streams.trial_counters.tolist()]
        engine = PhaseEngine(
            n=self.n,
            t=self.t,
            params=self.params,
            coin=self.coin,
            las_vegas=self.las_vegas,
            max_phases=self.max_phases,
            dealer_seeds=dealer_seeds,
            adjacency=self.adjacency,
            loss=self.loss,
            backend=self.backend,
        )
        state = engine.run_batch(inputs, streams, kernel)
        return batch_summaries(
            self.n, self.t, inputs, streams,
            bits=state["messages"] * _ROUND_PAYLOAD_BITS, **state,
        )


def trial_summaries(
    evaluated: dict[str, np.ndarray],
    seeds: np.ndarray,
    *,
    rounds: np.ndarray,
    phases: np.ndarray,
    bits: np.ndarray,
) -> list[TrialSummary]:
    """One :class:`~repro.core.runner.TrialSummary` per trial, built column-wise.

    ``evaluated`` is :func:`~repro.simulator.phase_engine.finalize_planes`'
    output; ``seeds`` holds the trials' global counters
    (:attr:`TrialStreams.trial_counters`) and ``rounds`` / ``phases`` /
    ``bits`` the protocol's per-trial accounting.  Each column is converted
    to Python scalars once; a trial decides when its honest outputs agree
    and it has an honest node.
    """
    decides = (evaluated["agreement"] & evaluated["has_honest"]).tolist()
    ones = (evaluated["out_ones"] > 0).tolist()
    decisions = [int(one) if decided else None for decided, one in zip(decides, ones)]
    return list(
        map(
            TrialSummary,
            np.asarray(seeds).tolist(),
            np.asarray(rounds).tolist(),
            np.asarray(phases).tolist(),
            evaluated["agreement"].tolist(),
            evaluated["validity"].tolist(),
            decisions,
            evaluated["messages"].tolist(),
            np.asarray(bits).tolist(),
            evaluated["corrupted_count"].tolist(),
            evaluated["timed_out"].tolist(),
        )
    )


#: sweepbench/layers.py times result conversion under this name.
_aggregate = trial_summaries


def batch_summaries(
    n: int,
    t: int,
    inputs: np.ndarray,
    streams: TrialStreams,
    *,
    output: np.ndarray,
    corrupted: np.ndarray,
    rounds: np.ndarray,
    phases: np.ndarray,
    messages: np.ndarray,
    bits: np.ndarray,
    timed_out: np.ndarray | None = None,
) -> list[TrialSummary]:
    """Evaluate a batch's final planes and build its trials' rows.

    Agreement and validity are evaluated over the honest nodes' output plane
    (:func:`~repro.simulator.phase_engine.finalize_planes`) and each row's
    ``seed`` is its trial counter in ``streams``.  ``bits`` is passed
    explicitly because the protocols' payload sizes differ: the phase
    protocols send one CombinedAnnouncement per message, while king values,
    EIG reports and sampling traffic have their own sizes.
    """
    evaluated = finalize_planes(
        n, t, inputs, output=output, corrupted=corrupted,
        messages=messages, timed_out=timed_out,
    )
    return trial_summaries(
        evaluated, streams.trial_counters, rounds=rounds, phases=phases, bits=bits
    )


def _trial_inputs(n: int, inputs: str, streams: TrialStreams) -> np.ndarray:
    """Materialise the ``(B, n)`` int8 input plane.

    Only the ``random`` pattern draws: row ``b`` is trial ``b``'s
    ``integers(0, 2, size=n)``, all rows in one
    :meth:`~repro.simulator.draws.TrialStreams.draw_bits` call, so they stay
    on their cursors.  The deterministic patterns repeat one
    :func:`repro.core.inputs.input_row` and leave the streams untouched.
    """
    if inputs == "random":
        return streams.draw_bits(np.full(len(streams), n)).reshape(len(streams), n)
    return np.tile(input_row(n, inputs), (len(streams), 1))


def batch_setup(
    n: int, inputs: str, trials: int, seed: int, trial_offset: int = 0
) -> tuple[np.ndarray, TrialStreams]:
    """Materialise a batch's ``(B, n)`` input plane and per-trial streams.

    Trial ``k`` uses the Philox key ``(seed, trial_offset + k)`` and consumes
    randomness from its stream here only for the ``random`` input pattern.
    ``trial_offset`` lets a shard worker run a contiguous sub-range of a
    larger sweep on the sweep's global trial counters, keeping sharded
    execution bit-identical to the single-batch run.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    streams = TrialStreams(seed, trial_offset, trials)
    return _trial_inputs(n, inputs, streams), streams


def build_vectorized_simulator(
    n: int,
    t: int,
    *,
    protocol: str = "committee-ba-las-vegas",
    adversary: str = "coin-attack",
    alpha: float = 4.0,
    params: ProtocolParameters | None = None,
    max_rounds: int | None = None,
    adjacency: np.ndarray | None = None,
    loss: float = 0.0,
    backend: str | None = None,
) -> VectorizedAgreementSimulator:
    """Construct the vectorised simulator for a named protocol configuration.

    The protocol name fixes the coin and the Las Vegas flag
    (:data:`PHASE_PROTOCOLS`).  Without ``params`` the committee geometry
    comes from :func:`repro.core.runner.protocol_parameters`, the one source
    of truth for committee sizing shared with the object simulator:
    ``alpha`` sizes the committee protocols' committees (Rabin and Ben-Or run
    their default phase schedule).  Explicit ``params`` derived for a declared
    bound above ``t`` run the protocol sized, and with quorums set, for that
    bound against an adversary whose budget is ``t`` (experiment E3's
    shape).  ``max_rounds`` caps a Las Vegas
    run at ``max(1, max_rounds // 2)`` whole phases and defaults, for every
    protocol, to the object runner's cap
    (:func:`repro.core.runner.default_max_rounds`), so both families time
    out at the same phase.
    """
    if protocol not in PHASE_PROTOCOLS:
        raise ConfigurationError(
            f"the vectorized engine runs the protocols {tuple(PHASE_PROTOCOLS)}, "
            f"got {protocol!r}"
        )
    coin, las_vegas = PHASE_PROTOCOLS[protocol]
    if params is None:
        params = protocol_parameters(protocol, n, t, alpha)
    if max_rounds is None:
        max_rounds = default_max_rounds(protocol, n, t)
    return VectorizedAgreementSimulator(
        n=n, t=t, params=params, adversary=adversary, coin=coin,
        las_vegas=las_vegas,
        max_phases=max(1, max_rounds // 2),
        adjacency=adjacency, loss=loss, backend=backend,
    )


def run_vectorized_trials(
    n: int,
    t: int,
    *,
    protocol: str = "committee-ba-las-vegas",
    adversary: str = "coin-attack",
    inputs: str = "split",
    trials: int = 10,
    seed: int = 0,
    alpha: float = 4.0,
    params: ProtocolParameters | None = None,
    max_rounds: int | None = None,
    batch: bool = True,
    trial_offset: int = 0,
    adjacency: np.ndarray | None = None,
    loss: float = 0.0,
    backend: str | None = None,
) -> list[TrialSummary]:
    """Run several vectorised trials; one :class:`TrialSummary` row each.

    Trial ``k`` uses the counter-based Philox key ``(seed, trial_offset + k)``
    and its row records ``seed = trial_offset + k``, so a sweep of ``T``
    trials can be split into contiguous sub-batches (each worker passing its
    range start as ``trial_offset``) whose concatenated rows equal the
    single-batch run — the contract the ``workers > 1`` sharded executor
    of :mod:`repro.engine` relies on.  Rabin's dealer seed for trial ``k`` is
    ``seed + trial_offset + k``, the master seed the object runner hands that
    trial.  :func:`repro.engine.run_sweep` wraps the rows in a
    :class:`~repro.core.runner.TrialsResult` for the aggregate statistics.

    By default the whole sweep executes as one :meth:`run_batch` call on
    ``(trials, n)`` arrays; ``batch=False`` falls back to the per-trial loop
    (same rows bit-for-bit — kept for cross-validation and as the
    benchmark baseline).
    """
    simulator = build_vectorized_simulator(
        n, t, protocol=protocol, adversary=adversary, alpha=alpha,
        params=params, max_rounds=max_rounds, adjacency=adjacency, loss=loss,
        backend=backend,
    )
    input_rows, streams = batch_setup(n, inputs, trials, seed, trial_offset)
    if batch:
        return simulator.run_batch(input_rows, streams)
    return [simulator.run(input_rows[k], streams.take([k])) for k in range(trials)]
