"""Batched NumPy kernels for the baseline protocols.

The six protocols built on the paper's two-round phase — the committee-BA
family, Chor–Coan, Rabin and Ben-Or — run batched through one entry,
:func:`repro.simulator.vectorized.run_vectorized_trials`, on the shared
hook-driven :class:`repro.simulator.phase_engine.PhaseEngine`; the protocol
name picks the coin.  This package holds the kernels of the rest of the
baseline landscape (phase king, EIG, sampling-majority and the standalone
common coin), so the E9 comparison can run at thousand-node scale.  Each
kernel executes a whole sweep of trials on ``(B, n)`` boolean planes and
returns one :class:`~repro.core.runner.TrialSummary` row per trial, built by
the same :func:`repro.simulator.vectorized.batch_summaries` as the phase
protocols' rows, and every kernel consumes the same
:mod:`repro.adversary.kernels` plane kernels the phase engine uses instead of
a private behaviour switch.

:data:`BASELINE_KERNELS` is the capability registry :mod:`repro.engine`
merges with the committee engine's entries.  Which object-simulator
adversaries each kernel serves is **derived** from the kernel's declared hook
surface and the adversary kernels' capability profiles
(:mod:`repro.adversary.kernels.capabilities`), not hand-listed: a strategy
whose requirements fit the hooks is supported (fast path), a strategy with no
lever on the protocol is *inapplicable* (dispatched to the exact
failure-free behaviour, mirroring its provably no-op object implementation),
and anything else stays on the object path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

from repro.adversary.kernels.capabilities import (
    derive_behaviours,
    inapplicable_adversaries,
)
from repro.baselines.kernels.coin import CoinTrialsResult, run_coin_trials
from repro.baselines.kernels.eig import EIG_HOOKS, run_eig_trials
from repro.baselines.kernels.phase_king import PHASE_KING_HOOKS, run_phase_king_trials
from repro.baselines.kernels.sampling_majority import (
    SAMPLING_HOOKS,
    run_sampling_majority_trials,
)
from repro.core.runner import TrialSummary
from repro.simulator.vectorized import COMMITTEE_ENGINE_HOOKS, run_vectorized_trials


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
            which ``behaviours`` and ``inapplicable`` are derived.
        behaviours: Adversary name -> the adversary plane kernel's name
            (:data:`repro.adversary.kernels.ADVERSARY_PLANE_KERNELS`).  Only
            pairs listed here take the vectorised fast path; a supported
            strategy maps to itself and an inapplicable one to the exact
            ``"null"`` kernel.
        inapplicable: Names of the strategies with *no lever* on
            this protocol (their object implementations provably no-op);
            listed explicitly in the engine tables.
        exact: Adversary names whose kernel runs are bit-identical to the
            object simulator (everything else is statistically validated).
        supports_params: Kernel accepts a committee-geometry override
            (``params=``) and an ``alpha`` kwarg.
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

    Protocol and adversary constructor kwargs are object-only: any of them
    forces the object path (:func:`repro.engine.vectorizable`).
    """

    name: str
    run_trials: Callable[..., list[TrialSummary]]
    hooks: frozenset[str]
    behaviours: Mapping[str, str] = field(init=False)
    inapplicable: frozenset[str] = field(init=False)
    exact: frozenset[str] = frozenset()
    supports_params: bool = False
    supports_max_rounds: bool = False
    supports_topology: bool = False
    supports_backend: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "behaviours", derive_behaviours(self.hooks))
        object.__setattr__(
            self, "inapplicable", inapplicable_adversaries(self.hooks)
        )


#: protocol name -> baseline kernel capability record.  The committee-coin
#: protocols are registered by :mod:`repro.engine` itself; Rabin and Ben-Or
#: run on the same entry with the dealer and private coins.  ``exact`` marks
#: the pairs the cross-validation suite holds to bit-identity (deterministic
#: protocols and the replayed dealer stream — including the inapplicable
#: no-op pairs, which are bit-identical wherever the failure-free pair is).
BASELINE_KERNELS: dict[str, KernelSpec] = {
    "rabin": KernelSpec(
        name="dealer-coin",
        run_trials=partial(run_vectorized_trials, protocol="rabin"),
        hooks=COMMITTEE_ENGINE_HOOKS,
        # The dealer stream is replayed exactly and these fault models are
        # deterministic, so they match the object simulator bit for bit; the
        # rushing share attacks depend on the honest share draws and stay
        # statistical.
        exact=frozenset(
            {"null", "silent", "static", "equivocate", "committee-targeting"}
        ),
        supports_topology=True,
        supports_backend=True,
    ),
    "ben-or": KernelSpec(
        name="private-coin",
        run_trials=partial(run_vectorized_trials, protocol="ben-or"),
        hooks=COMMITTEE_ENGINE_HOOKS,
        supports_max_rounds=True,
        supports_topology=True,
        supports_backend=True,
    ),
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

__all__ = [
    "BASELINE_KERNELS",
    "CoinTrialsResult",
    "KernelSpec",
    "run_coin_trials",
    "run_eig_trials",
    "run_phase_king_trials",
    "run_sampling_majority_trials",
]
