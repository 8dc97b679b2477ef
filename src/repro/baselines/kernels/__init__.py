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

Each kernel module declares the adversary hook surface it implements
(``PHASE_KING_HOOKS``, ``EIG_HOOKS``, ``SAMPLING_HOOKS``).  The one capability
registry, :data:`repro.engine.PROTOCOL_KERNELS`, records every protocol's
kernel with its surface, and the adversaries each kernel serves are
**derived** from that surface and the adversary kernels' capability profiles
(:mod:`repro.adversary.kernels.capabilities`), not hand-listed.
"""

from __future__ import annotations

from repro.baselines.kernels.coin import CoinTrialsResult, run_coin_trials
from repro.baselines.kernels.eig import run_eig_trials
from repro.baselines.kernels.phase_king import run_phase_king_trials
from repro.baselines.kernels.sampling_majority import (
    run_sampling_majority_trials,
)

__all__ = [
    "CoinTrialsResult",
    "run_coin_trials",
    "run_eig_trials",
    "run_phase_king_trials",
    "run_sampling_majority_trials",
]
