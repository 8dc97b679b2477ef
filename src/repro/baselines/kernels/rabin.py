"""Batched kernel for Rabin's dealer-coin protocol.

Runs the two-round phase skeleton with the ``"dealer"`` coin: one public
Philox-derived bit per ``(trial, phase)``, drawn from exactly the stream
:class:`repro.baselines.rabin.RabinDealerNode` consults, with trial ``k``'s
dealer seed set to ``seed + k`` — the master seed the object runner hands that
trial.  Because the dealer bit is the *only* randomness that influences the
execution, the kernel is bit-identical to the object simulator (rounds,
phases, messages, agreement, validity, decision) under the ``none`` and
``silent`` behaviours; under ``straddle`` the adversary's spending depends on
the honest share draws, so cross-validation is statistical.
"""

from __future__ import annotations

from repro.baselines.kernels.common import (
    batch_setup,
    finalize_planes,
)
from repro.baselines.kernels.phase_skeleton import run_phase_skeleton_batch
from repro.baselines.rabin import rabin_parameters
from repro.core.parameters import validate_n_t
from repro.core.runner import TrialSummary


def run_rabin_trials(
    n: int,
    t: int,
    *,
    adversary: str = "none",
    inputs: str = "split",
    trials: int = 10,
    seed: int = 0,
    phases_factor: float = 4.0,
    trial_offset: int = 0,
    adjacency=None,
    loss: float = 0.0,
    backend: str | None = None,
) -> list[TrialSummary]:
    """Run ``trials`` batched executions of Rabin's protocol.

    Mirrors :func:`repro.simulator.vectorized.run_vectorized_trials`: trial
    ``k`` uses the Philox key ``(seed, trial_offset + k)`` for any private
    randomness and the dealer seed ``seed + trial_offset + k`` for the public
    coin stream, so sharded sub-batches replay the exact single-batch streams.
    ``adversary`` accepts any plane-kernel behaviour name; the share attacks
    (``straddle``/``crash``/``committee-targeting``) spend their corruptions
    faithfully but cannot move the public dealer coin.
    """
    validate_n_t(n, t)
    params = rabin_parameters(n, t, phases_factor=phases_factor)
    input_rows, streams = batch_setup(n, inputs, trials, seed, trial_offset)
    state = run_phase_skeleton_batch(
        n,
        t,
        input_rows,
        streams,
        behaviour=adversary,
        coin="dealer",
        params=params,
        las_vegas=False,
        max_phases=params.num_phases,
        dealer_seeds=[seed + trial_offset + k for k in range(trials)],
        adjacency=adjacency,
        loss=loss,
        backend=backend,
    )
    return finalize_planes(
        n,
        t,
        input_rows,
        streams,
        output=state["output"],
        corrupted=state["corrupted"],
        rounds=state["rounds"],
        phases=state["phases"],
        messages=state["messages"],
        bits=state["bits"],
        timed_out=state["timed_out"],
    )
