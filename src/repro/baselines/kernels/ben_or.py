"""Batched kernel for Ben-Or's private-coin protocol.

Runs the two-round phase skeleton with the ``"private"`` coin: one fresh bit
per ``(trial, node)`` whenever a trial falls through to case 3.  The object
simulator draws each node's coin from its own Philox stream, which cannot be
reproduced in bulk, so this kernel is cross-validated *statistically* against
:class:`repro.baselines.ben_or.BenOrNode` (phase-count distribution,
agreement/validity on termination) rather than bit-for-bit.

Ben-Or is Las Vegas with exponential expected time for linear ``t``, so the
kernel honours an explicit ``max_rounds`` cap: trials still running at the
cap are reported with ``timed_out=True`` and their current values as outputs,
exactly like an ``allow_timeout=True`` object run.  Batching makes the
censored regime affordable — all trials burn their capped phases in lockstep
on ``(B, n)`` planes instead of one Python message at a time.
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


def run_ben_or_trials(
    n: int,
    t: int,
    *,
    adversary: str = "none",
    inputs: str = "split",
    trials: int = 10,
    seed: int = 0,
    phases_factor: float = 4.0,
    max_rounds: int | None = None,
    trial_offset: int = 0,
    adjacency=None,
    loss: float = 0.0,
    backend: str | None = None,
) -> list[TrialSummary]:
    """Run ``trials`` batched executions of Ben-Or's protocol.

    Args:
        max_rounds: Round cap (two rounds per phase); defaults to the object
            runner's generous Ben-Or bound
            (:func:`repro.core.runner.default_max_rounds`).
    """
    validate_n_t(n, t)
    from repro.core.runner import default_max_rounds

    params = rabin_parameters(n, t, phases_factor=phases_factor)
    cap_rounds = max_rounds if max_rounds is not None else default_max_rounds("ben-or", n, t)
    input_rows, streams = batch_setup(n, inputs, trials, seed, trial_offset)
    state = run_phase_skeleton_batch(
        n,
        t,
        input_rows,
        streams,
        behaviour=adversary,
        coin="private",
        params=params,
        las_vegas=True,
        max_phases=max(1, cap_rounds // 2),
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
