"""Shared machinery for the batched baseline-protocol kernels.

Every kernel in this package follows the conventions established by the
committee engine (:mod:`repro.simulator.vectorized`):

* a sweep of ``B`` trials executes simultaneously on ``(B, n)`` boolean
  planes, with per-node updates expressed as XOR-blend boolean algebra and
  per-row tallies computed by byte-packing + popcount;
* trial ``k`` of master seed ``s`` draws its randomness from the
  counter-based Philox stream keyed ``(s, k)``, row ``k`` of the batch's
  :class:`~repro.simulator.draws.TrialStreams`, so per-trial results are
  independent of how trials are batched together;
* results are reported as one :class:`~repro.core.runner.TrialSummary` row
  per trial, in trial order with ``seed = trial_offset + k`` — the rows
  :func:`repro.engine.run_sweep` keeps.

This module collects the pieces the kernels share: the per-trial input and
stream setup and the batched agreement/validity finaliser.  The live CONGEST
payload-size table is :data:`repro.simulator.messages.PAYLOAD_BITS`.
"""

from __future__ import annotations

import numpy as np

from repro.core.parameters import validate_n_t
from repro.core.runner import TrialSummary
from repro.exceptions import ConfigurationError
from repro.simulator.bitplanes import row_popcount
from repro.simulator.draws import TrialStreams
from repro.simulator.phase_engine import finalize_planes as evaluate_planes
from repro.simulator.vectorized import trial_inputs, trial_summaries

__all__ = [
    "batch_setup",
    "finalize_planes",
    "row_popcount",
    "trial_inputs",
]


def batch_setup(
    n: int, inputs: str, trials: int, seed: int, trial_offset: int = 0
) -> tuple[np.ndarray, TrialStreams]:
    """Materialise the ``(B, n)`` input plane and the per-trial streams.

    Trial ``k`` uses the Philox key ``(seed, trial_offset + k)`` and — exactly
    as in the committee engine — consumes randomness from its stream only
    for the ``random`` input pattern, so deterministic-input sweeps leave the
    trial streams untouched for the protocol itself.  ``trial_offset`` lets a
    shard worker run a contiguous sub-range of a larger sweep on the sweep's
    global trial counters, keeping sharded execution bit-identical to the
    single-batch run.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    streams = TrialStreams(seed, trial_offset, trials)
    return trial_inputs(n, inputs, streams), streams


def finalize_planes(
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
    """Evaluate agreement/validity per trial and build the trials' rows.

    Mirrors the committee engine's finaliser: agreement and validity are
    evaluated over the honest nodes' output plane, validity only binds when
    the honest inputs were unanimous, each row's ``seed`` is its trial
    counter in ``streams``, and ``bits`` is passed explicitly because the
    baselines use heterogeneous payload sizes (the committee engine's flat
    35-bit payload does not hold for king values, EIG reports or sampling
    traffic).
    """
    validate_n_t(n, t)
    evaluated = evaluate_planes(
        n, t, inputs, output=output, corrupted=corrupted,
        messages=messages, timed_out=timed_out,
    )
    return trial_summaries(
        evaluated, streams.trial_counters, rounds=rounds, phases=phases, bits=bits
    )
