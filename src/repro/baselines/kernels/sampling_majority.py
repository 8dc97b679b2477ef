"""Batched kernel for the sampling-majority convergence dynamic.

Each iteration of the Augustine–Pandurangan–Robinson process has every node
sample the values of ``SAMPLE_SIZE`` uniformly random nodes (two rounds:
requests, then replies) and replace its own value by the majority of its value
plus the samples it received.  The kernel runs all trials at once: one
``(n, SAMPLE_SIZE)`` peer draw per trial per iteration, a batched gather of
the sampled values, and a vectorised majority update.  It runs the object
node's iteration count and sample size
(:data:`~repro.baselines.sampling_majority.ITERATIONS_FACTOR`,
:data:`~repro.baselines.sampling_majority.SAMPLE_SIZE`).

Sampling nodes read only ``SampleRequest``/``SampleReply`` payloads, so every
adversary model reduces to *which nodes stop participating when* plus the
delivered-but-ignored crafted traffic — both read off the adversary's
:class:`~repro.adversary.kernels.base.AdversaryKernel` class:

* ``silent`` / ``static`` / ``random-noise`` — a fixed corrupted set from the
  first round (first-``t`` or top-``t`` ids): a sample landing on a corrupted
  peer contributes nothing to the voter's majority, exactly the object
  semantics;
* ``equivocate`` — the adaptive mouthpiece schedule: one fresh corruption per
  iteration (lowest honest id, while the budget lasts), so the non-replying
  set *grows* over the run exactly as the object strategy recruits;
* the share attacks and committee targeting have no lever (no shares, no
  distinguished node; their object strategies provably no-op) and dispatch to
  the exact failure-free ``null`` kernel.

The object simulator draws each node's samples from its own Philox stream, so
the cross-validation is statistical (agreement rate, message volume), while
the round count ``2 * ceil(ITERATIONS_FACTOR * log2(n)^2)`` is exact.
"""

from __future__ import annotations

import math

import numpy as np

from repro.adversary.kernels import ADVERSARY_PLANE_KERNELS, EquivocatePlaneKernel
from repro.adversary.kernels.capabilities import (
    CORRUPT_ADAPTIVE,
    CORRUPT_STATIC,
)
from repro.baselines.sampling_majority import ITERATIONS_FACTOR, SAMPLE_SIZE
from repro.core.parameters import validate_n_t
from repro.core.runner import TrialSummary
from repro.exceptions import ConfigurationError
from repro.simulator.messages import PAYLOAD_BITS
from repro.simulator.vectorized import batch_setup, batch_summaries

#: Adversary hook surface this kernel implements: up-front corruption plus
#: the per-iteration corruption schedule (no value/record/share channels).
SAMPLING_HOOKS = frozenset({CORRUPT_STATIC, CORRUPT_ADAPTIVE})

#: CONGEST payload sizes (bits), derived from repro.simulator.messages.
_REQUEST_BITS = PAYLOAD_BITS["SampleRequest"]
_REPLY_BITS = PAYLOAD_BITS["SampleReply"]
_VALUE_ANNOUNCEMENT_BITS = PAYLOAD_BITS["ValueAnnouncement"]
_COMBINED_ANNOUNCEMENT_BITS = PAYLOAD_BITS["CombinedAnnouncement"]


def run_sampling_majority_trials(
    n: int,
    t: int,
    *,
    adversary: str = "null",
    inputs: str = "split",
    trials: int = 10,
    seed: int = 0,
    trial_offset: int = 0,
) -> list[TrialSummary]:
    """Run ``trials`` batched executions of the sampling-majority process."""
    validate_n_t(n, t)
    kernel_class = ADVERSARY_PLANE_KERNELS.get(adversary)
    if kernel_class is None:
        raise ConfigurationError(
            f"no sampling-majority adversary kernel for {adversary!r}; "
            f"available: {sorted(ADVERSARY_PLANE_KERNELS)}"
        )
    input_rows, streams = batch_setup(n, inputs, trials, seed, trial_offset)
    batch = input_rows.shape[0]
    log_n = max(1.0, math.log2(max(2, n)))
    num_iterations = max(1, math.ceil(ITERATIONS_FACTOR * log_n * log_n))
    staggered = issubclass(kernel_class, EquivocatePlaneKernel)

    value = input_rows.astype(bool).copy()
    corrupted_cols = kernel_class.initial_corrupted_columns(n, t)
    messages = np.zeros(batch, dtype=np.int64)
    bits = np.zeros(batch, dtype=np.int64)

    for iteration in range(1, num_iterations + 1):
        if staggered:
            # One fresh mouthpiece per iteration (lowest honest id) while the
            # budget lasts — the object equivocator's recruitment schedule.
            corrupted_cols = np.zeros(n, dtype=bool)
            corrupted_cols[: min(iteration, t)] = True
        honest_cols = ~corrupted_cols
        n_honest = int(honest_cols.sum())
        n_corrupt = n - n_honest

        peers = np.stack(
            [streams[b].integers(0, n, size=(n, SAMPLE_SIZE)) for b in range(batch)]
        )
        peer_honest = honest_cols[peers]
        sampled = (
            np.take_along_axis(value, peers.reshape(batch, n * SAMPLE_SIZE), axis=1)
            .reshape(batch, n, SAMPLE_SIZE)
        )
        ones = value.astype(np.int64) + (sampled & peer_honest).sum(axis=2)
        totals = 1 + peer_honest.sum(axis=2)
        new_value = 2 * ones > totals
        value ^= (value ^ new_value) & honest_cols[None, :]

        # Requests from every honest node; a reply per request that landed on
        # an honest peer (honest nodes answer everyone who sampled them);
        # plus the adversary's delivered-but-ignored crafted traffic.
        replies = peer_honest[:, honest_cols, :].sum(axis=(1, 2))
        requests = n_honest * SAMPLE_SIZE
        messages += requests + replies
        bits += requests * _REQUEST_BITS + replies * _REPLY_BITS
        for round_in_phase, payload_bits in (
            (1, _VALUE_ANNOUNCEMENT_BITS),
            (2, _COMBINED_ANNOUNCEMENT_BITS),
        ):
            crafted = kernel_class.crafted_traffic(n_corrupt, n_honest, round_in_phase)
            messages += crafted
            bits += crafted * payload_bits

    corrupted = np.tile(corrupted_cols, (batch, 1))
    return batch_summaries(
        n,
        t,
        input_rows,
        streams,
        output=value,
        corrupted=corrupted,
        rounds=np.full(batch, 2 * num_iterations, dtype=np.int64),
        phases=np.full(batch, num_iterations, dtype=np.int64),
        messages=messages,
        bits=bits,
    )
