"""Batched kernel for exponential information gathering (EIG).

EIG is deterministic, and under the mute/ignored fault behaviours its
exponential information tree collapses to a per-level recurrence: an entry
exists (at every honest node, identically) exactly for the all-honest
distinct-id paths, carrying the path root's input, while any path through a
corrupted node is missing and resolves to the default value 0.  Bottom-up
majority resolution of an all-honest path of depth ``k`` therefore depends
only on the root's input bit and the level, which the kernel evaluates as a
closed recurrence instead of materialising the ``~n^(t+1)``-entry tree —
that is what lets a whole batch of trials run in microseconds while remaining
exactly faithful to :class:`repro.baselines.eig.EIGNode`:

* ``null`` / ``silent`` — corrupted nodes send nothing;
* ``static`` / ``random-noise`` — the crafted equivocation / babble traffic
  consists of value-announcement payloads, which ``EIGNode.deliver`` ignores
  (it only reads ``EIGReport``), so the corrupted nodes contribute exactly as
  much to the tree as silent ones — nothing.  Only the target sets (top-``t``
  vs first-``t``) and the message/bit accounting differ (the crafted traffic
  is still delivered), both of which the kernel reads off the adversary's
  :class:`~repro.adversary.kernels.base.AdversaryKernel` class.

The kernel declares the narrowest hook surface in the registry
(:data:`EIG_HOOKS`: up-front corruption only): the closed recurrence assumes
a fixed honest set, so the adaptively-recruiting equivocator stays on the
object path, while the share attacks and committee targeting — which have no
lever at all against EIG (no shares, no distinguished node; their object
strategies provably no-op) — dispatch to the exact failure-free ``null``
kernel.

Message sizes follow :class:`repro.baselines.eig.EIGReport`: a round-``r``
report carries the ``P(n_h - 1, r - 1)`` all-honest paths avoiding the
sender, at ``32 * (r - 1) + 1`` bits each, plus a 32-bit header.
"""

from __future__ import annotations

import math

import numpy as np

from repro.adversary.kernels import ADVERSARY_PLANE_KERNELS
from repro.adversary.kernels.capabilities import CORRUPT_STATIC
from repro.baselines.eig import EIGNode
from repro.core.parameters import validate_n_t
from repro.core.runner import TrialSummary
from repro.exceptions import ConfigurationError
from repro.simulator.bitplanes import row_popcount
from repro.simulator.messages import PAYLOAD_BITS
from repro.simulator.vectorized import batch_setup, batch_summaries

#: Adversary hook surface this kernel implements: up-front corruption only
#: (the closed tree recurrence assumes a fixed honest set).
EIG_HOOKS = frozenset({CORRUPT_STATIC})

#: CONGEST payload sizes (bits), derived from repro.simulator.messages.
_VALUE_ANNOUNCEMENT_BITS = PAYLOAD_BITS["ValueAnnouncement"]
_COMBINED_ANNOUNCEMENT_BITS = PAYLOAD_BITS["CombinedAnnouncement"]


def _resolved_root_value(n: int, n_honest: int, num_rounds: int) -> int:
    """Bottom-up resolution of an all-honest depth-1 subtree with root input 1.

    ``r_k`` is the resolved value of an all-honest path of depth ``k`` whose
    root input is 1 (a root input of 0 always resolves to 0, and a corrupted
    node anywhere in the path zeroes the whole subtree).  At depth ``k`` the
    ``n - k`` children split into ``n_honest - k`` honest subtrees resolving
    to ``r_{k+1}`` and corrupted subtrees resolving to 0, and the node takes
    the strict majority.
    """
    resolved = 1  # depth == num_rounds: the leaf entry itself
    for depth in range(num_rounds - 1, 0, -1):
        ones = (n_honest - depth) * resolved
        resolved = 1 if 2 * ones > (n - depth) else 0
    return resolved


def run_eig_trials(
    n: int,
    t: int,
    *,
    adversary: str = "null",
    inputs: str = "split",
    trials: int = 10,
    seed: int = 0,
    trial_offset: int = 0,
) -> list[TrialSummary]:
    """Run ``trials`` batched executions of EIG (``t < n/3``, ``t + 1`` rounds)."""
    validate_n_t(n, t)
    kernel_class = ADVERSARY_PLANE_KERNELS.get(adversary)
    if kernel_class is None:
        raise ConfigurationError(
            f"no EIG adversary kernel for {adversary!r}; "
            f"available: {sorted(ADVERSARY_PLANE_KERNELS)}"
        )
    estimated = sum(n**level for level in range(1, t + 2))
    if estimated > EIGNode.MAX_TREE_ENTRIES:
        raise ConfigurationError(
            f"EIG tree would hold ~{estimated} entries for n={n}, t={t}; "
            "this baseline is only meant for very small networks"
        )
    input_rows, streams = batch_setup(n, inputs, trials, seed, trial_offset)
    batch = input_rows.shape[0]
    num_rounds = t + 1

    corrupted_cols = kernel_class.initial_corrupted_columns(n, t)
    honest_cols = ~corrupted_cols
    n_honest = int(honest_cols.sum())
    n_corrupt = n - n_honest
    resolved = _resolved_root_value(n, n_honest, num_rounds)

    # Final vote at honest node j: its own input substitutes for its subtree,
    # every other honest peer's subtree resolves to `resolved * input[peer]`,
    # and corrupted peers' subtrees resolve to 0.
    inputs_bool = input_rows.astype(bool)
    honest_input_sum = row_popcount(inputs_bool & honest_cols[None, :])
    votes = resolved * (honest_input_sum[:, None] - inputs_bool.astype(np.int64)) + inputs_bool
    output = (2 * votes > n) & honest_cols[None, :]

    # Message/bit accounting: honest reports plus the delivered-but-ignored
    # crafted traffic (equivocation / babble) of the adversary.
    total_messages = 0
    total_bits = 0
    for round_number in range(1, num_rounds + 1):
        entries = math.perm(n_honest - 1, round_number - 1)
        report_bits = 32 + entries * (32 * (round_number - 1) + 1)
        round_in_phase = 1 if round_number % 2 == 1 else 2
        crafted = kernel_class.crafted_traffic(n_corrupt, n_honest, round_in_phase)
        total_messages += n_honest * (n - 1) + crafted
        total_bits += n_honest * (n - 1) * report_bits
        crafted_bits = (
            _VALUE_ANNOUNCEMENT_BITS if round_in_phase == 1 else _COMBINED_ANNOUNCEMENT_BITS
        )
        total_bits += crafted * crafted_bits

    corrupted = np.tile(corrupted_cols, (batch, 1))
    return batch_summaries(
        n,
        t,
        input_rows,
        streams,
        output=output,
        corrupted=corrupted,
        rounds=np.full(batch, num_rounds, dtype=np.int64),
        phases=np.full(batch, math.ceil(num_rounds / 2), dtype=np.int64),
        messages=np.full(batch, total_messages, dtype=np.int64),
        bits=np.full(batch, total_bits, dtype=np.int64),
    )
