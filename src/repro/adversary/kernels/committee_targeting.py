"""Batched plane kernel for the non-rushing committee-targeting attack.

Models
:class:`repro.adversary.strategies.committee_targeting.CommitteeTargetingAdversary`:
at the top of every phase's coin round the adversary corrupts up to
``ceil(sqrt(committee_size))`` of the *upcoming* committee's lowest-id honest
members — before their coin flips exist, which is exactly the non-rushing
constraint — and then has every controlled committee member send ``-1``
shares to the lower half of the honest nodes and ``+1`` shares to the upper
half.  A recipient's total is ``S -+ f`` where ``S`` is
the honest sum it cannot see and ``f`` the controlled count, so the straddle
succeeds exactly when ``S + f >= 0 > S - f`` — with constant probability for
``f ~ sqrt(s)``, the qualitative gap to the rushing attack that E10/E1
report.

The corruption step runs in the engine's ``pre_coin`` hook: corrupted members
are removed from the ``active`` plane *before* the committee shares are
drawn, which reproduces the object scheduler discarding a freshly corrupted
node's honest broadcast (the shares the object nodes drew from their private
streams are never delivered either way).  The share split is a genuine
per-recipient ``(B, n)`` plane: the recipient halves shift as nodes get
corrupted, so the kernel re-derives the lower-half mask from the live
``corrupted`` plane each phase with the packed-byte split primitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.adversary.kernels.base import (
    AdversaryKernel,
    KernelContext,
    Round2Effect,
    share_adjustment_dtype,
)
from repro.simulator.bitplanes import first_k_true, lower_half_split, row_popcount

__all__ = ["CommitteeTargetingKernel"]


@dataclass
class CommitteeTargetingKernel(AdversaryKernel):
    """Pre-corrupt each phase's committee (non-rushing) and split its shares."""

    def __post_init__(self) -> None:
        # Fresh corruptions per committee, as the object strategy's bind.
        self.spend_per_phase = max(1, math.ceil(math.sqrt(self.params.committee_size)))

    def pre_coin(self, ctx: KernelContext) -> None:
        start, stop = ctx.committee_start, ctx.committee_stop
        candidates = ctx.active[:, start:stop]
        available = np.count_nonzero(candidates, axis=1)
        spend = np.minimum(np.minimum(self.spend_per_phase, ctx.budget), available)
        spend = np.where(ctx.running, np.maximum(spend, 0), 0)
        if not spend.any():
            return
        ctx.corrupt(first_k_true(candidates, spend), start=start, stop=stop, count=spend)

    def round2(
        self,
        ctx: KernelContext,
        decided_one: np.ndarray,
        decided_zero: np.ndarray,
        share_sum: np.ndarray,
    ) -> Round2Effect:
        start, stop = ctx.committee_start, ctx.committee_stop
        controlled = row_popcount(ctx.corrupted[:, start:stop])
        send = ctx.running & (controlled > 0)
        if not send.any():
            return Round2Effect()
        recipients = ~ctx.corrupted
        lower, _ = lower_half_split(recipients)
        controlled = np.where(send, controlled, 0)
        ctx.messages += controlled * row_popcount(recipients)
        dtype = share_adjustment_dtype(self.params.committee_size)
        column = controlled.astype(dtype)[:, None]
        return Round2Effect(shares=np.where(lower, -column, column))
