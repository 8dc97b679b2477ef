"""Batched plane kernel for the adaptive rushing crash attack.

Models :class:`repro.adversary.strategies.crash.AdaptiveCrashAdversary`,
preserving the arithmetic of the committee engine's original built-in
``crash`` loop: in the coin round the kernel reads the fresh shares and, for
trials in the coin case, crashes just enough members whose share matches the
sign of the honest sum (``|S| + 1`` for ``S >= 0``, ``|S|`` otherwise — about
twice the Byzantine straddle's cost, since crashing only removes shares) that
the recipients who *do* receive those final shares compute one coin value
while the starved half computes the other.

Plane formulation: the crashed members' final payloads reach the lower
recipient half only (``needed * half`` extra deliveries), so the lower half
sees the original sum ``S`` (adjustment 0, coin ``sign(S)``) while the upper
half is starved of the ``needed`` same-sign shares (adjustment
``-needed * sign``, flipping the coin).  Against a dealer or private coin the
adjustment is ignored — crashing share senders cannot move those coins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.adversary.kernels.base import (
    AdversaryKernel,
    KernelContext,
    Round2Effect,
    share_adjustment_dtype,
)
from repro.simulator.bitplanes import first_k_true, lower_half_split

__all__ = ["AdaptiveCrashKernel"]


@dataclass
class AdaptiveCrashKernel(AdversaryKernel):
    """Crash same-sign committee members mid-broadcast to split the coin."""

    needs_shares: ClassVar[bool] = True

    def round2(
        self,
        ctx: KernelContext,
        decided_one: np.ndarray,
        decided_zero: np.ndarray,
        share_sum: np.ndarray,
    ) -> Round2Effect:
        n, t = self.n, self.t
        quorum = n - t
        assigned = (
            (decided_one >= quorum)
            | (decided_zero >= quorum)
            | (decided_one >= t + 1)
            | (decided_zero >= t + 1)
        )
        case3 = ctx.running & ~assigned
        if not case3.any():
            return Round2Effect()
        assert ctx.shares is not None
        start, stop = ctx.committee_start, ctx.committee_stop
        sign = np.where(share_sum >= 0, 1, -1).astype(np.int8)
        # Crashing only removes shares, so flipping the starved recipients'
        # sign costs |S| + 1 (or |S| for S < 0).
        needed = np.where(share_sum >= 0, share_sum + 1, -share_sum)
        committee_active = ctx.active[:, start:stop]
        same_sign = committee_active & (ctx.shares == sign[:, None])
        available = np.count_nonzero(same_sign, axis=1)
        spoiled = case3 & (needed <= ctx.budget) & (needed <= available)
        if not spoiled.any():
            return Round2Effect()
        fresh = np.where(spoiled, needed, 0)
        ctx.corrupt(first_k_true(same_sign, fresh), start=start, stop=stop, count=fresh)
        # Crashed members deliver their final payload to the lower recipient
        # half only; the starved upper half computes the flipped coin.  Rows
        # the attack did not spoil split nobody and adjust nothing.
        # Columns outside the live-recipient mask never reach the engine's
        # coin blend, so only the lower/upper distinction needs masking.
        recipients = ctx.active & ctx.can_update
        recipients &= spoiled[:, None]
        lower, half = lower_half_split(recipients)
        ctx.messages += fresh * half
        dtype = share_adjustment_dtype(self.params.committee_size)
        starved = (-fresh * sign).astype(dtype)[:, None]
        return Round2Effect(shares=np.where(lower, 0, starved))
