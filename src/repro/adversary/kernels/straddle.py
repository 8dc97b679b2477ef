"""Batched plane kernel for the rushing coin-straddling attack.

Models :class:`repro.adversary.strategies.coin_attack.CoinAttackAdversary`,
preserving bit-for-bit the arithmetic of the committee engine's original
built-in straddle loop: in the coin round the kernel (rushing) reads the
committee's fresh shares from ``ctx.shares``, computes the honest sum ``S``
and — for trials that fell through to the coin case — corrupts just enough
same-sign committee members (``ceil((|S| - controlled [+1 if S >= 0]) / 2)``,
lowest ids first) that the controlled shares can push half the recipients'
totals to ``>= 0`` and the other half below, splitting the coin.

The split is returned as an additive share-adjustment plane: with the engine
computing each recipient's coin as ``sign(S + adjustment)``, an adjustment of
``-S`` for the upper recipient half and ``-S - 1`` for the lower half yields
coin 1 above and coin 0 below — exactly the ``value[upper] = 1 / value[lower]
= 0`` assignment of the retired ``_run_batch_uniform`` loop.  The plane is
``-S - lower`` in the committee's narrow adjustment dtype
(:func:`~repro.adversary.kernels.base.share_adjustment_dtype`; int8 up to a
committee of 127), one byte per cell.  Against a dealer or private coin the
adjustment plane is ignored by the engine, which reproduces the attack's
futility (corruptions still spent, coin unmoved) against Rabin and Ben-Or.
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

__all__ = ["StraddleKernel"]


@dataclass
class StraddleKernel(AdversaryKernel):
    """Corrupt same-sign committee members mid-coin-round; split the coin."""

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
        # The attack only fires for trials in the coin case; the straddle adds
        # no decided records, so the honest tallies decide the case exactly.
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
        controlled = np.count_nonzero(ctx.corrupted[:, start:stop], axis=1)
        sign = np.where(share_sum >= 0, 1, -1).astype(np.int8)
        # Fresh same-sign corruptions needed for a Byzantine straddle:
        # ceil((|S| - controlled [+ 1 if S >= 0]) / 2).
        raw = np.where(
            share_sum >= 0,
            share_sum - controlled + 1,
            -share_sum - controlled,
        )
        needed = np.maximum(0, -((-raw) // 2))
        committee_active = ctx.active[:, start:stop]
        same_sign = committee_active & (ctx.shares == sign[:, None])
        available = np.count_nonzero(same_sign, axis=1)
        spoiled = (
            case3 & (ctx.budget > 0) & (needed <= ctx.budget) & (needed <= available)
        )
        if not spoiled.any():
            return Round2Effect()
        fresh = np.where(spoiled, needed, 0)
        # Adversary round-2 traffic: controlled members to all honest.  The
        # honest count is taken before the corruption, on the engine's
        # plane, less the `fresh` victims (all of them active).
        honest = ctx.active_count() - fresh
        ctx.corrupt(first_k_true(same_sign, fresh), start=start, stop=stop, count=fresh)
        ctx.messages += np.where(spoiled, (controlled + needed) * honest, 0)
        # Share adjustment forcing the half split among the live recipients:
        # -S on the upper half (coin 1), -S - 1 on the lower half (coin 0),
        # and 0 on rows the attack did not spoil (their split is empty).
        # Columns outside the live-recipient mask never reach the engine's
        # coin blend, so they need no masking of their own.
        recipients = ctx.active & ctx.can_update
        recipients &= spoiled[:, None]
        lower, _ = lower_half_split(recipients)
        dtype = share_adjustment_dtype(self.params.committee_size)
        sums = np.where(spoiled, share_sum, 0).astype(dtype)[:, None]
        return Round2Effect(shares=-sums - lower)
