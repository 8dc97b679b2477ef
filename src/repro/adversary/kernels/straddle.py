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

The kernel's :meth:`~StraddleKernel.round2` is the one coin-split body of
the repository: the crash attack
(:class:`~repro.adversary.kernels.crash.AdaptiveCrashKernel`) subclasses it
and supplies only its own cost and adjustment.  The coin-case test is the
engine's own rule, :func:`~repro.adversary.kernels.base.value_assigned`.
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
    value_assigned,
)
from repro.simulator.bitplanes import first_k_true, lower_half_split

__all__ = ["StraddleKernel"]


@dataclass
class StraddleKernel(AdversaryKernel):
    """Corrupt same-sign committee members mid-coin-round; split the coin.

    :meth:`round2` is the one coin-split body the crash attack
    (:class:`~repro.adversary.kernels.crash.AdaptiveCrashKernel`) shares:
    the coin-case test, the pick of same-sign live members, the spoil test,
    the lowest-id corruption and the split of the live recipients.  A
    subclass supplies only what a split costs (:meth:`cost`) and what it
    does to the recipients (:meth:`adjustment`).
    """

    needs_shares: ClassVar[bool] = True

    def cost(self, share_sum: np.ndarray, controlled: np.ndarray) -> np.ndarray:
        """``(B,)`` fresh same-sign corruptions that split the coin."""
        # A Byzantine straddle: ceil((|S| - controlled [+ 1 if S >= 0]) / 2).
        raw = np.where(
            share_sum >= 0,
            share_sum - controlled + 1,
            -share_sum - controlled,
        )
        return np.maximum(0, -((-raw) // 2))

    def adjustment(
        self,
        ctx: KernelContext,
        share_sum: np.ndarray,
        controlled: np.ndarray,
        spoiled: np.ndarray,
        fresh: np.ndarray,
        lower: np.ndarray,
        half: np.ndarray,
    ) -> np.ndarray:
        """The ``(B, n)`` coin-share adjustment of the spoiled rows' split.

        Also accounts the attack's round-2 traffic.  Called after the
        ``fresh`` corruptions, with ``lower`` the lower half of each spoiled
        row's live recipients (``half`` of them) and ``controlled`` the
        committee members corrupted before them.
        """
        # Controlled members to all honest nodes.
        honest = ctx.active_count()
        ctx.messages += np.where(spoiled, (controlled + fresh) * honest, 0)
        # -S on the upper half (coin 1), -S - 1 on the lower half (coin 0),
        # and 0 on rows the attack did not spoil (their split is empty).
        dtype = share_adjustment_dtype(self.params.committee_size)
        sums = np.where(spoiled, share_sum, 0).astype(dtype)[:, None]
        return -sums - lower

    def round2(
        self,
        ctx: KernelContext,
        decided_one: np.ndarray,
        decided_zero: np.ndarray,
        share_sum: np.ndarray,
    ) -> Round2Effect:
        # The attack only fires for trials in the coin case; it adds no
        # decided records, so the honest tallies decide the case exactly.
        case3 = ctx.running & ~value_assigned(decided_one, decided_zero, self.n, self.params.t)
        if not case3.any():
            return Round2Effect()
        assert ctx.shares is not None
        start, stop = ctx.committee_start, ctx.committee_stop
        controlled = np.count_nonzero(ctx.corrupted[:, start:stop], axis=1)
        sign = np.where(share_sum >= 0, 1, -1).astype(np.int8)
        needed = self.cost(share_sum, controlled)
        same_sign = ctx.active[:, start:stop] & (ctx.shares == sign[:, None])
        available = np.count_nonzero(same_sign, axis=1)
        spoiled = (
            case3 & (ctx.budget > 0) & (needed <= ctx.budget) & (needed <= available)
        )
        if not spoiled.any():
            return Round2Effect()
        fresh = np.where(spoiled, needed, 0)
        ctx.corrupt(first_k_true(same_sign, fresh), start=start, stop=stop, count=fresh)
        # Columns outside the live-recipient mask never reach the engine's
        # coin blend, so only the lower/upper distinction needs masking.
        recipients = ctx.active & ctx.can_update
        recipients &= spoiled[:, None]
        lower, half = lower_half_split(recipients)
        shares = self.adjustment(ctx, share_sum, controlled, spoiled, fresh, lower, half)
        return Round2Effect(shares=shares)
