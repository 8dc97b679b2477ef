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

Everything but that cost and adjustment — the coin-case test, the pick of
same-sign live members, the spoil test, the lowest-id corruption and the
split of the live recipients — is the straddle's coin-split body
(:class:`~repro.adversary.kernels.straddle.StraddleKernel`), which this
kernel subclasses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adversary.kernels.base import KernelContext, share_adjustment_dtype
from repro.adversary.kernels.straddle import StraddleKernel

__all__ = ["AdaptiveCrashKernel"]


@dataclass
class AdaptiveCrashKernel(StraddleKernel):
    """Crash same-sign committee members mid-broadcast to split the coin."""

    def cost(self, share_sum: np.ndarray, controlled: np.ndarray) -> np.ndarray:
        # Crashing only removes shares, so flipping the starved recipients'
        # sign costs |S| + 1 (or |S| for S < 0); members already corrupted
        # send no share to remove.
        return np.where(share_sum >= 0, share_sum + 1, -share_sum)

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
        # Crashed members deliver their final payload to the lower recipient
        # half only; the starved upper half computes the flipped coin.
        ctx.messages += fresh * half
        dtype = share_adjustment_dtype(self.params.committee_size)
        starved = np.where(share_sum >= 0, -fresh, fresh).astype(dtype)[:, None]
        return np.where(lower, 0, starved)
