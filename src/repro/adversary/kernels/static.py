"""Batched plane kernel for the static equivocator.

Models :class:`repro.adversary.static.StaticAdversary` with its default
target choice: the ``t`` highest ids are corrupted before round 1 and, every
round thereafter, each of them tells the lower half of the honest nodes one
story and the upper half the opposite one — value ``0`` vs ``1`` in round 1,
``(0, decided)`` vs ``(1, decided)`` plus a ``-1`` vs ``+1`` coin share (when
the sender sits in the phase's designated committee) in round 2.

Because both the corrupted set and the honest set are fixed for the whole
execution, the per-recipient planes are *constant* ``(n,)`` masks built once:
the only per-phase quantity is how many corrupted nodes fall inside the
phase's committee, which is a pure geometry overlap (committees are
contiguous id ranges and so is the corrupted block).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adversary.kernels.base import (
    AdversaryKernel,
    KernelContext,
    Round1Effect,
    Round2Effect,
)

__all__ = ["StaticEquivocateKernel"]


@dataclass
class StaticEquivocateKernel(AdversaryKernel):
    """Corrupt the top ``t`` ids up front; split every announcement in half."""

    @classmethod
    def initial_corrupted_columns(cls, n: int, t: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        mask[max(0, n - t):] = True
        return mask

    @classmethod
    def crafted_traffic(cls, corrupted: int, honest: int, round_in_phase: int) -> int:
        return corrupted * honest

    #: ``(n,)`` masks of the lower / upper halves of the honest id range,
    #: constant for the whole execution.
    _low: np.ndarray = field(init=False, repr=False)
    _high: np.ndarray = field(init=False, repr=False)
    _num_corrupted: int = field(init=False)

    def __post_init__(self) -> None:
        n = self.n
        self._num_corrupted = min(self.t, n)
        first_corrupted = n - self._num_corrupted
        honest_half = first_corrupted // 2
        self._low = np.zeros(n, dtype=bool)
        self._low[:honest_half] = True
        self._high = np.zeros(n, dtype=bool)
        self._high[honest_half:first_corrupted] = True

    def _controlled_in_committee(self, ctx: KernelContext) -> int:
        """Corrupted members of the phase committee (two contiguous id blocks)."""
        first_corrupted = self.n - self._num_corrupted
        return max(0, ctx.committee_stop - max(ctx.committee_start, first_corrupted))

    def _adversary_traffic(self, ctx: KernelContext) -> None:
        honest = self.n - self._num_corrupted
        ctx.messages[ctx.running] += self._num_corrupted * honest

    def round1(self, ctx: KernelContext, ones: np.ndarray, zeros: np.ndarray) -> Round1Effect:
        self._adversary_traffic(ctx)
        return Round1Effect(
            ones=self._num_corrupted * self._high,
            zeros=self._num_corrupted * self._low,
        )

    def round2(
        self,
        ctx: KernelContext,
        decided_one: np.ndarray,
        decided_zero: np.ndarray,
        share_sum: np.ndarray,
    ) -> Round2Effect:
        self._adversary_traffic(ctx)
        controlled = self._controlled_in_committee(ctx)
        split_sign = np.where(self._high, 1, -1) if controlled else 0
        return Round2Effect(
            decided_one=self._num_corrupted * self._high,
            decided_zero=self._num_corrupted * self._low,
            shares=controlled * split_sign,
        )
