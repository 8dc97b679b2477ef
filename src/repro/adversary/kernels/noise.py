"""Batched plane kernel for the random-noise (babbling) adversary.

Models :class:`repro.adversary.strategies.random_noise.RandomNoiseAdversary`
with its default target choice: the first ``min(t, n)`` ids are corrupted up
front and every corrupted node sends an independently random per-recipient
message each round.  Rather than materialising per-sender messages, each
recipient's aggregate view is sampled directly from the trial's generator —
the same distributions the old dedicated noise loop used:

* round 1: the noisy ones a recipient sees are ``Binomial(f, 1/2)``;
* round 2: the noisy ``(decided, value)`` records are
  ``Multinomial(f, [1/4, 1/4, 1/2])`` (decided-1 / decided-0 / undecided) and
  the noisy committee members' share contribution is
  ``2 * Binomial(f_c, 1/2) - f_c``.

The draw order per trial (round-1 binomial, engine share draw, round-2
multinomial, round-2 binomial) matches the retired
``VectorizedAgreementSimulator._run_batch_noise`` loop exactly, so per-trial
results are bit-compatible across the engine unification.  Against dealer or
private coins the share noise cannot influence the run, so the kernel skips
those draws (``ctx.coin``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adversary.kernels.base import (
    AdversaryKernel,
    KernelContext,
    Round1Effect,
    Round2Effect,
    share_adjustment_dtype,
)

__all__ = ["RandomNoiseKernel"]

#: (decided-1, decided-0, undecided) probabilities of one noisy record.
_NOISE_PROBS = (0.25, 0.25, 0.5)


@dataclass
class RandomNoiseKernel(AdversaryKernel):
    """First ``min(t, n)`` ids babble uniformly random messages forever."""

    @classmethod
    def initial_corrupted_columns(cls, n: int, t: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        mask[: min(t, n)] = True
        return mask

    @classmethod
    def crafted_traffic(cls, corrupted: int, honest: int, round_in_phase: int) -> int:
        return corrupted * honest

    @property
    def _noisy(self) -> int:
        return min(self.t, self.n)

    def _traffic(self, ctx: KernelContext) -> None:
        noisy = self._noisy
        ctx.messages[ctx.running] += noisy * (self.n - noisy)

    def round1(self, ctx: KernelContext, ones: np.ndarray, zeros: np.ndarray) -> Round1Effect:
        noisy = self._noisy
        self._traffic(ctx)
        batch = len(ctx.running)
        noise_ones = np.zeros((batch, self.n), dtype=np.int64)
        for b in range(batch):
            if ctx.running[b]:
                noise_ones[b] = ctx.streams[b].binomial(noisy, 0.5, size=self.n)
        return Round1Effect(ones=noise_ones, zeros=noisy - noise_ones)

    def round2(
        self,
        ctx: KernelContext,
        decided_one: np.ndarray,
        decided_zero: np.ndarray,
        share_sum: np.ndarray,
    ) -> Round2Effect:
        noisy = self._noisy
        self._traffic(ctx)
        batch = len(ctx.running)
        noise_d1 = np.zeros((batch, self.n), dtype=np.int64)
        noise_d0 = np.zeros((batch, self.n), dtype=np.int64)
        share_noise: np.ndarray | int = 0
        noisy_in_committee = 0
        if ctx.coin == "committee":
            noisy_in_committee = max(0, min(ctx.committee_stop, noisy) - ctx.committee_start)
            if noisy_in_committee:
                share_noise = np.zeros(
                    (batch, self.n),
                    dtype=share_adjustment_dtype(self.params.committee_size),
                )
        for b in range(batch):
            if not ctx.running[b]:
                continue
            records = ctx.streams[b].multinomial(noisy, _NOISE_PROBS, size=self.n)
            noise_d1[b] = records[:, 0]
            noise_d0[b] = records[:, 1]
            if noisy_in_committee:
                share_noise[b] = (
                    2 * ctx.streams[b].binomial(noisy_in_committee, 0.5, size=self.n)
                    - noisy_in_committee
                )
        return Round2Effect(decided_one=noise_d1, decided_zero=noise_d0, shares=share_noise)
