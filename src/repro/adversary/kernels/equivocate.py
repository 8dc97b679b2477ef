"""Batched plane kernel for the adaptive vote-splitting equivocator.

Models :class:`repro.adversary.strategies.equivocate.EquivocatingAdversary`:
one fresh mouthpiece per phase (lowest-id active node outside the phase's
committee, falling back to any active node), recruited in round 1 while the
budget lasts; in round 1 every corrupted node supports the honest *minority*
value — but only when that support cannot complete an ``n - t`` quorum — and
in round 2 it claims ``decided`` for the value opposite to the phase's
assigned one, never touching the committee coin.

Both announcements go to *every* honest recipient, so the effect planes are
uniform ``(B, 1)`` columns; what makes this kernel genuinely adaptive is the
per-trial corruption schedule (the mouthpiece choice depends on the evolving
``active`` plane and the per-trial budget) and the minority/assigned-value
decisions, which are rushing reads of the live honest tallies.

Known deviation from the object strategy: the object adversary may recruit an
already-terminated honest node (its candidate list ignores termination); the
kernel recruits among *active* nodes only.  Terminated nodes have locked
their outputs, so corrupting one changes nothing about the run dynamics —
only the honest set the evaluator scores — and the pairing is validated
statistically, like every committee fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adversary.kernels.base import (
    AdversaryKernel,
    KernelContext,
    Round1Effect,
    Round2Effect,
)
from repro.simulator.bitplanes import first_k_true

__all__ = ["EquivocatePlaneKernel"]


@dataclass
class EquivocatePlaneKernel(AdversaryKernel):
    """Recruit one mouthpiece per phase; split opinion without touching coins."""

    @classmethod
    def crafted_traffic(cls, corrupted: int, honest: int, round_in_phase: int) -> int:
        return corrupted * honest

    def _column(self, counts: np.ndarray, send: np.ndarray) -> np.ndarray:
        """A ``(B, 1)`` additive column: ``counts`` where ``send``, else 0."""
        return np.where(send, counts, 0)[:, None]

    def round1(self, ctx: KernelContext, ones: np.ndarray, zeros: np.ndarray) -> Round1Effect:
        # Lazily recruit mouthpieces: prefer active nodes outside the current
        # committee so the coin guarantees of Lemma 5 are untouched.
        spend = np.minimum(1, ctx.budget)
        spend = np.where(ctx.running, np.maximum(spend, 0), 0)
        if spend.any():
            candidates = ctx.active.copy()
            candidates[:, ctx.committee_start : ctx.committee_stop] = False
            starved = ~candidates.any(axis=1)
            if starved.any():
                candidates[starved] = ctx.active[starved]
            ctx.corrupt(first_k_true(candidates, spend))

        # The minority decision uses the pre-corruption tallies (the recruit
        # broadcast honestly before being corrupted), exactly like the object
        # strategy's rushing view.  `ctx.corrupt` keeps the spent budget
        # equal to the corrupted count.
        corrupted_now = self.t - ctx.budget
        minority_is_one = zeros > ones
        minority_count = np.where(minority_is_one, ones, zeros)
        # Support the minority only if doing so cannot complete an n - t
        # quorum for it.
        send = ctx.running & (corrupted_now > 0) & (
            minority_count + corrupted_now < self.n - self.params.t
        )
        ctx.messages += np.where(send, corrupted_now * (self.n - corrupted_now), 0)
        return Round1Effect(
            ones=self._column(corrupted_now, send & minority_is_one),
            zeros=self._column(corrupted_now, send & ~minority_is_one),
        )

    def round2(
        self,
        ctx: KernelContext,
        decided_one: np.ndarray,
        decided_zero: np.ndarray,
        share_sum: np.ndarray,
    ) -> Round2Effect:
        # Claim `decided` for the value opposite to the phase's assigned one;
        # with at most t corrupted senders this can never cross the t + 1
        # threshold by itself, but it maximally confuses nodes close to it.
        corrupted_now = self.t - ctx.budget
        send = ctx.running & (corrupted_now > 0)
        assigned_one = decided_one >= decided_zero
        ctx.messages += np.where(send, corrupted_now * (self.n - corrupted_now), 0)
        return Round2Effect(
            decided_one=self._column(corrupted_now, send & ~assigned_one),
            decided_zero=self._column(corrupted_now, send & assigned_one),
        )
