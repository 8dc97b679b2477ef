"""Adaptive vote-splitting (equivocation) adversary.

Goal: keep the honest nodes' value estimates split so that neither value ever
reaches the ``n - t`` threshold of round 1 or the ``n - t`` / ``t + 1``
``decided`` thresholds of round 2, without touching the committee coins.

The strategy corrupts lazily: nodes are corrupted only when they are needed as
mouthpieces, spreading over time so that traces show genuinely *adaptive*
corruption.  In round 1 the corrupted nodes send the current minority value to
every honest node whose observed majority is dangerous (this can never push a
value over ``n - t`` because the minority is, by definition, below ``(n-f)/2``)
and stay silent otherwise.  In round 2 they claim ``decided`` for the value
opposite to the phase's assigned value — never more than ``t`` claims, so no
honest node can cross ``t + 1`` because of them alone — and contribute no coin
shares.

Against the paper's protocol this attack alone cannot delay agreement for
long: it never interferes with the common coin, so the first phase whose coin
lands on the side of the (possibly adversary-chosen) assigned value ends the
run.  It is the reference "moderate" attack used in examples and tests, and the
building block the stronger coin attack composes with.
"""

from __future__ import annotations

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.base import AdversaryAction, AdversaryView
from repro.core.committee import phase_of_round
from repro.simulator.messages import Message


class EquivocatingAdversary(AdaptiveAdversary):
    """Adaptively splits honest opinion without attacking the committee coin.

    It corrupts lazily: one new mouthpiece per phase until the budget is
    exhausted.

    Args:
        t: Corruption budget.
    """

    strategy_name = "equivocate"

    def __init__(self, t: int, **kwargs):
        super().__init__(t, **kwargs)
        self._last_recruit_phase = 0

    def act(self, view: AdversaryView) -> AdversaryAction:
        phase, round_in_phase = phase_of_round(view.round_index)

        # Lazily recruit mouthpieces: prefer nodes outside the current
        # committee so that the coin guarantees of Lemma 5 are untouched.
        new_corruptions: set[int] = set()
        if round_in_phase == 1 and phase > self._last_recruit_phase and view.remaining_budget > 0:
            committee = set(self.committee_members(view, phase))
            candidates = [i for i in view.honest_ids() if i not in committee]
            if not candidates:
                candidates = view.honest_ids()
            new_corruptions = self.pick_targets(candidates, 1)
            self._last_recruit_phase = phase

        corrupted_now = set(view.corrupted) | new_corruptions
        if not corrupted_now:
            return AdversaryAction(new_corruptions=new_corruptions, messages=[])
        honest = [i for i in range(view.n) if i not in corrupted_now]

        messages: list[Message] = []
        if round_in_phase == 1:
            counts = self.honest_value_counts(view.honest_outgoing, phase, 1)
            minority = 0 if counts[0] <= counts[1] else 1
            # Support the minority only if doing so cannot complete an
            # n - t quorum for it.
            if counts[minority] + len(corrupted_now) < view.n - view.t:
                for sender in sorted(corrupted_now):
                    messages.extend(self.craft_round1(sender, honest, phase, value=minority))
        else:
            decided_counts = self.honest_decided_counts(view.honest_outgoing, phase)
            assigned = 1 if decided_counts[1] >= decided_counts[0] else 0
            opposite = 1 - assigned
            # Claim `decided` for the opposite value; with at most t corrupted
            # senders this can never cross the t + 1 threshold by itself, but
            # it maximally confuses nodes that are close to it.
            for sender in sorted(corrupted_now):
                messages.extend(
                    self.craft_round2(sender, honest, phase, value=opposite, decided=True)
                )
        return AdversaryAction(new_corruptions=new_corruptions, messages=messages)
