"""Adaptive rushing *crash*-fault adversary.

Bar-Joseph and Ben-Or's ``Omega(t / sqrt(n log n))`` lower bound (Theorem 1 in
the paper) holds already for adaptive *crash* faults: an adversary that can
only stop nodes — possibly in the middle of a broadcast, so that some
recipients receive the final message and others do not — but never forge
content.  This strategy is the natural crash-fault analogue of the
coin-straddling attack and is used in experiment E7 to put measured round
counts next to the analytic lower-bound curve.

In the coin-flip round of each phase the adversary (rushing) inspects the
committee's shares, and crashes just enough members whose share matches the
sign of the honest sum that recipients who *do* get those final shares compute
one coin value while recipients who *don't* compute the other.  Crashing can
only remove shares (never flip them), so a straddle costs roughly ``|S| + 1``
crashes — about twice the Byzantine attack — which is why crash faults delay
agreement less than full Byzantine corruption for the same budget.
"""

from __future__ import annotations

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.base import AdversaryAction, AdversaryView
from repro.core.committee import phase_of_round
from repro.simulator.messages import CoinShare, CombinedAnnouncement, Message


class AdaptiveCrashAdversary(AdaptiveAdversary):
    """Crash committee members mid-broadcast to split the coin.

    Crashed nodes never send again; in the crash round their *original* honest
    payload is delivered to one half of the recipients and withheld from the
    other half (a crash in the middle of the broadcast loop).
    """

    strategy_name = "adaptive-crash"

    def __init__(self, t: int, **kwargs):
        kwargs.setdefault("rushing", True)
        super().__init__(t, **kwargs)
        self.phases_spoiled = 0

    @staticmethod
    def crashes_needed(honest_sum: int) -> int:
        """Crashes of same-sign members needed so withheld recipients flip sign."""
        if honest_sum >= 0:
            return honest_sum + 1
        return -honest_sum

    def act(self, view: AdversaryView) -> AdversaryAction:
        phase, round_in_phase = phase_of_round(view.round_index)
        if round_in_phase == 1:
            return AdversaryAction()

        decided_counts = self.honest_decided_counts(view.honest_outgoing, phase)
        if max(decided_counts.values()) >= view.t + 1:
            return AdversaryAction()

        committee = self.committee_members(view, phase)
        if not committee:
            return AdversaryAction()
        shares = self.honest_coin_shares(view.honest_outgoing, committee, phase)
        honest_sum = sum(shares.values())
        sign = 1 if honest_sum >= 0 else -1
        candidates = [node for node, share in shares.items() if share == sign]
        needed = self.crashes_needed(honest_sum)
        if needed > view.remaining_budget or needed > len(candidates):
            return AdversaryAction()

        new_corruptions = self.pick_targets(candidates, needed)
        recipients = [i for i in view.honest_ids() if i not in new_corruptions]
        receives_group, starved_group = self.split_recipients(recipients)

        # Crashed nodes deliver their original (honest) payload only to the
        # `receives_group`; the starved group gets nothing from them.
        messages: list[Message] = []
        for sender in sorted(new_corruptions):
            original = view.honest_outgoing.get(sender, [])
            payload = original[0].payload if original else None
            if not isinstance(payload, (CombinedAnnouncement, CoinShare)):
                continue
            for recipient in receives_group:
                messages.append(Message(sender, recipient, payload))
        self.phases_spoiled += 1
        return AdversaryAction(new_corruptions=new_corruptions, messages=messages)
