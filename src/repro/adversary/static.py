"""Static adversary.

A static adversary must choose its Byzantine nodes *before* the execution
starts (it still sees the protocol and may behave arbitrarily afterwards).
The paper contrasts this weaker model — under which ``O(log n)``-round
protocols are known — with the adaptive model it targets; the static adversary
here is used in the `adaptive_vs_static` example and in ablation benchmarks.

The corrupted nodes equivocate: in every round they send value 0 to one half
of the honest nodes and value 1 to the other half, claim ``decided`` whenever
that cannot be caught (it never reaches the ``t+1`` threshold by itself), and
split their coin shares evenly.  This is the strongest *oblivious* per-round
behaviour available to nodes fixed in advance.
"""

from __future__ import annotations

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.base import AdversaryAction, AdversaryView
from repro.core.committee import phase_of_round
from repro.simulator.messages import Message


class StaticAdversary(AdaptiveAdversary):
    """Corrupts a fixed set of nodes at round 0 and equivocates forever.

    It spends its whole budget ``t`` immediately, on the ``t`` highest ids,
    which spreads the corrupted nodes across the ID-based committees as
    little as possible — the static adversary cannot adapt, so it simply
    fixes a deterministic, reproducible choice.
    """

    strategy_name = "static-equivocate"

    def bind(self, n: int, context) -> None:
        super().bind(n, context)
        self._targets = set(range(max(0, n - self.t), n))

    def act(self, view: AdversaryView) -> AdversaryAction:
        new_corruptions = self._targets - view.corrupted
        corrupted_now = set(view.corrupted) | new_corruptions
        honest = [i for i in range(view.n) if i not in corrupted_now]
        low_half, high_half = self.split_recipients(honest)
        phase, round_in_phase = phase_of_round(view.round_index)

        messages: list[Message] = []
        for sender in sorted(corrupted_now):
            if round_in_phase == 1:
                messages.extend(self.craft_round1(sender, low_half, phase, value=0))
                messages.extend(self.craft_round1(sender, high_half, phase, value=1))
            else:
                committee = set(self.committee_members(view, phase))
                share_low = -1 if sender in committee else None
                share_high = 1 if sender in committee else None
                messages.extend(
                    self.craft_round2(sender, low_half, phase, value=0, decided=True, share=share_low)
                )
                messages.extend(
                    self.craft_round2(sender, high_half, phase, value=1, decided=True, share=share_high)
                )
        return AdversaryAction(new_corruptions=new_corruptions, messages=messages)
