"""Random-noise adversary.

Corrupts its targets at round 0 and has every corrupted node send an
independently random, per-recipient message in every round: a uniformly random
value, a uniformly random ``decided`` flag and (when the node belongs to the
current committee) a uniformly random coin share.  This models buggy or
arbitrarily noisy participants rather than a coordinated attack; all protocols
must tolerate it comfortably.
"""

from __future__ import annotations

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.base import AdversaryAction, AdversaryView
from repro.core.committee import phase_of_round
from repro.simulator.messages import CombinedAnnouncement, Message, ValueAnnouncement


class RandomNoiseAdversary(AdaptiveAdversary):
    """Corrupted nodes babble uniformly random protocol messages."""

    strategy_name = "random-noise"

    def bind(self, n: int, context) -> None:
        super().bind(n, context)
        self._targets = set(range(min(self.t, n)))

    def act(self, view: AdversaryView) -> AdversaryAction:
        new_corruptions = self._targets - view.corrupted
        corrupted_now = set(view.corrupted) | new_corruptions
        honest = [i for i in range(view.n) if i not in corrupted_now]
        phase, round_in_phase = phase_of_round(view.round_index)
        committee = set(self.committee_members(view, phase))

        messages: list[Message] = []
        for sender in sorted(corrupted_now):
            for recipient in honest:
                value = int(self.rng.integers(0, 2))
                decided = bool(self.rng.integers(0, 2))
                if round_in_phase == 1:
                    payload = ValueAnnouncement(
                        phase=phase, round_in_phase=1, value=value, decided=decided
                    )
                else:
                    share = None
                    if sender in committee:
                        share = 1 if self.rng.integers(0, 2) == 1 else -1
                    payload = CombinedAnnouncement(
                        phase=phase, value=value, decided=decided, share=share
                    )
                messages.append(Message(sender, recipient, payload))
        return AdversaryAction(new_corruptions=new_corruptions, messages=messages)
