"""Non-rushing committee-targeting adversary.

The historical Chor–Coan setting assumes a *non-rushing* adaptive adversary:
it may corrupt nodes adaptively, but in round ``r`` it only knows the honest
random choices made up to round ``r - 1``.  The best it can do against a
committee coin is therefore to corrupt members of the *upcoming* committee
before their flip and hope that the honest sum lands within the window its
controlled shares can bridge.

This strategy does exactly that.  At the start of each phase's second round it
spends up to ``ceil(sqrt(s))`` corruptions on the phase's committee, then has
all controlled members split their shares across the honest recipients
(``+1`` to one half, ``-1`` to the other).  A recipient's total is
``S +- f_i`` where ``S`` is the (unseen) honest sum and ``f_i`` the controlled
count; the straddle succeeds exactly when ``|S| < f_i``, which for
``f_i ~ sqrt(s)`` happens with constant probability — so the attack delays the
protocol by a constant factor less than the rushing attack, which is the
qualitative difference between the two models that experiment E10/E1 report.
"""

from __future__ import annotations

import math

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.base import AdversaryAction, AdversaryView
from repro.core.committee import phase_of_round
from repro.simulator.messages import Message


class CommitteeTargetingAdversary(AdaptiveAdversary):
    """Pre-corrupt each phase's committee (non-rushing) and split its shares.

    Args:
        t: Total corruption budget.

    Attributes:
        spend_per_phase: Fresh corruptions per committee,
            ``ceil(sqrt(committee size))``, resolved at bind time.
    """

    strategy_name = "committee-targeting"

    def __init__(self, t: int, **kwargs):
        kwargs.setdefault("rushing", False)
        super().__init__(t, **kwargs)

    def bind(self, n: int, context) -> None:
        super().bind(n, context)
        partition = context.get("partition")
        size = getattr(partition, "committee_size", None)
        self.spend_per_phase = max(1, math.ceil(math.sqrt(size))) if size else 1

    def act(self, view: AdversaryView) -> AdversaryAction:
        phase, round_in_phase = phase_of_round(view.round_index)
        if round_in_phase == 1:
            return AdversaryAction()

        committee = self.committee_members(view, phase)
        if not committee:
            return AdversaryAction()
        committee_set = set(committee)
        already_controlled = sorted(committee_set & view.corrupted)
        candidates = sorted(committee_set - view.corrupted)
        spend = min(self.spend_per_phase, view.remaining_budget, len(candidates))
        new_corruptions = self.pick_targets(candidates, spend)
        controlled = sorted(set(already_controlled) | new_corruptions)
        if not controlled:
            return AdversaryAction()

        recipients = [i for i in view.honest_ids() if i not in new_corruptions]
        minus_group, plus_group = self.split_recipients(recipients)
        messages: list[Message] = []
        for sender in controlled:
            messages.extend(
                self.craft_round2(sender, plus_group, phase, value=0, decided=False, share=1)
            )
            messages.extend(
                self.craft_round2(sender, minus_group, phase, value=0, decided=False, share=-1)
            )
        return AdversaryAction(new_corruptions=new_corruptions, messages=messages)
