"""Rushing adaptive coin-straddling attack — the strongest implemented adversary.

The paper's protocol survives an adaptive rushing adversary because of an
anti-concentration argument: with constant probability the sum ``S`` of the
honest committee members' coin shares has magnitude larger than the number of
shares the adversary can control, in which case *every* honest node computes
the same coin no matter what the corrupted committee members send (Theorem 3 /
Corollary 1 / Lemma 5).

This strategy plays the matching attack.  In the second round of every phase
it (being *rushing*) reads the committee's fresh coin shares before delivery,
computes the honest sum ``S`` and then corrupts just enough same-sign
committee members that the controlled shares can push some recipients'
totals to ``>= 0`` and others' to ``< 0`` — a *straddle* that makes the coin
non-common, keeps the honest nodes split, and forces another phase.  Each
straddle costs about ``|S|/2 ~ sqrt(s)/2`` fresh corruptions, so with budget
``t`` the adversary can spoil roughly ``2 t / sqrt(s)`` phases:

* for the paper's committee size (``s = n / c``) this is a vanishing fraction
  of the ``c ~ alpha * t^2 log n / n`` phases whenever
  ``t = o(n / log^2 n)`` — the protocol wins, reproducing Theorem 2's regime-1
  behaviour and yielding measured round counts that grow like
  ``~ t^2 sqrt(log n) / n``;
* for a Chor–Coan style committee of size ``Theta(log n)`` the same attack
  forces ``~ t / sqrt(log n)`` phases, i.e. (near-)linear growth in ``t``.

When it cannot afford a straddle (budget or committee exhausted) the adversary
concedes the phase: a common coin then leads to agreement within two further
phases, which is exactly the early-termination behaviour measured in E3.

The same class also attacks the standalone coin protocols (Algorithm 1 and 2);
it detects a bare coin-flip round by the presence of :class:`CoinShare`
payloads in the honest traffic and straddles the threshold in the same way,
which is how the empirical success probability of Theorem 3 (experiment E2) is
stress-tested.
"""

from __future__ import annotations

import math

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.base import AdversaryAction, AdversaryView
from repro.core.committee import phase_of_round
from repro.simulator.messages import CoinShare, Message


class CoinAttackAdversary(AdaptiveAdversary):
    """Greedy rushing straddle attack on the committee common coin.

    Each phase it spends whatever a straddle needs (the max-delay strategy).

    Args:
        t: Total corruption budget.
    """

    strategy_name = "coin-attack"

    def __init__(self, t: int, **kwargs):
        kwargs.setdefault("rushing", True)
        super().__init__(t, **kwargs)
        #: Number of phases successfully straddled (for traces / experiments).
        self.phases_spoiled = 0
        #: Corruptions spent specifically on committee members.
        self.coin_corruptions = 0

    # ------------------------------------------------------------------
    # Straddle arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def corruptions_needed(honest_sum: int, already_controlled: int) -> int:
        """Fresh same-sign corruptions needed to straddle the >= 0 threshold.

        With honest share sum ``S`` and ``m`` controlled committee shares the
        reachable per-recipient totals span ``[S' - m', S' + m']`` where
        corrupting ``k`` same-sign honest members gives ``S' = S - k*sign(S)``
        and ``m' = m + k``.  A straddle needs ``S' + m' >= 0`` and
        ``S' - m' <= -1``.
        """
        s, f = honest_sum, already_controlled
        if s >= 0:
            return max(0, math.ceil((s - f + 1) / 2))
        return max(0, math.ceil((-s - f) / 2))

    def _straddle(
        self,
        view: AdversaryView,
        phase: int,
        committee: list[int],
        shares: dict[int, int],
        *,
        use_bare_coin_shares: bool,
    ) -> AdversaryAction:
        """Corrupt and equivocate so the coin differs across honest recipients."""
        committee_set = set(committee)
        already_controlled = [i for i in committee_set if i in view.corrupted]
        honest_sum = sum(shares.values())
        needed = self.corruptions_needed(honest_sum, len(already_controlled))

        sign = 1 if honest_sum >= 0 else -1
        candidates = [node for node, share in shares.items() if share == sign]
        if needed > view.remaining_budget or needed > len(candidates):
            return AdversaryAction()  # cannot afford the straddle: concede

        new_corruptions = self.pick_targets(candidates, needed)
        controlled = sorted(set(already_controlled) | new_corruptions)
        recipients = [i for i in view.honest_ids() if i not in new_corruptions]
        coin_zero_group, coin_one_group = self.split_recipients(recipients)

        messages: list[Message] = []
        for sender in controlled:
            if use_bare_coin_shares:
                messages.extend(self.craft_coin_shares(sender, coin_one_group, share=1, phase=0))
                messages.extend(self.craft_coin_shares(sender, coin_zero_group, share=-1, phase=0))
            else:
                messages.extend(
                    self.craft_round2(sender, coin_one_group, phase, value=0, decided=False, share=1)
                )
                messages.extend(
                    self.craft_round2(sender, coin_zero_group, phase, value=0, decided=False, share=-1)
                )
        self.phases_spoiled += 1
        self.coin_corruptions += len(new_corruptions)
        return AdversaryAction(new_corruptions=new_corruptions, messages=messages)

    # ------------------------------------------------------------------
    def act(self, view: AdversaryView) -> AdversaryAction:
        # Standalone coin protocol (Algorithm 1 / 2): the honest traffic of the
        # round consists of bare CoinShare payloads.
        bare_shares = {
            sender: messages[0].payload.share
            for sender, messages in view.honest_outgoing.items()
            if messages and isinstance(messages[0].payload, CoinShare)
        }
        if bare_shares:
            designated = view.context.get("designated")
            committee = list(designated) if designated is not None else list(bare_shares)
            shares = {s: v for s, v in bare_shares.items() if s in set(committee)}
            return self._straddle(view, phase=0, committee=committee, shares=shares,
                                  use_bare_coin_shares=True)

        phase, round_in_phase = phase_of_round(view.round_index)
        if round_in_phase == 1:
            # Round 1: stay silent.  Sending values could only help some node
            # reach the n - t quorum, which is against the adversary's goal.
            return AdversaryAction()

        decided_counts = self.honest_decided_counts(view.honest_outgoing, phase)
        if max(decided_counts.values()) >= view.t + 1:
            # Every honest node will adopt the assigned value through case 1/2
            # regardless of anything the adversary sends; the game is over.
            return AdversaryAction()

        committee = self.committee_members(view, phase)
        if not committee:
            return AdversaryAction()
        shares = self.honest_coin_shares(view.honest_outgoing, committee, phase)
        return self._straddle(view, phase, committee, shares, use_bare_coin_shares=False)
