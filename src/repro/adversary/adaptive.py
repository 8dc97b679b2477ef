"""Shared machinery for adaptive adversary strategies.

:class:`AdaptiveAdversary` extends the base :class:`Adversary` with the
helpers every concrete attack needs when facing the two-round-phase protocols
in this repository (Algorithm 3, its Las Vegas variant and the Chor–Coan
baseline):

* reading the committee partition and the phase's designated committee out of
  the protocol context supplied by the runner;
* extracting, from the rushing view, the honest senders' round-2 value /
  ``decided`` / coin-share fields;
* crafting per-recipient equivocating messages.

Concrete strategies only implement :meth:`Adversary.act`; they map the global
round index to ``(phase, round_in_phase)`` with
:func:`repro.core.committee.phase_of_round`, the protocols' own mapping.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.adversary.base import Adversary, AdversaryView
from repro.core.committee import CommitteePartition
from repro.simulator.messages import (
    CoinShare,
    CombinedAnnouncement,
    Message,
    ValueAnnouncement,
)


class AdaptiveAdversary(Adversary):
    """Base class for adaptive strategies against two-round-phase protocols."""

    strategy_name = "adaptive-base"

    # ------------------------------------------------------------------
    # Context helpers
    # ------------------------------------------------------------------
    def partition(self, view: AdversaryView) -> CommitteePartition | None:
        """The committee partition, when the protocol uses one."""
        partition = view.context.get("partition")
        if isinstance(partition, CommitteePartition):
            return partition
        return None

    def committee_members(self, view: AdversaryView, phase: int) -> list[int]:
        """Node ids of the phase's designated committee (empty when unknown)."""
        partition = self.partition(view)
        if partition is None:
            designated = view.context.get("designated")
            return list(designated) if designated is not None else []
        return list(partition.members_for_phase(phase))

    # ------------------------------------------------------------------
    # Observation helpers (rushing: read the current round's honest output)
    # ------------------------------------------------------------------
    @staticmethod
    def honest_coin_shares(
        honest_outgoing: Mapping[int, list[Message]], committee: Iterable[int], phase: int = 0
    ) -> dict[int, int]:
        """Shares flipped this round by honest committee members.

        Works both for the standalone coin protocols (bare :class:`CoinShare`
        payloads, ``phase=0``) and for Algorithm 3's piggybacked shares.
        """
        committee_set = set(committee)
        shares: dict[int, int] = {}
        for sender, messages in honest_outgoing.items():
            if sender not in committee_set:
                continue
            for message in messages:
                payload = message.payload
                if isinstance(payload, CoinShare) and payload.share in (-1, 1):
                    shares[sender] = payload.share
                    break
                if isinstance(payload, CombinedAnnouncement) and payload.share in (-1, 1):
                    shares[sender] = int(payload.share)  # type: ignore[arg-type]
                    break
        return shares

    @staticmethod
    def honest_decided_counts(
        honest_outgoing: Mapping[int, list[Message]], phase: int
    ) -> dict[int, int]:
        """How many honest round-2 senders announce ``decided=True`` per value."""
        counts = {0: 0, 1: 0}
        for messages in honest_outgoing.values():
            for message in messages:
                payload = message.payload
                if isinstance(payload, CombinedAnnouncement) and payload.phase == phase:
                    if payload.decided and payload.value in (0, 1):
                        counts[payload.value] += 1
                    break
                if (
                    isinstance(payload, ValueAnnouncement)
                    and payload.phase == phase
                    and payload.round_in_phase == 2
                ):
                    if payload.decided and payload.value in (0, 1):
                        counts[payload.value] += 1
                    break
        return counts

    @staticmethod
    def honest_value_counts(
        honest_outgoing: Mapping[int, list[Message]], phase: int, round_in_phase: int
    ) -> dict[int, int]:
        """How many honest senders announce each value in the given round."""
        counts = {0: 0, 1: 0}
        for messages in honest_outgoing.values():
            for message in messages:
                payload = message.payload
                if (
                    isinstance(payload, ValueAnnouncement)
                    and payload.phase == phase
                    and payload.round_in_phase == round_in_phase
                    and payload.value in (0, 1)
                ):
                    counts[payload.value] += 1
                    break
                if (
                    round_in_phase == 2
                    and isinstance(payload, CombinedAnnouncement)
                    and payload.phase == phase
                    and payload.value in (0, 1)
                ):
                    counts[payload.value] += 1
                    break
        return counts

    # ------------------------------------------------------------------
    # Message crafting helpers
    # ------------------------------------------------------------------
    @staticmethod
    def craft_round1(
        sender: int, recipients: Sequence[int], phase: int, value: int, decided: bool = False
    ) -> list[Message]:
        """Round-1 value announcements from ``sender`` to ``recipients``."""
        payload = ValueAnnouncement(phase=phase, round_in_phase=1, value=value, decided=decided)
        return [Message(sender, recipient, payload) for recipient in recipients]

    @staticmethod
    def craft_round2(
        sender: int,
        recipients: Sequence[int],
        phase: int,
        value: int,
        decided: bool,
        share: int | None = None,
    ) -> list[Message]:
        """Round-2 announcements (optionally carrying a coin share)."""
        payload = CombinedAnnouncement(phase=phase, value=value, decided=decided, share=share)
        return [Message(sender, recipient, payload) for recipient in recipients]

    @staticmethod
    def craft_coin_shares(
        sender: int, recipients: Sequence[int], share: int, phase: int = 0
    ) -> list[Message]:
        """Bare coin-share messages (used against the standalone coin protocols)."""
        payload = CoinShare(phase=phase, share=share)
        return [Message(sender, recipient, payload) for recipient in recipients]

    # ------------------------------------------------------------------
    # Target selection helpers
    # ------------------------------------------------------------------
    @staticmethod
    def split_recipients(recipients: Sequence[int]) -> tuple[list[int], list[int]]:
        """Split recipients into two (nearly) equal halves, deterministically."""
        ordered = sorted(recipients)
        half = len(ordered) // 2
        return ordered[:half], ordered[half:]

    def pick_targets(self, candidates: Sequence[int], count: int) -> set[int]:
        """Choose up to ``count`` corruption targets from ``candidates``.

        Deterministic (lowest ids first) so that executions are reproducible;
        the choice of *which* same-share committee member to corrupt does not
        affect any strategy's effectiveness.
        """
        return set(sorted(candidates)[: max(0, count)])
