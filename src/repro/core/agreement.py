"""Algorithm 3 — committee-based Byzantine agreement (the paper's main protocol).

Protocol sketch (Section 3.2 of the paper)
------------------------------------------
Nodes are partitioned by ID into ``c`` committees of size ``s = n/c`` where
``c = min{alpha * ceil(t^2/n) * log n, 3*alpha*t / log n}``.  The protocol runs
``c`` phases; each phase ``i`` consists of two broadcast rounds:

* **Round 1** — every node broadcasts ``(i, 1, val, decided)``.  A node that
  receives at least ``n - t`` identical values ``b`` sets ``val = b`` and
  ``decided = True``; otherwise ``decided = False``.
* **Round 2** — every node broadcasts ``(i, 2, val, decided)``; members of the
  phase's designated committee additionally piggyback a fresh coin share in
  ``{-1, +1}`` (this realises the Coin-Flip protocol, Algorithm 2, without
  spending an extra round — the paper's phase is exactly two rounds).  On
  reception a node applies three cases:

  1. at least ``n - t`` messages carry ``decided = True`` with an identical
     value ``b`` → adopt ``b``, set ``Finish``;
  2. else at least ``t + 1`` such messages → adopt ``b`` and ``decided = True``;
  3. else → adopt the committee's common coin (sign of the sum of the shares
     received from committee members) and set ``decided = False``.

A node whose ``Finish`` flag is set participates in one more *full* phase
(broadcasting its value with ``decided = True`` in both rounds, ignoring
incoming updates) and then terminates.  The paper's pseudocode has the
finishing node broadcast only in the first round of the following phase;
letting it broadcast through the whole next phase is the reading required for
the counting in the paper's Lemma 4 (all remaining honest nodes must still see
``n - t`` ``decided`` values in the phase after a node finishes) and costs no
extra rounds asymptotically.  This implementation choice is recorded in
DESIGN.md.

After the last phase a node that has not finished outputs its current ``val``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.committee import CommitteePartition, phase_of_round
from repro.core.common_coin import coin_from_shares
from repro.core.parameters import ProtocolParameters
from repro.exceptions import ConfigurationError
from repro.simulator.messages import (
    CoinShare,
    CombinedAnnouncement,
    Message,
    ValueAnnouncement,
    broadcast,
)
from repro.simulator.node import ProtocolNode
from repro.simulator.rng import fair_sign


class CommitteeAgreementNode(ProtocolNode):
    """A single participant of Algorithm 3.

    Args:
        node_id: This node's id (0-based).
        n: Network size.
        t: Declared Byzantine bound, ``t < n/3``.
        input_value: The node's binary input.
        rng: Private random stream.
        params: Pre-computed protocol parameters; derived from ``(n, t, alpha)``
            when omitted.
        alpha: Committee-count constant used when ``params`` is omitted.

    Attributes (beyond :class:`ProtocolNode`):
        finish_pending: True once case 1 has fired; the node flushes one more
            phase and then terminates.
        coin_adoptions: Number of phases in which this node fell through to
            case 3 and adopted the committee coin.
        decision_phase: Phase at which the node terminated (or the last phase
            when it decided by exhaustion).
    """

    protocol_name = "committee-ba"

    def __init__(
        self,
        node_id: int,
        n: int,
        t: int,
        input_value: int,
        rng: np.random.Generator,
        *,
        params: ProtocolParameters | None = None,
        alpha: float = 4.0,
    ):
        super().__init__(node_id, n, t, input_value, rng)
        self.params = params if params is not None else ProtocolParameters.derive(n, t, alpha)
        if self.params.n != n or self.params.t != t:
            raise ConfigurationError(
                "params were derived for a different (n, t) than this node's configuration"
            )
        self.partition = CommitteePartition(n, self.params.committee_size)
        self.finish_pending = False
        self._flush_phase: int | None = None
        self.coin_adoptions = 0
        self.decision_phase: int | None = None
        self._my_share: int | None = None

    # ------------------------------------------------------------------
    # Phase bookkeeping
    # ------------------------------------------------------------------
    @property
    def num_phases(self) -> int:
        """Number of phases before the protocol decides by exhaustion.

        ``None``-like unbounded behaviour is provided by the Las Vegas
        subclass; here it is the ``c`` of the parameter formula.
        """
        return self.params.num_phases

    def _exhausted(self, phase: int) -> bool:
        """True when ``phase`` is beyond the protocol's last phase."""
        return phase > self.num_phases

    # ------------------------------------------------------------------
    # Message generation
    # ------------------------------------------------------------------
    def generate(self, round_index: int) -> list[Message]:
        phase, round_in_phase = phase_of_round(round_index)

        # Safety valve: a node that somehow runs past its flush phase decides
        # immediately (cannot be reached through the scheduler under normal
        # configuration, but keeps the node total regardless of max_rounds).
        if self._flush_phase is not None and phase > self._flush_phase:
            self.decide(self.value)
            return []
        if self._flush_phase is None and self._exhausted(phase):
            self.decide(self.value)
            return []

        if round_in_phase == 1:
            payload = ValueAnnouncement(
                phase=phase, round_in_phase=1, value=self.value, decided=self.decided
            )
            return broadcast(self.node_id, self.n, payload)

        # Round 2: piggyback a coin share when this node belongs to the
        # phase's designated committee.
        share: int | None = None
        if self.node_id in self.partition.members_for_phase(phase):
            share = fair_sign(self.rng)
        self._my_share = share
        payload = CombinedAnnouncement(
            phase=phase, value=self.value, decided=self.decided, share=share
        )
        return broadcast(self.node_id, self.n, payload)

    # ------------------------------------------------------------------
    # Message processing
    # ------------------------------------------------------------------
    @staticmethod
    def _round1_counts(inbox: Sequence[Message], phase: int) -> dict[int, int]:
        """Per-value counts of round-1 announcements, one per sender."""
        seen: set[int] = set()
        counts = {0: 0, 1: 0}
        for message in inbox:
            payload = message.payload
            if not isinstance(payload, ValueAnnouncement):
                continue
            if payload.phase != phase or payload.round_in_phase != 1:
                continue
            if payload.value not in (0, 1):
                continue
            if message.sender in seen:
                continue
            seen.add(message.sender)
            counts[payload.value] += 1
        return counts

    @staticmethod
    def _round2_records(
        inbox: Sequence[Message], phase: int
    ) -> tuple[dict[int, tuple[int, bool]], dict[int, int]]:
        """Extract round-2 (value, decided) records and coin shares per sender.

        Byzantine senders may send several contradictory messages; only the
        first well-formed record/share per sender is used.  Both
        :class:`CombinedAnnouncement` and a bare ``ValueAnnouncement`` with
        ``round_in_phase == 2`` are accepted as value records, and a bare
        :class:`CoinShare` is accepted as a share, which keeps adversary
        strategies free to craft messages with either payload type.
        """
        records: dict[int, tuple[int, bool]] = {}
        shares: dict[int, int] = {}
        for message in inbox:
            payload = message.payload
            if isinstance(payload, CombinedAnnouncement) and payload.phase == phase:
                if payload.value in (0, 1) and message.sender not in records:
                    records[message.sender] = (payload.value, bool(payload.decided))
                if payload.share in (-1, 1) and message.sender not in shares:
                    shares[message.sender] = int(payload.share)  # type: ignore[arg-type]
            elif (
                isinstance(payload, ValueAnnouncement)
                and payload.phase == phase
                and payload.round_in_phase == 2
            ):
                if payload.value in (0, 1) and message.sender not in records:
                    records[message.sender] = (payload.value, bool(payload.decided))
            elif isinstance(payload, CoinShare) and payload.phase == phase:
                if payload.share in (-1, 1) and message.sender not in shares:
                    shares[message.sender] = int(payload.share)
        return records, shares

    @staticmethod
    def _decided_counts(records: dict[int, tuple[int, bool]]) -> dict[int, int]:
        counts = {0: 0, 1: 0}
        for value, decided in records.values():
            if decided:
                counts[value] += 1
        return counts

    @staticmethod
    def _best_value_reaching(counts: dict[int, int], threshold: int) -> int | None:
        """Value with the highest count among those reaching ``threshold``."""
        candidates = [value for value in (0, 1) if counts[value] >= threshold]
        if not candidates:
            return None
        return max(candidates, key=lambda value: (counts[value], value))

    def deliver(self, round_index: int, inbox: list[Message]) -> None:
        phase, round_in_phase = phase_of_round(round_index)

        # Flush phase of a finishing node: broadcast-only participation, then
        # terminate at the end of the phase.
        if self.finish_pending:
            if self._flush_phase is not None and phase >= self._flush_phase and round_in_phase == 2:
                self.decision_phase = phase
                self.decide(self.value)
            return

        if round_in_phase == 1:
            counts = self._round1_counts(inbox, phase)
            winner = self._best_value_reaching(counts, self.n - self.t)
            if winner is not None:
                self.value = winner
                self.decided = True
            else:
                self.decided = False
            return

        # Round 2
        records, shares = self._round2_records(inbox, phase)
        decided_counts = self._decided_counts(records)

        finish_value = self._best_value_reaching(decided_counts, self.n - self.t)
        adopt_value = self._best_value_reaching(decided_counts, self.t + 1)

        if finish_value is not None:
            # Case 1: overwhelming support — finish after one flush phase.
            self.value = finish_value
            self.decided = True
            self.finish_pending = True
            self._flush_phase = phase + 1
        elif adopt_value is not None:
            # Case 2: adopt the phase's assigned value.
            self.value = adopt_value
            self.decided = True
        else:
            # Case 3: fall back to the phase's coin (the designated committee's
            # common coin here; baselines override `_phase_coin` to use a
            # dealer coin, a private coin, ...).
            self.value = self._phase_coin(phase, shares)
            self.decided = False
            self.coin_adoptions += 1

        if not self.finish_pending and self._exhausted(phase + 1):
            # Last phase completed without finishing: output the current value.
            self.decision_phase = phase
            self.decide(self.value)

    # ------------------------------------------------------------------
    # Coin hook (overridden by baseline protocols)
    # ------------------------------------------------------------------
    def _phase_coin(self, phase: int, shares: dict[int, int]) -> int:
        """Case-3 fallback coin for ``phase``.

        Algorithm 3 uses the designated committee's common coin (Algorithm 2,
        majority of the committee members' shares).  Baseline protocols reuse
        the whole two-round phase skeleton and swap only this method: Rabin's
        protocol returns the trusted dealer's coin, Ben-Or's returns a private
        local coin.
        """
        committee = self.partition.members_for_phase(phase)
        return coin_from_shares(shares, designated=committee)
