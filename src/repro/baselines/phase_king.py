"""Phase King — deterministic Byzantine agreement in Theta(t) rounds.

The phase-king protocol (Berman, Garay & Perry) is the textbook deterministic
protocol with constant-size messages: ``t + 1`` phases, each consisting of a
universal-exchange round and a round in which the phase's designated *king*
broadcasts a tie-breaking value.  A node keeps its own value when its majority
is "strong" (more than ``n/2 + t`` supporters) and otherwise adopts the
king's.  Because there are ``t + 1`` phases, at least one king is honest, and
from that phase onwards all honest nodes agree; persistence of agreement needs
``n > 4t``, which is the variant implemented here (the constant-message
``t < n/3`` variants exist but add nothing to the comparison the benchmarks
draw).

The paper cites the deterministic ``Theta(t)``-round protocols as the
pre-randomization state of the art; this baseline supplies that curve in the
round-complexity experiments (E1/E9) and demonstrates the ``t + 1``-round
lower bound for deterministic protocols being broken by the randomized ones.

Batched sweeps run on the ``phase-king`` kernel
(:mod:`repro.baselines.kernels.phase_king`); the protocol is deterministic,
so the kernel is bit-identical to this node under the modelled behaviours.
"""

from __future__ import annotations

import numpy as np

from repro.core.committee import phase_of_round
from repro.exceptions import ConfigurationError
from repro.simulator.messages import KingValue, Message, ValueAnnouncement, broadcast
from repro.simulator.node import ProtocolNode


class PhaseKingNode(ProtocolNode):
    """One participant of the phase-king protocol (``n > 4t``)."""

    protocol_name = "phase-king"

    def __init__(self, node_id: int, n: int, t: int, input_value: int, rng: np.random.Generator):
        super().__init__(node_id, n, t, input_value, rng)
        if 4 * t >= n:
            raise ConfigurationError(
                f"the implemented phase-king variant requires n > 4t; got n={n}, t={t}"
            )
        self._majority_value = input_value
        self._majority_count = 0

    @property
    def num_phases(self) -> int:
        """``t + 1`` phases guarantee at least one honest king."""
        return self.t + 1

    def king_of_phase(self, phase: int) -> int:
        """The designated king of (1-based) phase ``phase``."""
        return (phase - 1) % self.n

    # ------------------------------------------------------------------
    def generate(self, round_index: int) -> list[Message]:
        phase, round_in_phase = phase_of_round(round_index)
        if phase > self.num_phases:
            self.decide(self.value)
            return []
        if round_in_phase == 1:
            payload = ValueAnnouncement(
                phase=phase, round_in_phase=1, value=self.value, decided=False
            )
            return broadcast(self.node_id, self.n, payload)
        # Round 2: only the king speaks.
        if self.node_id != self.king_of_phase(phase):
            return []
        return broadcast(self.node_id, self.n, KingValue(phase=phase, value=self._majority_value))

    def deliver(self, round_index: int, inbox: list[Message]) -> None:
        phase, round_in_phase = phase_of_round(round_index)

        if round_in_phase == 1:
            seen: set[int] = set()
            counts = {0: 0, 1: 0}
            for message in inbox:
                payload = message.payload
                if (
                    isinstance(payload, ValueAnnouncement)
                    and payload.phase == phase
                    and payload.round_in_phase == 1
                    and payload.value in (0, 1)
                    and message.sender not in seen
                ):
                    seen.add(message.sender)
                    counts[payload.value] += 1
            self._majority_value = 1 if counts[1] >= counts[0] else 0
            self._majority_count = counts[self._majority_value]
            return

        # Round 2: adopt the king's value unless our majority is strong.
        king = self.king_of_phase(phase)
        king_value: int | None = None
        for message in inbox:
            payload = message.payload
            if (
                isinstance(payload, KingValue)
                and payload.phase == phase
                and message.sender == king
                and payload.value in (0, 1)
            ):
                king_value = payload.value
                break
        if self._majority_count > self.n // 2 + self.t:
            self.value = self._majority_value
        elif king_value is not None:
            self.value = king_value
        else:
            # A silent (Byzantine) king: fall back to our own majority.
            self.value = self._majority_value

        if phase >= self.num_phases:
            self.decide(self.value)
