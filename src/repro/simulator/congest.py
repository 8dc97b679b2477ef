"""CONGEST bandwidth accounting.

The paper assumes the CONGEST model: every node may send only ``O(log n)``
bits per edge per round.  The :class:`CongestModel` tracks, for every round,
the number of bits each ordered pair ``(sender, recipient)`` has used, and can
either raise :class:`repro.exceptions.CongestViolationError` or merely record
violations, depending on configuration.

The budget is expressed as ``bits_per_edge = congest_factor * ceil(log2 n)``
with a configurable constant factor (default 8), matching the asymptotic
``O(log n)`` allowance while leaving room for the constant-size headers the
protocols use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import CongestViolationError
from repro.simulator.messages import Message


@dataclass
class EdgeUsage:
    """Bits sent over a single directed edge during one round."""

    sender: int
    recipient: int
    bits: int


@dataclass
class CongestModel:
    """Per-edge, per-round bandwidth accounting for the CONGEST model.

    Args:
        n: Number of nodes in the network.
        congest_factor: Multiplier applied to ``ceil(log2 n)`` to obtain the
            per-edge bit budget.  The default of 8 corresponds to a small
            constant number of ``O(log n)``-bit words per round.
        strict: When True, exceeding the budget raises
            :class:`CongestViolationError`; when False violations are recorded
            in :attr:`violations` but the simulation continues.  Strict mode is
            used by the test-suite to certify that every protocol in the
            repository respects the model.
    """

    n: int
    congest_factor: int = 8
    strict: bool = True
    violations: list[EdgeUsage] = field(default_factory=list)
    total_bits: int = 0
    total_messages: int = 0
    _round_usage: dict[tuple[int, int], int] = field(default_factory=dict)
    _current_round: int = -1
    #: The per-edge, per-round bit budget: ``congest_factor`` words of
    #: ``O(log n)`` bits, computed once.
    bits_per_edge: int = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.congest_factor < 1:
            raise ValueError(f"congest_factor must be positive, got {self.congest_factor}")
        self.bits_per_edge = self.congest_factor * self.word_size

    @property
    def word_size(self) -> int:
        """Size in bits of one CONGEST word: ``max(32, ceil(log2 n))``.

        Message payloads charge 32 bits per integer counter (see
        :mod:`repro.simulator.messages`), so the word size is floored at 32 to
        keep the budget meaningful for small simulated networks while still
        scaling as ``O(log n)`` asymptotically.
        """
        return max(32, math.ceil(math.log2(max(2, self.n))))

    def start_round(self, round_index: int) -> None:
        """Reset per-edge counters for a new round."""
        self._round_usage = {}
        self._current_round = round_index

    def charge(self, message: Message) -> int:
        """Charge one message against its edge budget.

        Returns:
            The message's size in bits, measured once here.

        Raises:
            CongestViolationError: In strict mode, when the edge budget for
                the current round is exceeded.
        """
        edge = (message.sender, message.recipient)
        bits = message.bit_size()
        used = self._round_usage.get(edge, 0) + bits
        self._round_usage[edge] = used
        self.total_bits += bits
        self.total_messages += 1
        if used > self.bits_per_edge:
            usage = EdgeUsage(message.sender, message.recipient, used)
            self.violations.append(usage)
            if self.strict:
                raise CongestViolationError(
                    f"edge ({message.sender} -> {message.recipient}) used {used} bits in round "
                    f"{self._current_round}, budget is {self.bits_per_edge} bits"
                )
        return bits

    @property
    def violation_count(self) -> int:
        """Number of edge-budget violations observed so far."""
        return len(self.violations)

    def summary(self) -> dict[str, int]:
        """Aggregate counters, suitable for inclusion in run metrics."""
        return {
            "total_bits": self.total_bits,
            "total_messages": self.total_messages,
            "bits_per_edge_budget": self.bits_per_edge,
            "violations": self.violation_count,
        }
