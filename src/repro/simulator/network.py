"""Complete synchronous network with authenticated links.

The paper assumes a complete network of ``n`` nodes where every pair of nodes
shares an authenticated, reliable link: a message sent in round ``r`` is
delivered in round ``r`` and the recipient knows the true identity of the
sender.  :class:`CompleteNetwork` implements exactly this delivery semantics,
performs CONGEST bandwidth accounting, and enforces that no message claims a
spoofed sender (the adversary may only send messages *from* nodes it has
corrupted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError, ProtocolViolationError
from repro.simulator.congest import CongestModel
from repro.simulator.messages import Message, group_by_recipient


@dataclass
class DeliveryReport:
    """Summary of a single round of message delivery."""

    round_index: int
    message_count: int
    bit_count: int
    dropped_count: int


@dataclass
class CompleteNetwork:
    """Synchronous, reliable, authenticated complete network on ``n`` nodes.

    Args:
        n: Number of nodes.
        congest: Bandwidth accounting model.  When ``None`` a non-strict
            :class:`CongestModel` is created so that statistics are always
            available.

    The network also supports *message drops*, used exclusively to model crash
    faults: a crashed node may have an arbitrary subset of its final round of
    messages dropped (this is how the Bar-Joseph–Ben-Or style crash adversary
    is expressed).  Honest, non-crashed traffic is never dropped.
    """

    n: int
    congest: CongestModel | None = None
    deliveries: list[DeliveryReport] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"network size must be positive, got {self.n}")
        if self.congest is None:
            self.congest = CongestModel(n=self.n, strict=False)

    def validate(self, messages: list[Message], allowed_senders: set[int] | None = None) -> None:
        """Check structural validity of a batch of outgoing messages.

        Args:
            messages: Messages about to be sent this round.
            allowed_senders: When given, every message's sender must belong to
                this set.  The scheduler uses it to prevent the adversary from
                spoofing honest identities (links are authenticated).

        Raises:
            ProtocolViolationError: On out-of-range ids or spoofed senders.
        """
        for message in messages:
            if not 0 <= message.sender < self.n:
                raise ProtocolViolationError(f"sender id {message.sender} out of range")
            if not 0 <= message.recipient < self.n:
                raise ProtocolViolationError(f"recipient id {message.recipient} out of range")
            if allowed_senders is not None and message.sender not in allowed_senders:
                raise ProtocolViolationError(
                    f"message claims sender {message.sender} which is not permitted "
                    f"(authenticated links prevent spoofing)"
                )

    def deliver(
        self,
        round_index: int,
        messages: list[Message],
        *,
        drops: set[tuple[int, int]] | None = None,
    ) -> dict[int, list[Message]]:
        """Deliver one round of messages.

        Args:
            round_index: Global round number.
            messages: All messages sent this round (honest and Byzantine).
            drops: Optional set of ``(sender, recipient)`` pairs to drop; used
                only for crash-fault modelling.

        Returns:
            Mapping from recipient id to the list of the sent messages it
            receives, in sender order (ties broken by submission order).
        """
        congest = self.congest
        assert congest is not None  # established in __post_init__
        congest.start_round(round_index)
        delivered: list[Message] = []
        dropped = bits = 0
        for message in messages:
            if drops and (message.sender, message.recipient) in drops:
                dropped += 1
                continue
            bits += congest.charge(message)
            delivered.append(message)
        # Deterministic delivery order: sort by sender so that executions do
        # not depend on dict/list insertion order of the caller.
        delivered.sort(key=lambda m: (m.recipient, m.sender))
        self.deliveries.append(
            DeliveryReport(
                round_index=round_index,
                message_count=len(delivered),
                bit_count=bits,
                dropped_count=dropped,
            )
        )
        return group_by_recipient(delivered)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        """Total number of messages delivered over the whole execution."""
        return sum(report.message_count for report in self.deliveries)

    @property
    def total_bits(self) -> int:
        """Total number of payload bits delivered over the whole execution."""
        return sum(report.bit_count for report in self.deliveries)

    @property
    def rounds_used(self) -> int:
        """Number of delivery rounds performed so far."""
        return len(self.deliveries)

    def summary(self) -> dict[str, int]:
        """Aggregate network statistics for inclusion in run metrics."""
        assert self.congest is not None
        return {
            "rounds": self.rounds_used,
            "messages": self.total_messages,
            "bits": self.total_bits,
            "congest_violations": self.congest.violation_count,
        }
