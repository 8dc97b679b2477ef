"""Message and payload types exchanged by protocol nodes.

The simulator is payload-agnostic: a :class:`Message` carries an opaque
:class:`Payload` from a sender to a single recipient.  Protocols define their
own payload dataclasses; the ones used by every agreement protocol in this
repository (value announcements, coin shares and decision notices) are defined
here so that the adversary strategies and the CONGEST accounting can reason
about them uniformly.

Bit-size accounting
-------------------
The paper assumes the CONGEST model: ``O(log n)`` bits per edge per round.
Every payload therefore reports its size in bits through
:meth:`Payload.bit_size`.  Sizes follow the usual CONGEST conventions:

* a phase or round counter costs ``ceil(log2(max_value + 1))`` bits, which we
  conservatively upper bound by ``BITS_PER_COUNTER`` (32);
* a binary protocol value costs 1 bit;
* a boolean flag costs 1 bit;
* a coin share in ``{-1, +1}`` costs 1 bit.

The defaults keep every message used by the protocols in this repository at
``O(log n)`` bits, and :class:`repro.simulator.congest.CongestModel` verifies
the budget at delivery time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

#: Conservative upper bound, in bits, for an integer counter carried inside a
#: message (phase numbers, node identifiers).  32 bits comfortably covers any
#: simulation size this library targets while remaining ``O(log n)``.
BITS_PER_COUNTER = 32

#: Number of bits charged for a single boolean flag or binary value.
BITS_PER_FLAG = 1


@dataclass(frozen=True)
class Payload:
    """Base class for all message payloads.

    Subclasses are small frozen dataclasses.  The default
    :meth:`bit_size` implementation charges :data:`BITS_PER_COUNTER` bits per
    integer field and :data:`BITS_PER_FLAG` per boolean field, which matches
    the CONGEST cost model used in the paper.
    """

    def bit_size(self) -> int:
        """Return the size of this payload in bits under the CONGEST model."""
        total = 0
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                total += BITS_PER_FLAG
            elif isinstance(value, int):
                total += BITS_PER_COUNTER
            elif value is None:
                total += BITS_PER_FLAG
            else:  # pragma: no cover - defensive, no other field types are used
                total += BITS_PER_COUNTER
        return max(total, BITS_PER_FLAG)

    def kind(self) -> str:
        """Return a short name identifying the payload type."""
        return type(self).__name__


@dataclass(frozen=True)
class ValueAnnouncement(Payload):
    """Round-1/round-2 broadcast of Algorithm 3 and of the baselines.

    Attributes:
        phase: Phase index ``i`` (1-based, as in the paper's pseudocode).
        round_in_phase: 1 for the first broadcast of the phase, 2 for the
            second.
        value: The sender's current estimate ``val`` (0 or 1).
        decided: The sender's ``decided`` flag.
    """

    phase: int
    round_in_phase: int
    value: int
    decided: bool

    def bit_size(self) -> int:
        # phase counter + round bit + value bit + decided bit
        return BITS_PER_COUNTER + 3 * BITS_PER_FLAG


@dataclass(frozen=True)
class CoinShare(Payload):
    """A single coin-flip contribution (Algorithm 1 / Algorithm 2).

    Attributes:
        phase: Phase index during which the share was flipped (0 when the coin
            protocol is run standalone).
        share: The random value in ``{-1, +1}`` contributed by the sender.
    """

    phase: int
    share: int

    def bit_size(self) -> int:
        return BITS_PER_COUNTER + BITS_PER_FLAG


@dataclass(frozen=True)
class CombinedAnnouncement(Payload):
    """Round-2 broadcast with a piggybacked coin share.

    Algorithm 3 executes the designated-committee coin flip (Algorithm 2)
    inside round 2 of each phase.  To keep each phase at exactly two
    communication rounds — as the paper's round-complexity accounting assumes —
    committee members piggyback their coin share on the round-2 value
    broadcast.  Nodes outside the current committee send ``share=None``.

    Attributes:
        phase: Phase index ``i``.
        value: Sender's current ``val`` estimate.
        decided: Sender's ``decided`` flag.
        share: ``+1``/``-1`` coin share when the sender belongs to the phase's
            designated committee, otherwise ``None``.
    """

    phase: int
    value: int
    decided: bool
    share: int | None = None

    def bit_size(self) -> int:
        return BITS_PER_COUNTER + 3 * BITS_PER_FLAG


@dataclass(frozen=True)
class DecisionNotice(Payload):
    """Final decision broadcast used by some baselines for early stopping.

    Attributes:
        value: The decided output bit.
    """

    value: int

    def bit_size(self) -> int:
        return BITS_PER_FLAG


@dataclass(frozen=True)
class KingValue(Payload):
    """Phase-king broadcast: the king's tie-breaking value.

    Attributes:
        phase: Phase index.
        value: The king's proposed value.
    """

    phase: int
    value: int

    def bit_size(self) -> int:
        return BITS_PER_COUNTER + BITS_PER_FLAG


@dataclass(frozen=True)
class SampleRequest(Payload):
    """Request used by the sampling-majority baseline to pull a neighbour's value."""

    phase: int

    def bit_size(self) -> int:
        return BITS_PER_COUNTER


@dataclass(frozen=True)
class SampleReply(Payload):
    """Reply to a :class:`SampleRequest` carrying the responder's current value."""

    phase: int
    value: int

    def bit_size(self) -> int:
        return BITS_PER_COUNTER + BITS_PER_FLAG


#: CONGEST payload sizes (bits) by payload kind, derived from the live
#: ``bit_size()`` definitions above so the batched kernels' bit accounting can
#: never drift from the object simulator's.
PAYLOAD_BITS: dict[str, int] = {
    payload.kind(): payload.bit_size()
    for payload in (
        ValueAnnouncement(phase=1, round_in_phase=1, value=0, decided=False),
        CombinedAnnouncement(phase=1, value=0, decided=False, share=None),
        CoinShare(phase=1, share=1),
        KingValue(phase=1, value=0),
        SampleRequest(phase=1),
        SampleReply(phase=1, value=0),
    )
}


@dataclass(frozen=True)
class Message:
    """A single point-to-point message.

    The network is complete and authenticated: the recipient always learns the
    true sender identity (Byzantine nodes cannot spoof sender ids), which the
    simulator enforces by constructing messages on behalf of senders.

    Attributes:
        sender: Node id of the sender.
        recipient: Node id of the recipient.
        payload: The protocol payload.
    """

    sender: int
    recipient: int
    payload: Payload

    def bit_size(self) -> int:
        """Total CONGEST cost of the message (payload only).

        Sender and recipient identities are part of the channel (links are
        authenticated), so — as is standard — they are not charged against the
        per-edge bandwidth budget.
        """
        return self.payload.bit_size()


def broadcast(sender: int, n: int, payload: Payload, *, include_self: bool = True) -> list[Message]:
    """Build the message list for a broadcast of ``payload`` to all ``n`` nodes.

    Args:
        sender: Id of the broadcasting node.
        n: Total number of nodes in the network (ids ``0 .. n-1``).
        payload: Payload to replicate to every recipient.
        include_self: Whether the sender also delivers the payload to itself.
            The paper's protocols count a node's own value among the values it
            "receives", so the default is ``True``.

    Returns:
        One :class:`Message` per recipient.
    """
    recipients = range(n) if include_self else (r for r in range(n) if r != sender)
    return [Message(sender, recipient, payload) for recipient in recipients]


def group_by_recipient(messages: list[Message]) -> dict[int, list[Message]]:
    """Group a flat message list into per-recipient inboxes."""
    inboxes: dict[int, list[Message]] = {}
    for message in messages:
        inboxes.setdefault(message.recipient, []).append(message)
    return inboxes
