"""Unit tests for message payloads, broadcasting and bit accounting."""

from __future__ import annotations


from repro.simulator.messages import (
    BITS_PER_COUNTER,
    BITS_PER_FLAG,
    CoinShare,
    CombinedAnnouncement,
    DecisionNotice,
    KingValue,
    Message,
    SampleReply,
    SampleRequest,
    ValueAnnouncement,
    broadcast,
    group_by_recipient,
)


class TestPayloadSizes:
    def test_value_announcement_is_logarithmic_size(self):
        payload = ValueAnnouncement(phase=3, round_in_phase=1, value=1, decided=False)
        assert payload.bit_size() == BITS_PER_COUNTER + 3 * BITS_PER_FLAG

    def test_coin_share_size(self):
        assert CoinShare(phase=1, share=1).bit_size() == BITS_PER_COUNTER + BITS_PER_FLAG

    def test_combined_announcement_size_independent_of_share_presence(self):
        with_share = CombinedAnnouncement(phase=2, value=0, decided=True, share=1)
        without_share = CombinedAnnouncement(phase=2, value=0, decided=True, share=None)
        assert with_share.bit_size() == without_share.bit_size()

    def test_decision_notice_is_one_bit(self):
        assert DecisionNotice(value=1).bit_size() == BITS_PER_FLAG

    def test_king_value_size(self):
        assert KingValue(phase=5, value=0).bit_size() == BITS_PER_COUNTER + BITS_PER_FLAG

    def test_sampling_payload_sizes(self):
        assert SampleRequest(phase=2).bit_size() == BITS_PER_COUNTER
        assert SampleReply(phase=2, value=1).bit_size() == BITS_PER_COUNTER + BITS_PER_FLAG

    def test_payload_kind_names(self):
        assert ValueAnnouncement(1, 1, 0, False).kind() == "ValueAnnouncement"
        assert CoinShare(0, 1).kind() == "CoinShare"


class TestMessage:
    def test_message_bit_size_equals_payload(self):
        payload = ValueAnnouncement(phase=1, round_in_phase=1, value=0, decided=False)
        message = Message(sender=0, recipient=1, payload=payload)
        assert message.bit_size() == payload.bit_size()


class TestBroadcast:
    def test_broadcast_reaches_every_node_including_self(self):
        messages = broadcast(2, 5, DecisionNotice(value=1))
        assert len(messages) == 5
        assert {m.recipient for m in messages} == set(range(5))
        assert all(m.sender == 2 for m in messages)

    def test_broadcast_can_exclude_self(self):
        messages = broadcast(2, 5, DecisionNotice(value=1), include_self=False)
        assert len(messages) == 4
        assert 2 not in {m.recipient for m in messages}

    def test_group_by_recipient(self):
        messages = broadcast(0, 3, CoinShare(0, 1)) + broadcast(1, 3, CoinShare(0, -1))
        inboxes = group_by_recipient(messages)
        assert set(inboxes) == {0, 1, 2}
        assert all(len(inbox) == 2 for inbox in inboxes.values())
