"""Unit tests for the complete synchronous network."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, ProtocolViolationError
from repro.simulator.congest import CongestModel
from repro.simulator.messages import CoinShare, Message, broadcast
from repro.simulator.network import CompleteNetwork


class TestValidation:
    def test_rejects_out_of_range_ids(self):
        network = CompleteNetwork(n=4)
        with pytest.raises(ProtocolViolationError):
            network.validate([Message(9, 0, CoinShare(0, 1))])
        with pytest.raises(ProtocolViolationError):
            network.validate([Message(0, 9, CoinShare(0, 1))])

    def test_rejects_spoofed_senders(self):
        network = CompleteNetwork(n=4)
        message = Message(2, 0, CoinShare(0, 1))
        with pytest.raises(ProtocolViolationError):
            network.validate([message], allowed_senders={0, 1})
        network.validate([message], allowed_senders={2})  # does not raise

    def test_rejects_empty_network(self):
        with pytest.raises(ConfigurationError):
            CompleteNetwork(n=0)


class TestDelivery:
    def test_broadcast_is_delivered_to_every_recipient(self):
        network = CompleteNetwork(n=4)
        inboxes = network.deliver(0, broadcast(1, 4, CoinShare(0, 1)))
        assert set(inboxes) == {0, 1, 2, 3}
        for inbox in inboxes.values():
            assert len(inbox) == 1
            assert inbox[0].sender == 1

    def test_delivery_order_is_deterministic_by_sender(self):
        network = CompleteNetwork(n=3)
        messages = broadcast(2, 3, CoinShare(0, 1)) + broadcast(0, 3, CoinShare(0, -1))
        inboxes = network.deliver(0, messages)
        senders_seen = [m.sender for m in inboxes[1]]
        assert senders_seen == sorted(senders_seen)

    def test_drops_remove_specific_edges_only(self):
        network = CompleteNetwork(n=3)
        messages = broadcast(0, 3, CoinShare(0, 1))
        inboxes = network.deliver(0, messages, drops={(0, 2)})
        assert 2 not in inboxes
        assert len(inboxes[1]) == 1
        assert network.deliveries[-1].dropped_count == 1

    def test_statistics_accumulate(self):
        network = CompleteNetwork(n=4)
        network.deliver(0, broadcast(0, 4, CoinShare(0, 1)))
        network.deliver(1, broadcast(1, 4, CoinShare(0, 1)))
        assert network.rounds_used == 2
        assert network.total_messages == 8
        assert network.total_bits == 8 * CoinShare(0, 1).bit_size()
        summary = network.summary()
        assert summary["messages"] == 8
        assert summary["congest_violations"] == 0

    def test_uses_supplied_congest_model(self):
        congest = CongestModel(n=4, strict=False, congest_factor=1)
        network = CompleteNetwork(n=4, congest=congest)
        for _ in range(5):
            network.deliver(0, broadcast(0, 4, CoinShare(0, 1)))
        # Multiple broadcasts in the same "round index" overflow the tiny budget.
        assert congest.total_messages == 20
