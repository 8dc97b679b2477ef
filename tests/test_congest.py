"""Unit tests for CONGEST bandwidth accounting."""

from __future__ import annotations

import pytest

from repro.exceptions import CongestViolationError
from repro.simulator.congest import CongestModel
from repro.simulator.messages import CoinShare, Message, ValueAnnouncement


def _value_message(sender=0, recipient=1):
    return Message(sender, recipient, ValueAnnouncement(1, 1, 0, False))


class TestCongestModel:
    def test_budget_is_constant_number_of_words(self):
        # The word size is floored at 32 bits (the counter size used by the
        # payloads) and grows as ceil(log2 n) beyond 2^32 nodes.
        assert CongestModel(n=16).word_size == 32
        assert CongestModel(n=1024).bits_per_edge == 8 * 32
        assert CongestModel(n=1024, congest_factor=2).bits_per_edge == 2 * 32

    def test_single_protocol_message_fits_budget(self):
        model = CongestModel(n=16, strict=True)
        model.start_round(0)
        model.charge(_value_message())
        assert model.violation_count == 0

    def test_strict_mode_raises_on_flooding_one_edge(self):
        model = CongestModel(n=16, strict=True, congest_factor=1)
        model.start_round(0)
        with pytest.raises(CongestViolationError):
            for _ in range(10):
                model.charge(_value_message())

    def test_non_strict_mode_records_violations(self):
        model = CongestModel(n=16, strict=False, congest_factor=1)
        model.start_round(0)
        for _ in range(10):
            model.charge(_value_message())
        assert model.violation_count > 0

    def test_budget_resets_each_round(self):
        model = CongestModel(n=16, strict=True, congest_factor=2)
        for round_index in range(5):
            model.start_round(round_index)
            model.charge(_value_message())
        assert model.violation_count == 0

    def test_different_edges_have_independent_budgets(self):
        model = CongestModel(n=64, strict=True, congest_factor=2)
        model.start_round(0)
        for recipient in range(1, 50):
            model.charge(Message(0, recipient, CoinShare(0, 1)))
        assert model.violation_count == 0

    def test_totals_and_summary(self):
        model = CongestModel(n=16, strict=False)
        model.start_round(0)
        messages = [_value_message(0, r) for r in range(5)]
        for message in messages:
            model.charge(message)
        assert model.total_messages == 5
        assert model.total_bits == sum(m.bit_size() for m in messages)
        summary = model.summary()
        assert summary["total_messages"] == 5
        assert summary["violations"] == 0

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            CongestModel(n=0)
        with pytest.raises(ValueError):
            CongestModel(n=4, congest_factor=0)
