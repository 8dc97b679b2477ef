"""Unit tests for the ProtocolNode base class and execution traces."""

from __future__ import annotations

import pytest

from repro.exceptions import ProtocolViolationError
from repro.simulator.node import ConstantNode, HonestNodeRecord
from repro.simulator.trace import ExecutionTrace, RoundRecord


class TestProtocolNode:
    def test_rejects_bad_construction(self, node_rng):
        with pytest.raises(ValueError):
            ConstantNode(node_id=5, n=4, t=1, input_value=0, rng=node_rng)
        with pytest.raises(ValueError):
            ConstantNode(node_id=0, n=4, t=1, input_value=2, rng=node_rng)

    def test_decide_sets_output_and_terminates(self, node_rng):
        node = ConstantNode(0, 4, 1, 1, node_rng)
        node.deliver(0, [])
        assert node.terminated
        assert node.output == 1

    def test_decide_is_idempotent_but_immutable(self, node_rng):
        node = ConstantNode(0, 4, 1, 1, node_rng)
        node.decide(1)
        node.decide(1)  # same value: fine
        with pytest.raises(ProtocolViolationError):
            node.decide(0)

    def test_decide_rejects_non_binary(self, node_rng):
        node = ConstantNode(0, 4, 1, 1, node_rng)
        with pytest.raises(ProtocolViolationError):
            node.decide(7)

    def test_record_snapshot(self, node_rng):
        node = ConstantNode(2, 4, 1, 0, node_rng)
        record = node.record()
        assert isinstance(record, HonestNodeRecord)
        assert record.node_id == 2
        assert record.terminated is False
        node.decide(0)
        assert node.record().output == 0


def _round(i: int, corrupted=(), decided=0, terminated=0, values=(0, 1), messages=4, bits=100):
    return RoundRecord(
        round_index=i,
        newly_corrupted=tuple(corrupted),
        corrupted_total=len(corrupted),
        honest_decided=decided,
        honest_terminated=terminated,
        honest_values=tuple(values),
        message_count=messages,
        bit_count=bits,
    )


class TestExecutionTrace:
    def test_empty_trace_summary(self):
        trace = ExecutionTrace()
        assert trace.rounds == 0
        assert trace.summary() == {"rounds": 0}

    def test_corruption_schedule_order(self):
        trace = ExecutionTrace()
        trace.add(_round(0, corrupted=(3,)))
        trace.add(_round(1, corrupted=(1, 2)))
        assert trace.corruption_schedule() == [(0, 3), (1, 1), (1, 2)]

    def test_decided_counts(self):
        trace = ExecutionTrace()
        trace.add(_round(0, decided=1))
        trace.add(_round(1, decided=3))
        trace.add(_round(2, decided=4))
        assert trace.decided_counts() == [1, 3, 4]

    def test_summary_totals(self):
        trace = ExecutionTrace()
        trace.add(_round(0, messages=10, bits=350))
        trace.add(_round(1, messages=20, bits=700))
        summary = trace.summary()
        assert summary["rounds"] == 2
        assert summary["total_messages"] == 30
        assert summary["total_bits"] == 1050
