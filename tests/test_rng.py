"""Unit tests for deterministic randomness management."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.rng import (
    RandomnessSource,
    fair_bit,
    fair_sign,
    split_inputs,
    unanimous_inputs,
)


class TestRandomnessSource:
    def test_same_seed_same_streams(self):
        a = RandomnessSource(7).node_stream(3).integers(0, 1000, size=10)
        b = RandomnessSource(7).node_stream(3).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_nodes_get_different_streams(self):
        source = RandomnessSource(7)
        a = source.node_stream(0).integers(0, 1_000_000, size=20)
        b = source.node_stream(1).integers(0, 1_000_000, size=20)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomnessSource(1).node_stream(0).integers(0, 1_000_000, size=20)
        b = RandomnessSource(2).node_stream(0).integers(0, 1_000_000, size=20)
        assert not np.array_equal(a, b)

    def test_adversary_and_environment_streams_are_independent_of_nodes(self):
        source = RandomnessSource(7)
        node = source.node_stream(0).integers(0, 1_000_000, size=20)
        adversary = source.adversary_stream().integers(0, 1_000_000, size=20)
        environment = source.environment_stream().integers(0, 1_000_000, size=20)
        assert not np.array_equal(node, adversary)
        assert not np.array_equal(node, environment)
        assert not np.array_equal(adversary, environment)

    def test_invalid_arguments(self):
        with pytest.raises(TypeError):
            RandomnessSource("not-an-int")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            RandomnessSource(1).node_stream(-1)


class TestPrimitives:
    def test_fair_sign_values(self, node_rng):
        values = {fair_sign(node_rng) for _ in range(200)}
        assert values == {-1, 1}

    def test_fair_bit_values(self, node_rng):
        values = {fair_bit(node_rng) for _ in range(200)}
        assert values == {0, 1}

    def test_fair_sign_is_roughly_balanced(self, node_rng):
        total = sum(fair_sign(node_rng) for _ in range(4000))
        assert abs(total) < 400  # ~6 standard deviations


class TestInputPatterns:
    def test_split_inputs_halves(self):
        inputs = split_inputs(10)
        assert inputs.count(0) == 5 and inputs.count(1) == 5
        assert inputs == sorted(inputs)

    def test_split_inputs_odd_length(self):
        inputs = split_inputs(7)
        assert len(inputs) == 7
        assert inputs.count(0) == 3 and inputs.count(1) == 4

    def test_unanimous_inputs(self):
        assert unanimous_inputs(5, 1) == [1] * 5
        assert unanimous_inputs(3, 0) == [0] * 3
        with pytest.raises(ValueError):
            unanimous_inputs(3, 2)
