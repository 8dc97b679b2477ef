"""Tests for the high-level runner API (run_agreement / run_trials)."""

from __future__ import annotations

import pytest

from repro.core.inputs import input_list
from repro.core.runner import (
    ADVERSARIES,
    INPUT_PATTERNS,
    PROTOCOLS,
    AgreementExperiment,
    default_max_rounds,
    run_agreement,
    run_trials,
)
from repro.exceptions import ConfigurationError
from repro.simulator.rng import RandomnessSource


class TestRegistries:
    def test_all_expected_protocols_registered(self):
        expected = {
            "committee-ba", "committee-ba-las-vegas", "chor-coan", "chor-coan-las-vegas",
            "rabin", "ben-or", "phase-king", "eig", "sampling-majority",
        }
        assert expected <= set(PROTOCOLS)

    def test_all_expected_adversaries_registered(self):
        expected = {
            "null", "static", "silent", "random-noise", "equivocate",
            "coin-attack", "committee-targeting", "crash",
        }
        assert expected <= set(ADVERSARIES)

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError):
            run_agreement(n=10, t=2, protocol="no-such-protocol")
        with pytest.raises(ConfigurationError):
            run_agreement(n=10, t=2, adversary="no-such-adversary")


class TestInputs:
    def test_every_named_pattern_builds(self):
        randomness = RandomnessSource(1)
        for pattern in INPUT_PATTERNS:
            inputs = input_list(12, pattern, randomness)
            assert len(inputs) == 12
            assert set(inputs) <= {0, 1}

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            input_list(3, "diagonal", RandomnessSource(1))


class TestDefaults:
    def test_default_max_rounds_cover_protocol_schedules(self):
        assert default_max_rounds("committee-ba", 64, 10) >= 2 * 10
        assert default_max_rounds("phase-king", 64, 10) == 2 * 12
        assert default_max_rounds("eig", 64, 10) == 13
        assert default_max_rounds("committee-ba-las-vegas", 64, 10) > 2 * 10

    def test_t_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            run_agreement(n=9, t=3)
        with pytest.raises(ConfigurationError):
            run_agreement(n=10, t=-1)

    @pytest.mark.parametrize("kwargs", [
        {"max_rounds": 0},
        {"max_rounds": -3, "allow_timeout": True},
    ])
    def test_round_caps_below_one_are_configuration_errors(self, kwargs):
        # The same check as run_sweep and SweepPoint, before any node runs.
        with pytest.raises(ConfigurationError, match="max_rounds must be >= 1"):
            run_agreement(13, 3, **kwargs)


    @pytest.mark.parametrize("seed", [-1, 5 + 2**64])
    def test_seeds_outside_the_philox_key_word_are_configuration_errors(self, seed):
        # A seed past 2**64 would wrap and silently repeat the run of
        # seed - 2**64 (same rounds, messages and corrupted set).
        with pytest.raises(ConfigurationError, match=r"seed must be in \[0, 2\*\*64\)"):
            run_agreement(13, 3, adversary="coin-attack", seed=seed)


class TestRunAgreement:
    def test_result_extras_populated(self):
        result = run_agreement(n=16, t=3, adversary="coin-attack", inputs="split", seed=0)
        assert result.extra["phases"] == (result.rounds + 1) // 2
        assert result.extra["params"] is not None
        assert result.extra["adversary"].strategy_name == "coin-attack"

    def test_alpha_is_forwarded(self):
        small = run_agreement(n=30, t=5, adversary="null", inputs="split", seed=0, alpha=1.0)
        large = run_agreement(n=30, t=5, adversary="null", inputs="split", seed=0, alpha=8.0)
        assert large.extra["params"].num_phases >= small.extra["params"].num_phases

    def test_alpha_is_ignored_without_committees(self):
        # As on the fast path: only the committee-BA and Chor-Coan geometry
        # reads alpha.
        for protocol in ("phase-king", "eig", "sampling-majority"):
            plain = run_agreement(n=13, t=3, protocol=protocol, seed=4)
            tuned = run_agreement(n=13, t=3, protocol=protocol, seed=4, alpha=2.0)
            assert (tuned.rounds, tuned.decision, tuned.message_count) == (
                plain.rounds, plain.decision, plain.message_count
            ), protocol

    def test_rabin_nodes_share_the_dealer_seed(self):
        result = run_agreement(n=13, t=3, protocol="rabin", adversary="equivocate",
                               inputs="split", seed=6)
        assert result.agreement


class TestRunTrials:
    def test_aggregates_are_consistent(self):
        experiment = AgreementExperiment(n=16, t=3, adversary="coin-attack", inputs="split")
        trials = run_trials(experiment, num_trials=5, base_seed=100)
        assert trials.num_trials == 5
        assert trials.agreement_rate == 1.0
        assert trials.validity_rate == 1.0
        assert trials.mean_rounds >= 2
        assert trials.max_rounds >= trials.median_rounds
        summary = trials.summary()
        assert summary["trials"] == 5.0
        assert 0 <= summary["timeout_rate"] <= 1

    def test_trials_use_distinct_seeds(self):
        experiment = AgreementExperiment(n=16, t=3, adversary="coin-attack", inputs="split")
        trials = run_trials(experiment, num_trials=4, base_seed=7)
        assert [trial.seed for trial in trials.trials] == [7, 8, 9, 10]

    def test_invalid_trial_count(self):
        experiment = AgreementExperiment(n=16, t=3)
        with pytest.raises(ConfigurationError):
            run_trials(experiment, num_trials=0)

    def test_experiment_label(self):
        experiment = AgreementExperiment(n=16, t=3, protocol="chor-coan", adversary="crash")
        assert experiment.label() == "chor-coan/crash/n=16/t=3"
