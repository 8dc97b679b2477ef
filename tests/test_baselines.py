"""Tests for the baseline protocols (Chor–Coan, Rabin, Ben-Or, phase king, EIG,
sampling majority)."""

from __future__ import annotations

import pytest

from repro.baselines.chor_coan import chor_coan_parameters
from repro.baselines.eig import EIGNode
from repro.baselines.phase_king import PhaseKingNode
from repro.core.parameters import log2n
from repro.core.runner import run_agreement, run_trials, AgreementExperiment
from repro.exceptions import ConfigurationError
from repro.simulator.rng import RandomnessSource


class TestChorCoan:
    def test_group_size_is_logarithmic(self):
        params = chor_coan_parameters(1024, 100)
        assert params.committee_size == 10  # ceil(log2 1024)
        params_small = chor_coan_parameters(64, 10)
        assert params_small.committee_size == 6

    def test_phase_count_scales_linearly_in_t(self):
        small = chor_coan_parameters(1024, 50)
        large = chor_coan_parameters(1024, 300)
        assert large.num_phases > small.num_phases
        assert large.num_phases >= 3 * 4.0 * 300 / log2n(1024) - 1

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            chor_coan_parameters(9, 3)
        with pytest.raises(ConfigurationError):
            chor_coan_parameters(64, 5, alpha=0)

    @pytest.mark.parametrize("adversary", ["null", "coin-attack", "static", "equivocate"])
    def test_agreement_under_adversaries(self, adversary):
        result = run_agreement(n=22, t=5, protocol="chor-coan", adversary=adversary,
                               inputs="split", seed=31)
        assert result.agreement and result.validity

    def test_las_vegas_variant_terminates(self):
        result = run_agreement(n=22, t=5, protocol="chor-coan-las-vegas",
                               adversary="coin-attack", inputs="split", seed=2)
        assert result.agreement and not result.timed_out

    def test_paper_protocol_uses_larger_committees_for_small_t(self):
        from repro.core.parameters import ProtocolParameters

        n, t = 1024, 16
        ours = ProtocolParameters.derive(n, t)
        chor_coan = chor_coan_parameters(n, t)
        assert ours.committee_size > chor_coan.committee_size


class TestRabin:
    def test_dealer_coin_is_identical_across_nodes(self):
        from repro.baselines.rabin import RabinDealerNode

        source = RandomnessSource(5)
        nodes = [
            RabinDealerNode(i, 10, 2, 0, source.node_stream(i), dealer_seed=77)
            for i in range(10)
        ]
        for phase in (1, 2, 3, 9):
            coins = {node._phase_coin(phase, {}) for node in nodes}
            assert len(coins) == 1

    def test_dealer_coin_varies_across_phases(self):
        from repro.baselines.rabin import RabinDealerNode

        node = RabinDealerNode(0, 10, 2, 0, RandomnessSource(5).node_stream(0), dealer_seed=77)
        coins = {node._phase_coin(phase, {}) for phase in range(1, 40)}
        assert coins == {0, 1}

    def test_rabin_is_fast_even_under_attack(self):
        trials = run_trials(
            AgreementExperiment(n=19, t=4, protocol="rabin", adversary="coin-attack",
                                inputs="split"),
            num_trials=5, base_seed=11,
        )
        assert trials.agreement_rate == 1.0
        # The dealer coin cannot be straddled, so a handful of phases suffice.
        assert trials.mean_phases <= 8


class TestBenOr:
    def test_ben_or_small_network_terminates_and_agrees(self):
        result = run_agreement(n=8, t=1, protocol="ben-or", adversary="silent",
                               inputs="split", seed=5, max_rounds=4000)
        assert result.agreement

    def test_ben_or_is_slower_than_shared_coin_protocols(self):
        ben_or = run_trials(
            AgreementExperiment(n=10, t=2, protocol="ben-or", adversary="silent",
                                inputs="split", max_rounds=6000),
            num_trials=3, base_seed=2,
        )
        ours = run_trials(
            AgreementExperiment(n=10, t=2, protocol="committee-ba", adversary="silent",
                                inputs="split"),
            num_trials=3, base_seed=2,
        )
        assert ben_or.agreement_rate == 1.0
        assert ben_or.mean_rounds >= ours.mean_rounds


class TestPhaseKing:
    def test_requires_n_greater_than_4t(self):
        with pytest.raises(ConfigurationError):
            PhaseKingNode(0, 8, 2, 0, RandomnessSource(0).node_stream(0))

    def test_round_complexity_is_deterministic_t_plus_one_phases(self):
        result = run_agreement(n=17, t=3, protocol="phase-king", adversary="static",
                               inputs="split", seed=1)
        assert result.rounds == 2 * (3 + 1)
        assert result.agreement

    @pytest.mark.parametrize("adversary", ["null", "silent", "static", "random-noise"])
    def test_agreement_and_validity(self, adversary):
        result = run_agreement(n=17, t=3, protocol="phase-king", adversary=adversary,
                               inputs="split", seed=7)
        assert result.agreement and result.validity

    def test_unanimous_inputs_preserved(self):
        result = run_agreement(n=13, t=3, protocol="phase-king", adversary="static",
                               inputs="unanimous-1", seed=3)
        assert result.decision == 1


class TestEIG:
    def test_tree_size_guard(self):
        with pytest.raises(ConfigurationError):
            EIGNode(0, 50, 10, 0, RandomnessSource(0).node_stream(0))
        with pytest.raises(ConfigurationError):
            EIGNode(0, 9, 3, 0, RandomnessSource(0).node_stream(0))

    def test_runs_in_t_plus_one_rounds(self):
        result = run_agreement(n=10, t=2, protocol="eig", adversary="static",
                               inputs="split", seed=1)
        assert result.rounds == 3
        assert result.agreement

    @pytest.mark.parametrize("adversary", ["null", "silent", "static", "random-noise"])
    def test_agreement_and_validity(self, adversary):
        result = run_agreement(n=10, t=2, protocol="eig", adversary=adversary,
                               inputs="split", seed=9)
        assert result.agreement and result.validity

    def test_validity_with_unanimous_input(self):
        result = run_agreement(n=7, t=1, protocol="eig", adversary="static",
                               inputs="unanimous-0", seed=2)
        assert result.decision == 0

    def test_messages_blow_up_with_t(self):
        small = run_agreement(n=10, t=1, protocol="eig", adversary="null",
                              inputs="split", seed=0)
        large = run_agreement(n=10, t=2, protocol="eig", adversary="null",
                              inputs="split", seed=0)
        assert large.bit_count > 3 * small.bit_count


class TestSamplingMajority:
    def test_converges_without_faults(self):
        result = run_agreement(n=32, t=0, protocol="sampling-majority", adversary="null",
                               inputs="unanimous-1", seed=1)
        assert result.decision == 1

    def test_converges_with_few_silent_faults(self):
        trials = run_trials(
            AgreementExperiment(n=32, t=2, protocol="sampling-majority", adversary="silent",
                                inputs="random"),
            num_trials=5, base_seed=3,
        )
        # A convergence dynamic, not a guaranteed protocol: most runs agree.
        assert trials.agreement_rate >= 0.6

    def test_runs_fixed_number_of_iterations(self):
        result = run_agreement(n=16, t=1, protocol="sampling-majority", adversary="silent",
                               inputs="split", seed=4)
        # 2 rounds per iteration, iterations = ceil(2 * log2(16)^2) = 32
        assert result.rounds == 64
