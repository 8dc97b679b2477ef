"""Tests for the adversary framework and the individual attack strategies."""

from __future__ import annotations

import pytest

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.base import AdversaryView, NullAdversary
from repro.adversary.strategies.coin_attack import CoinAttackAdversary
from repro.adversary.strategies.committee_targeting import CommitteeTargetingAdversary
from repro.adversary.strategies.crash import AdaptiveCrashAdversary
from repro.adversary.strategies.silence import SilentAdversary
from repro.core.committee import phase_of_round
from repro.core.runner import run_agreement
from repro.exceptions import BudgetExceededError, ConfigurationError


class TestBudgetBookkeeping:
    def test_commit_enforces_budget(self):
        adversary = NullAdversary(t=2)
        adversary.commit_corruptions({1, 2})
        assert adversary.remaining_budget == 0
        with pytest.raises(BudgetExceededError):
            adversary.commit_corruptions({3})

    def test_recorruption_rejected(self):
        adversary = NullAdversary(t=3)
        adversary.commit_corruptions({1})
        with pytest.raises(BudgetExceededError):
            adversary.commit_corruptions({1})

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            NullAdversary(t=-1)


class TestHelpers:
    def test_phase_and_round(self):
        assert phase_of_round(0) == (1, 1)
        assert phase_of_round(5) == (3, 2)

    def test_split_recipients_balanced(self):
        low, high = AdaptiveAdversary.split_recipients(list(range(9)))
        assert len(low) == 4 and len(high) == 5
        assert sorted(low + high) == list(range(9))

    def test_pick_targets_deterministic(self):
        adversary = SilentAdversary(t=3)
        assert adversary.pick_targets([9, 2, 7, 1], 2) == {1, 2}
        assert adversary.pick_targets([4], 3) == {4}
        assert adversary.pick_targets([4], 0) == set()


class TestStraddleArithmetic:
    @pytest.mark.parametrize(
        "honest_sum,controlled,expected",
        [
            (0, 0, 1),   # tie: one fresh corruption straddles
            (0, 1, 0),   # tie with one controlled member: free straddle
            (4, 0, 3),   # need (4 + 1) / 2 rounded up
            (4, 2, 2),
            (4, 5, 0),
            (-3, 0, 2),
            (-3, 3, 0),
            (7, 1, 4),
        ],
    )
    def test_corruptions_needed(self, honest_sum, controlled, expected):
        assert CoinAttackAdversary.corruptions_needed(honest_sum, controlled) == expected

    @pytest.mark.parametrize(
        "honest_sum,expected",
        [(0, 1), (3, 4), (-4, 4)],
    )
    def test_crashes_needed(self, honest_sum, expected):
        assert AdaptiveCrashAdversary.crashes_needed(honest_sum) == expected


class TestStrategyBehaviour:
    def test_silent_adversary_corrupts_targets_once(self):
        result = run_agreement(n=16, t=4, adversary="silent", inputs="split", seed=1)
        assert result.corrupted == {0, 1, 2, 3}
        assert result.agreement

    def test_static_adversary_corrupts_everything_up_front(self):
        result = run_agreement(
            n=16, t=4, adversary="static", inputs="split", seed=1, collect_trace=True
        )
        assert len(result.corrupted) == 4
        assert result.trace is not None
        # All corruptions happen in round 0 (static choice).
        assert all(r == 0 for r, _ in result.trace.corruption_schedule())

    def test_coin_attack_corrupts_committee_members_adaptively(self):
        result = run_agreement(
            n=36, t=6, adversary="coin-attack", inputs="split", seed=8, collect_trace=True
        )
        assert result.agreement
        schedule = result.trace.corruption_schedule()
        if schedule:
            # Adaptive: corruptions occur in coin rounds (odd round indices),
            # not all at round 0.
            assert all(round_index % 2 == 1 for round_index, _ in schedule)

    def test_coin_attack_spends_budget_before_conceding(self):
        result = run_agreement(n=36, t=6, adversary="coin-attack", inputs="split", seed=8)
        adversary = result.extra["adversary"]
        assert adversary.phases_spoiled >= 1
        assert adversary.coin_corruptions == len(result.corrupted)

    def test_committee_targeting_is_non_rushing(self):
        adversary = CommitteeTargetingAdversary(t=4)
        assert adversary.rushing is False

    def test_crash_adversary_only_replays_original_payloads(self):
        result = run_agreement(
            n=25, t=6, adversary="crash", inputs="split", seed=13, collect_trace=True
        )
        assert result.agreement
        # Crash faults may delay but never forge: validity must hold too.
        assert result.validity

    def test_equivocator_recruits_gradually(self):
        result = run_agreement(
            n=22, t=5, adversary="equivocate", inputs="split", seed=4, collect_trace=True
        )
        schedule = result.trace.corruption_schedule()
        rounds_of_corruption = [r for r, _ in schedule]
        assert rounds_of_corruption == sorted(rounds_of_corruption)
        assert len(set(rounds_of_corruption)) == len(rounds_of_corruption)  # one per phase


class TestViewHelpers:
    def test_view_honest_ids_and_values(self):
        from repro.simulator.node import ConstantNode
        from repro.simulator.rng import RandomnessSource

        source = RandomnessSource(0)
        nodes = [ConstantNode(i, 4, 1, i % 2, source.node_stream(i)) for i in range(4)]
        view = AdversaryView(
            round_index=0, n=4, t=1, nodes=nodes, honest_outgoing={},
            corrupted=frozenset({2}), remaining_budget=0,
        )
        assert view.honest_ids() == [0, 1, 3]
        assert view.honest_values() == {0: 0, 1: 1, 3: 1}
        assert view.honest_decided() == {0: False, 1: False, 3: False}
