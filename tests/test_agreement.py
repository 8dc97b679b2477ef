"""Tests for Algorithm 3 (the committee-based agreement protocol).

Covers the per-node decision logic (thresholds, coin fallback, finish/flush
behaviour) at the unit level, and the protocol-level guarantees — agreement,
validity, early termination, one-good-phase convergence — at the execution
level under the full set of adversary strategies.
"""

from __future__ import annotations

import pytest

from repro.core.agreement import CommitteeAgreementNode
from repro.core.committee import phase_of_round
from repro.core.parameters import ProtocolParameters
from repro.core.runner import run_agreement
from repro.exceptions import ConfigurationError
from repro.simulator.messages import CombinedAnnouncement, Message, ValueAnnouncement
from repro.simulator.rng import RandomnessSource


def _node(n=16, t=3, node_id=0, input_value=0, alpha=4.0, params=None):
    rng = RandomnessSource(9).node_stream(node_id)
    return CommitteeAgreementNode(node_id, n, t, input_value, rng, params=params, alpha=alpha)


def _round1_inbox(n, phase, values, decided=None):
    decided = decided or [False] * len(values)
    return [
        Message(sender, 0, ValueAnnouncement(phase, 1, value, flag))
        for sender, (value, flag) in enumerate(zip(values, decided))
    ]


def _round2_inbox(n, phase, records, shares=None):
    """records: list of (value, decided); shares: dict sender -> share."""
    shares = shares or {}
    inbox = []
    for sender, (value, flag) in enumerate(records):
        inbox.append(
            Message(
                sender,
                0,
                CombinedAnnouncement(phase=phase, value=value, decided=flag, share=shares.get(sender)),
            )
        )
    return inbox


class TestPhaseMapping:
    def test_phase_of_round(self):
        assert phase_of_round(0) == (1, 1)
        assert phase_of_round(1) == (1, 2)
        assert phase_of_round(2) == (2, 1)
        assert phase_of_round(7) == (4, 2)


class TestConstruction:
    def test_params_must_match_n_t(self):
        params = ProtocolParameters.derive(32, 5)
        with pytest.raises(ConfigurationError):
            _node(n=16, t=3, params=params)

    def test_generate_round1_broadcasts_value_and_decided(self):
        node = _node(input_value=1)
        messages = node.generate(0)
        assert len(messages) == node.n
        payload = messages[0].payload
        assert isinstance(payload, ValueAnnouncement)
        assert payload.value == 1 and payload.decided is False and payload.phase == 1

    def test_generate_round2_includes_share_only_for_committee_members(self):
        params = ProtocolParameters.derive(16, 3)
        committee_member = _node(node_id=0, params=params)
        messages = committee_member.generate(1)
        member_share = messages[0].payload.share
        in_committee = 0 in committee_member.partition.members_for_phase(1)
        assert (member_share in (-1, 1)) == in_committee


class TestRound1Logic:
    def test_decides_with_n_minus_t_support(self):
        node = _node()
        inbox = _round1_inbox(16, 1, [1] * 13 + [0] * 3)
        node.deliver(0, inbox)
        assert node.value == 1 and node.decided is True

    def test_does_not_decide_below_threshold(self):
        node = _node(input_value=1)
        inbox = _round1_inbox(16, 1, [1] * 12 + [0] * 4)
        node.deliver(0, inbox)
        assert node.decided is False

    def test_duplicate_senders_counted_once(self):
        node = _node()
        # One Byzantine sender repeats its vote 13 times; only one counts.
        inbox = [Message(5, 0, ValueAnnouncement(1, 1, 1, False)) for _ in range(13)]
        node.deliver(0, inbox)
        assert node.decided is False

    def test_wrong_phase_messages_ignored(self):
        node = _node()
        inbox = _round1_inbox(16, 2, [1] * 16)
        node.deliver(0, inbox)
        assert node.decided is False


class TestRound2Logic:
    def test_case1_sets_finish(self):
        node = _node()
        node.deliver(0, _round1_inbox(16, 1, [1] * 16))  # decide in round 1
        node.deliver(1, _round2_inbox(16, 1, [(1, True)] * 13 + [(0, False)] * 3))
        assert node.finish_pending is True
        assert node.value == 1 and node.decided is True
        assert not node.terminated  # terminates only after the flush phase

    def test_case2_adopts_value_without_finishing(self):
        node = _node()
        node.deliver(0, _round1_inbox(16, 1, [1] * 10 + [0] * 6))  # undecided
        node.deliver(1, _round2_inbox(16, 1, [(1, True)] * 4 + [(0, False)] * 12))
        assert node.value == 1 and node.decided is True
        assert node.finish_pending is False

    def test_case3_adopts_committee_coin(self):
        node = _node()
        committee = list(node.partition.members_for_phase(1))
        node.deliver(0, _round1_inbox(16, 1, [1] * 8 + [0] * 8))
        # All committee members flip -1: the coin must be 0.
        shares = {member: -1 for member in committee}
        node.deliver(1, _round2_inbox(16, 1, [(1, False)] * 16, shares=shares))
        assert node.value == 0 and node.decided is False
        assert node.coin_adoptions == 1

    def test_case3_ignores_shares_from_outside_committee(self):
        node = _node()
        committee = set(node.partition.members_for_phase(1))
        outsiders = [i for i in range(16) if i not in committee]
        node.deliver(0, _round1_inbox(16, 1, [1] * 8 + [0] * 8))
        shares = {member: 1 for member in committee}
        shares.update({outsider: -1 for outsider in outsiders})
        node.deliver(1, _round2_inbox(16, 1, [(0, False)] * 16, shares=shares))
        assert node.value == 1  # outsider -1 shares did not flip the coin

    def test_byzantine_cannot_fake_t_plus_one_alone(self):
        node = _node(n=16, t=3)
        node.deliver(0, _round1_inbox(16, 1, [1] * 8 + [0] * 8))
        # Only 3 = t "decided" claims: below the t+1 threshold, so case 3 runs.
        node.deliver(1, _round2_inbox(16, 1, [(1, True)] * 3 + [(0, False)] * 13))
        assert node.decided is False

    def test_flush_phase_terminates_with_stable_value(self):
        node = _node()
        node.deliver(0, _round1_inbox(16, 1, [1] * 16))
        node.deliver(1, _round2_inbox(16, 1, [(1, True)] * 16))
        assert node.finish_pending
        # Next phase: the node broadcasts both rounds, ignores updates, then stops.
        messages_r1 = node.generate(2)
        assert messages_r1[0].payload.value == 1 and messages_r1[0].payload.decided is True
        node.deliver(2, [])
        messages_r2 = node.generate(3)
        assert isinstance(messages_r2[0].payload, CombinedAnnouncement)
        node.deliver(3, [])
        assert node.terminated and node.output == 1

    def test_exhaustion_decides_current_value(self):
        params = ProtocolParameters.derive(16, 3)
        node = _node(params=params, input_value=0)
        last_phase = params.num_phases
        last_round = 2 * last_phase - 1
        node.deliver(last_round - 1, _round1_inbox(16, last_phase, [0] * 8 + [1] * 8))
        node.deliver(last_round, _round2_inbox(16, last_phase, [(0, False)] * 16))
        assert node.terminated
        assert node.output in (0, 1)


class TestProtocolLevel:
    @pytest.mark.parametrize("adversary", ["null", "silent", "static", "equivocate",
                                           "random-noise", "coin-attack",
                                           "committee-targeting", "crash"])
    def test_agreement_and_validity_under_every_adversary(self, adversary):
        result = run_agreement(
            n=22, t=4, protocol="committee-ba", adversary=adversary, inputs="split", seed=11
        )
        assert result.agreement
        assert result.validity

    @pytest.mark.parametrize("value", [0, 1])
    @pytest.mark.parametrize("adversary", ["coin-attack", "static", "crash"])
    def test_validity_with_unanimous_inputs(self, value, adversary):
        result = run_agreement(
            n=19, t=5, adversary=adversary, inputs=f"unanimous-{value}", seed=3
        )
        assert result.agreement
        assert result.decision == value

    def test_unanimous_inputs_without_faults_terminate_in_two_phases(self):
        result = run_agreement(n=16, t=3, adversary="null", inputs="unanimous-1", seed=0)
        assert result.decision == 1
        assert result.rounds <= 4

    def test_adversary_never_exceeds_budget(self):
        result = run_agreement(n=25, t=8, adversary="coin-attack", inputs="split", seed=21)
        assert len(result.corrupted) <= 8

    def test_coin_attack_costs_rounds_but_not_agreement(self):
        calm = run_agreement(n=30, t=9, adversary="null", inputs="split", seed=5)
        attacked = run_agreement(n=30, t=9, adversary="coin-attack", inputs="split", seed=5)
        assert attacked.agreement and calm.agreement
        assert attacked.rounds >= calm.rounds

    def test_congest_budget_respected(self):
        result = run_agreement(
            n=20, t=4, adversary="coin-attack", inputs="split", seed=2, strict_congest=True
        )
        assert result.congest_violations == 0

    def test_deterministic_given_seed(self):
        a = run_agreement(n=24, t=6, adversary="coin-attack", inputs="split", seed=42)
        b = run_agreement(n=24, t=6, adversary="coin-attack", inputs="split", seed=42)
        assert a.rounds == b.rounds
        assert a.decision == b.decision
        assert a.corrupted == b.corrupted

    def test_different_seeds_can_differ(self):
        rounds = {
            run_agreement(n=24, t=6, adversary="coin-attack", inputs="split", seed=s).rounds
            for s in range(8)
        }
        assert len(rounds) > 1
