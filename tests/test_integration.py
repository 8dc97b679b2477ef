"""Cross-module integration tests.

These run the full protocol/adversary matrix at small scale and check the
system-level claims that individual unit tests cannot see: every protocol
against every compatible adversary, early-termination behaviour, measured
round-complexity ordering between the paper's protocol and the baselines, and
the CONGEST discipline of the whole stack.
"""

from __future__ import annotations

import pytest

from repro.core.runner import AgreementExperiment, run_agreement, run_trials
from repro.analysis.statistics import loglog_slope

COMMITTEE_PROTOCOLS = ["committee-ba", "committee-ba-las-vegas", "chor-coan",
                       "chor-coan-las-vegas", "rabin"]
ALL_ADVERSARIES = ["null", "silent", "static", "random-noise", "equivocate",
                   "coin-attack", "committee-targeting", "crash"]


class TestProtocolAdversaryMatrix:
    @pytest.mark.parametrize("protocol", COMMITTEE_PROTOCOLS)
    @pytest.mark.parametrize("adversary", ALL_ADVERSARIES)
    def test_committee_family_full_matrix(self, protocol, adversary):
        result = run_agreement(n=19, t=4, protocol=protocol, adversary=adversary,
                               inputs="split", seed=23)
        assert result.agreement
        assert result.validity
        assert len(result.corrupted) <= 4

    @pytest.mark.parametrize("adversary", ["null", "silent", "static", "random-noise"])
    def test_deterministic_baselines_matrix(self, adversary):
        phase_king = run_agreement(n=17, t=3, protocol="phase-king", adversary=adversary,
                                   inputs="split", seed=29)
        eig = run_agreement(n=10, t=2, protocol="eig", adversary=adversary,
                            inputs="split", seed=29)
        assert phase_king.agreement and phase_king.validity
        assert eig.agreement and eig.validity


class TestEarlyTermination:
    def test_fewer_actual_corruptions_terminate_earlier(self):
        # Theorem 2, second clause: with the declared bound t fixed, rounds
        # scale with the *actual* number of corruptions q.  The object
        # family's adversary spends up to t, so only q = 0 (no attack) and
        # q = t are expressible here; E3 varies the budget itself.
        n, declared_t = 40, 13
        rounds_by_q = []
        for q, adversary in ((0, "null"), (declared_t, "coin-attack")):
            trials = run_trials(
                AgreementExperiment(
                    n=n, t=declared_t, protocol="committee-ba",
                    adversary=adversary, inputs="split",
                ),
                num_trials=4, base_seed=50 + q,
            )
            rounds_by_q.append(trials.mean_rounds)
        # This sanity check only needs the no-attack case to be fastest.
        assert rounds_by_q[0] <= rounds_by_q[-1]

    def test_budget_caps_measured_rounds(self):
        # The straddle adversary spends >= 1 corruption per spoiled phase, so
        # the number of phases is at most t plus a small constant tail.
        result = run_agreement(n=30, t=6, protocol="committee-ba-las-vegas",
                               adversary="coin-attack", inputs="split", seed=77)
        phases = (result.rounds + 1) // 2
        assert phases <= 6 + 10


class TestComplexityOrdering:
    def test_paper_protocol_beats_phase_king_for_moderate_t(self):
        n, t = 45, 10
        ours = run_trials(
            AgreementExperiment(n=n, t=t, protocol="committee-ba-las-vegas",
                                adversary="coin-attack", inputs="split"),
            num_trials=5, base_seed=1,
        )
        deterministic = run_trials(
            AgreementExperiment(n=n, t=t, protocol="phase-king", adversary="static",
                                inputs="split"),
            num_trials=1, base_seed=1,
        )
        assert ours.agreement_rate == 1.0
        assert ours.mean_rounds < deterministic.mean_rounds

    def test_measured_rounds_grow_superlinearly_in_t_for_fixed_n(self):
        # In the regime covered here the straddle adversary forces a round
        # count that grows clearly with t (the E1 benchmark quantifies the
        # exponent at larger n).
        n = 64
        ts = [4, 9, 19]
        means = []
        for t in ts:
            trials = run_trials(
                AgreementExperiment(n=n, t=t, protocol="committee-ba-las-vegas",
                                    adversary="coin-attack", inputs="split"),
                num_trials=4, base_seed=13,
            )
            means.append(trials.mean_rounds)
        assert means[0] < means[1] < means[2]
        assert loglog_slope(ts, means) > 0.5


class TestSystemDiscipline:
    @pytest.mark.parametrize("protocol", ["committee-ba", "chor-coan", "rabin", "phase-king"])
    def test_congest_budget_holds_for_all_word_sized_protocols(self, protocol):
        result = run_agreement(n=21, t=4 if protocol != "phase-king" else 4,
                               protocol=protocol, adversary="coin-attack"
                               if protocol != "phase-king" else "static",
                               inputs="split", seed=3, strict_congest=True)
        assert result.congest_violations == 0

    def test_eig_violates_congest_and_is_reported(self):
        result = run_agreement(n=10, t=2, protocol="eig", adversary="null",
                               inputs="split", seed=3, strict_congest=False)
        assert result.congest_violations > 0

    def test_message_counts_match_broadcast_structure(self):
        result = run_agreement(n=16, t=0, protocol="committee-ba", adversary="null",
                               inputs="unanimous-1", seed=1)
        # Every honest node broadcasts to all n nodes in every round.
        assert result.message_count == result.rounds * 16 * 16

    def test_full_reproducibility_of_a_complete_run(self):
        kwargs = dict(n=26, t=7, protocol="committee-ba-las-vegas",
                      adversary="coin-attack", inputs="random", seed=99,
                      collect_trace=True)
        a = run_agreement(**kwargs)
        b = run_agreement(**kwargs)
        assert a.rounds == b.rounds
        assert a.outputs == b.outputs
        assert a.corrupted == b.corrupted
        assert [r.newly_corrupted for r in a.trace.records] == \
               [r.newly_corrupted for r in b.trace.records]
