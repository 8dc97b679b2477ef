"""Tests for the batched adversary plane kernels (`repro.adversary.kernels`).

Three layers: statistical cross-validation of each kernel against the object
simulator at small ``n`` (agreement/validity rates and round counts — the
kernels consume randomness differently from the object nodes' private
streams, so bit-identity is not the contract), registry-consistency checks
that the engine dispatch can never fast-path a `(protocol, adversary)` pair
without a registered adversary kernel, and unit tests of the shared plane
primitives the kernels are built on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.kernels import (
    ADVERSARY_PLANE_KERNELS,
    build_adversary_kernel,
)
from repro.core.parameters import ProtocolParameters
from repro.core.runner import (
    ADVERSARIES,
    PROTOCOLS,
    AgreementExperiment,
    TrialsResult,
    run_trials,
)
from repro.engine import (
    PROTOCOL_KERNELS,
    run_sweep,
    select_engine,
)
from repro.exceptions import ConfigurationError
from repro.simulator.bitplanes import first_k_true, lower_half_split, row_popcount
from repro.simulator.vectorized import run_vectorized_trials

PLANE_ADVERSARIES = sorted(ADVERSARY_PLANE_KERNELS)


def _sweep(n, t, **kwargs):
    """``run_vectorized_trials``' rows with the statistics ``run_sweep`` reports."""
    return TrialsResult(AgreementExperiment(n=n, t=t), run_vectorized_trials(n, t, **kwargs))


class TestCrossValidation:
    """Each plane kernel against the object simulator at small n."""

    @pytest.mark.parametrize("adversary", PLANE_ADVERSARIES)
    @pytest.mark.parametrize("protocol", ["committee-ba-las-vegas",
                                          "chor-coan-las-vegas"])
    def test_statistically_consistent_with_object_simulator(self, adversary, protocol):
        n, t, trials = 48, 8, 12
        vec = _sweep(n, t, adversary=adversary, inputs="split",
                     trials=trials, seed=5, protocol=protocol)
        obj = run_trials(
            AgreementExperiment(n=n, t=t, protocol=protocol,
                                adversary=adversary, inputs="split"),
            num_trials=trials, base_seed=5,
        )
        assert vec.agreement_rate == obj.agreement_rate == 1.0
        assert vec.validity_rate == obj.validity_rate == 1.0
        assert vec.mean_phases == pytest.approx(obj.mean_phases, rel=0.6, abs=4.0)
        assert vec.mean_corrupted == pytest.approx(obj.mean_corrupted, rel=0.5, abs=3.0)

    @pytest.mark.parametrize("adversary", PLANE_ADVERSARIES)
    def test_consistent_near_the_resilience_boundary(self, adversary):
        # t close to n/3 — the regime E6's oracle rows exercise.
        n, t, trials = 60, 19, 10
        vec = _sweep(n, t, adversary=adversary, inputs="split",
                     trials=trials, seed=11, protocol="committee-ba-las-vegas")
        obj = run_trials(
            AgreementExperiment(n=n, t=t, protocol="committee-ba-las-vegas",
                                adversary=adversary, inputs="split"),
            num_trials=trials, base_seed=11,
        )
        assert vec.agreement_rate == obj.agreement_rate == 1.0
        assert vec.validity_rate == obj.validity_rate == 1.0
        assert vec.mean_phases == pytest.approx(obj.mean_phases, rel=0.6, abs=4.0)

    @pytest.mark.parametrize("adversary", PLANE_ADVERSARIES)
    @pytest.mark.parametrize("inputs", ["unanimous-0", "unanimous-1"])
    def test_unanimous_inputs_decide_immediately_and_validly(self, adversary, inputs):
        aggregate = _sweep(48, 8, adversary=adversary, inputs=inputs, trials=8, seed=2)
        assert aggregate.agreement_rate == 1.0
        assert aggregate.validity_rate == 1.0
        assert aggregate.mean_phases <= 3.0
        expected = 0 if inputs == "unanimous-0" else 1
        assert all(result.decision == expected for result in aggregate.trials)

    def test_static_corruption_count_and_bounded_variant(self):
        rows = run_vectorized_trials(48, 8, adversary="static", inputs="split",
                                     trials=6, seed=4, protocol="committee-ba")
        assert all(result.corrupted == 8 for result in rows)
        assert all(result.phases <= 8 * 10 for result in rows)

    def test_equivocate_recruits_at_most_one_mouthpiece_per_phase(self):
        rows = run_vectorized_trials(48, 8, adversary="equivocate",
                                     inputs="split", trials=8, seed=6)
        for result in rows:
            assert result.corrupted <= min(result.phases, 8)

    def test_committee_targeting_delays_less_than_the_rushing_straddle(self):
        # Non-rushing: the straddle lands only when |S| < f, so the same
        # budget buys fewer spoiled phases than the rushing coin attack.
        targeting = _sweep(96, 18, adversary="committee-targeting",
                           inputs="split", trials=10, seed=7)
        rushing = _sweep(96, 18, adversary="coin-attack", inputs="split", trials=10, seed=7)
        assert targeting.mean_phases <= rushing.mean_phases + 1.0


class TestRegistryConsistency:
    """Dispatch can never fast-path an unregistered (protocol, adversary) pair."""

    def test_every_fast_path_pair_has_a_registered_behaviour(self):
        for protocol in PROTOCOLS:
            for adversary in ADVERSARIES:
                chosen = select_engine(protocol, adversary, engine="auto")
                fast = adversary in PROTOCOL_KERNELS[protocol].adversaries
                assert fast == (chosen == "vectorized"), (protocol, adversary)

    def test_committee_family_now_covers_every_registered_adversary(self):
        for protocol in ("committee-ba", "committee-ba-las-vegas",
                         "chor-coan", "chor-coan-las-vegas"):
            for adversary in ADVERSARIES:
                assert select_engine(protocol, adversary) == "vectorized"

    def test_one_adversary_vocabulary_from_the_cli_to_the_kernels(self):
        # The plane kernels are keyed by the runner's strategy names, and
        # every fast-path adversary of a protocol kernel is one of them.
        assert set(ADVERSARY_PLANE_KERNELS) == set(ADVERSARIES)
        for spec in PROTOCOL_KERNELS.values():
            assert spec.inapplicable <= spec.adversaries <= set(ADVERSARY_PLANE_KERNELS)

    def test_unknown_behaviour_rejected_by_the_kernel_factory(self):
        params = ProtocolParameters.derive(48, 8)
        with pytest.raises(ConfigurationError):
            build_adversary_kernel("jam-everything", n=48, t=8, params=params)

    @pytest.mark.parametrize("adversary", PLANE_ADVERSARIES)
    def test_run_sweep_reports_the_vectorized_engine(self, adversary):
        sweep = run_sweep(64, 12, protocol="committee-ba-las-vegas",
                          adversary=adversary, trials=4, base_seed=3)
        assert sweep.engine == "vectorized"
        assert sweep.agreement_rate == 1.0


class TestPlanePrimitives:
    """Unit tests for the shared bit-plane helpers in simulator.bitplanes."""

    def test_first_k_true_selects_lowest_index_cells(self):
        mask = np.array([[0, 1, 1, 0, 1, 1],
                         [1, 1, 0, 0, 0, 1],
                         [0, 0, 0, 0, 0, 0]], dtype=bool)
        picked = first_k_true(mask, np.array([2, 5, 3]))
        expected = np.array([[0, 1, 1, 0, 0, 0],
                             [1, 1, 0, 0, 0, 1],
                             [0, 0, 0, 0, 0, 0]], dtype=bool)
        assert np.array_equal(picked, expected)

    def test_first_k_true_with_zero_k_is_empty(self):
        mask = np.ones((2, 9), dtype=bool)
        assert not first_k_true(mask, np.zeros(2, dtype=np.int64)).any()

    def test_lower_half_split_matches_naive_ranking(self):
        rng = np.random.default_rng(0)
        recipients = rng.random((16, 37)) < 0.6
        lower, half = lower_half_split(recipients)
        for row in range(recipients.shape[0]):
            ids = np.flatnonzero(recipients[row])
            expected = set(ids[: len(ids) // 2])
            assert set(np.flatnonzero(lower[row])) == expected
            assert half[row] == len(ids) // 2

    def test_row_popcount_matches_count_nonzero(self):
        rng = np.random.default_rng(1)
        mask = rng.random((8, 100)) < 0.3
        assert np.array_equal(row_popcount(mask), np.count_nonzero(mask, axis=1))
