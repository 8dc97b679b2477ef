"""Tests for the vectorised execution engine, including cross-validation
against the object-level simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.kernels import ADVERSARY_PLANE_KERNELS
from repro.core.inputs import input_row
from repro.core.parameters import ProtocolParameters
from repro.core.runner import AgreementExperiment, TrialsResult, default_max_rounds, run_trials
from repro.exceptions import ConfigurationError
from repro.simulator.draws import VECTOR_MIN_ROWS, TrialStreams, trial_generator
from repro.simulator.vectorized import (
    PHASE_PROTOCOLS,
    VectorizedAgreementSimulator,
    batch_setup,
    build_vectorized_simulator,
    run_vectorized_trials,
)


def _sweep(n, t, **kwargs):
    """``run_vectorized_trials``' rows with the statistics ``run_sweep`` reports."""
    return TrialsResult(AgreementExperiment(n=n, t=t), run_vectorized_trials(n, t, **kwargs))


def _simulator(n=64, t=8, adversary="coin-attack", las_vegas=True, alpha=4.0):
    params = ProtocolParameters.derive(n, t, alpha)
    return VectorizedAgreementSimulator(
        n=n, t=t, params=params, adversary=adversary, las_vegas=las_vegas,
        max_phases=default_max_rounds("committee-ba-las-vegas", n, t) // 2,
    )


class TestVectorizedEngine:
    def test_unanimous_inputs_decide_fast_and_valid(self):
        simulator = _simulator(adversary="null")
        streams = TrialStreams.of([np.random.default_rng(0)])
        result = simulator.run(np.ones(64, dtype=np.int8), streams)
        assert result.agreement and result.validity
        assert result.decision == 1
        assert result.phases <= 2

    def test_split_inputs_agree_under_attack(self):
        simulator = _simulator()
        for seed in range(5):
            streams = TrialStreams.of([np.random.default_rng(seed)])
            result = simulator.run(np.array([0] * 32 + [1] * 32, dtype=np.int8), streams)
            assert result.agreement
            assert result.corrupted <= 8

    def test_rounds_grow_with_budget(self):
        small = _sweep(256, 5, trials=5, seed=1)
        large = _sweep(256, 40, trials=5, seed=1)
        assert large.mean_rounds > small.mean_rounds

    def test_adversary_mode_validation(self):
        with pytest.raises(ConfigurationError):
            _simulator(adversary="nonsense")
        with pytest.raises(ConfigurationError):
            run_vectorized_trials(64, 8, protocol="phase-king")
        with pytest.raises(ConfigurationError):
            run_vectorized_trials(64, 8, trials=0)
        with pytest.raises(ConfigurationError):
            run_vectorized_trials(64, 8, inputs="diagonal")
        # Params derived for another n, or for a declared t below the budget.
        for other in (ProtocolParameters.derive(70, 8), ProtocolParameters.derive(64, 4)):
            with pytest.raises(ConfigurationError, match="params were derived"):
                run_vectorized_trials(64, 8, params=other)

    def test_input_shape_validated(self):
        simulator = _simulator()
        with pytest.raises(ConfigurationError):
            simulator.run(np.zeros(10, dtype=np.int8), TrialStreams(0, 0, 1))
        with pytest.raises(ConfigurationError):
            simulator.run(np.zeros(64, dtype=np.int8), TrialStreams(0, 0, 2))

    def test_bounded_variant_stops_at_schedule(self):
        params = ProtocolParameters.derive(64, 8)
        simulator = VectorizedAgreementSimulator(n=64, t=8, params=params,
                                                 adversary="coin-attack", las_vegas=False,
                                                 max_phases=params.num_phases)
        streams = TrialStreams.of([np.random.default_rng(3)])
        result = simulator.run(np.array([0] * 32 + [1] * 32, dtype=np.int8), streams)
        assert result.phases <= params.num_phases
        assert result.rounds == 2 * result.phases

    @pytest.mark.parametrize(
        "protocol", [name for name, (_, las_vegas) in PHASE_PROTOCOLS.items() if las_vegas]
    )
    @pytest.mark.parametrize("n,t", [(13, 3), (256, 85), (2000, 250)])
    def test_las_vegas_cap_is_the_object_runners(self, protocol, n, t):
        # One cap per protocol: both families time out at the same phase.
        simulator = build_vectorized_simulator(n, t, protocol=protocol, adversary="null")
        assert simulator.max_phases == default_max_rounds(protocol, n, t) // 2

    def test_params_override_reaches_the_vectorized_engine(self):
        # E3's shape: committee geometry derived for a larger declared t than
        # the attack budget actually handed to the adversary.
        params = ProtocolParameters.derive(64, 16)
        capped = run_vectorized_trials(64, 4, adversary="coin-attack", trials=5,
                                       seed=9, params=params)
        assert max(row.corrupted for row in capped) <= 4
        assert capped != run_vectorized_trials(64, 4, adversary="coin-attack",
                                               trials=5, seed=9)

    @pytest.mark.parametrize("batch", [True, False], ids=["batched", "single-trial"])
    @pytest.mark.parametrize("protocol", ["committee-ba", "committee-ba-las-vegas"])
    def test_quorums_follow_the_declared_t_and_not_the_budget(self, protocol, batch):
        # The null kernel spends nothing, so a budget below the declared
        # bound must change nothing: decide and adopt quorums are params.t's.
        kwargs = dict(protocol=protocol, adversary="null", inputs="random", trials=32,
                      seed=1, params=ProtocolParameters.derive(16, 5), batch=batch)
        assert run_vectorized_trials(16, 0, **kwargs) == run_vectorized_trials(16, 5, **kwargs)

    def test_message_counts_scale_with_n_squared(self):
        small = _sweep(64, 4, trials=3, seed=0, adversary="null", inputs="unanimous-1")
        large = _sweep(256, 4, trials=3, seed=0, adversary="null", inputs="unanimous-1")
        assert large.mean_messages > 10 * small.mean_messages


class TestCrossValidation:
    def test_matches_object_simulator_on_failure_free_unanimous_runs(self):
        vec = _sweep(32, 5, adversary="null", inputs="unanimous-1",
                     trials=3, seed=0, protocol="committee-ba-las-vegas")
        obj = run_trials(
            AgreementExperiment(n=32, t=5, protocol="committee-ba-las-vegas",
                                adversary="null", inputs="unanimous-1"),
            num_trials=3, base_seed=0,
        )
        assert vec.agreement_rate == obj.agreement_rate == 1.0
        assert vec.mean_rounds == pytest.approx(obj.mean_rounds, abs=2.0)

    def test_statistically_consistent_with_object_simulator_under_attack(self):
        # Same protocol, same adversary strategy, independent randomness: the
        # mean number of phases should agree within a generous tolerance.
        n, t, trials = 48, 8, 12
        vec = _sweep(n, t, adversary="coin-attack", inputs="split",
                     trials=trials, seed=3, protocol="committee-ba-las-vegas")
        obj = run_trials(
            AgreementExperiment(n=n, t=t, protocol="committee-ba-las-vegas",
                                adversary="coin-attack", inputs="split"),
            num_trials=trials, base_seed=3,
        )
        assert vec.agreement_rate == obj.agreement_rate == 1.0
        assert vec.mean_phases == pytest.approx(obj.mean_phases, rel=0.6, abs=4.0)

    def test_chor_coan_geometry_used_when_requested(self):
        ours = _sweep(1024, 24, protocol="committee-ba-las-vegas", trials=4, seed=2)
        chor_coan = _sweep(1024, 24, protocol="chor-coan-las-vegas", trials=4, seed=2)
        # Larger committees make each straddle more expensive, so the paper's
        # protocol should finish in no more rounds than Chor-Coan here.
        assert ours.mean_rounds <= chor_coan.mean_rounds + 2


def _batched_and_single_trial(simulator, inputs, trials, seed):
    """``run_batch`` on one batch's streams vs ``run`` on each trial's own row."""
    input_rows, streams = batch_setup(simulator.n, inputs, trials, seed)
    batched = simulator.run_batch(input_rows, streams)
    single = []
    for k in range(trials):
        row = TrialStreams(seed, k, 1)
        if inputs == "random":
            # The reference draws the input row through the trial's generator.
            input_bits = row[0].integers(0, 2, size=simulator.n).astype(np.int8)
        else:
            input_bits = input_row(simulator.n, inputs)
        single.append(simulator.run(input_bits, row))
    return batched, single


class TestBatchSetup:
    @pytest.mark.parametrize("trials", [3, VECTOR_MIN_ROWS + 2])
    def test_random_inputs_keep_every_row_on_its_cursor(self, trials, native_kernel):
        # Row k is trial k's integers(0, 2, size=n), drawn as one bit draw:
        # natively at any row count, else by the NumPy pass from
        # VECTOR_MIN_ROWS rows up, no row turns into a generator, so later
        # draws can take the cursor paths.  Below that without the native
        # draws, the rows draw through their generators.
        n = 33
        rows, streams = batch_setup(n, "random", trials, 5, trial_offset=2)
        assert rows.dtype == np.int8 and rows.shape == (trials, n)
        cursors = native_kernel == "native" or trials >= VECTOR_MIN_ROWS
        assert [streams.claim_raw(k, 0) is not None for k in range(trials)] == [cursors] * trials
        counts = np.arange(trials) % 4
        bits = streams.draw_bits(counts)
        expected_bits = []
        for k in range(trials):
            generator = trial_generator(5, 2 + k)
            assert np.array_equal(rows[k], generator.integers(0, 2, size=n))
            expected_bits.append(generator.integers(0, 2, size=counts[k]))
        assert np.array_equal(bits, np.concatenate(expected_bits))


class TestBatchedEngine:
    """The 2-D (B, n) batched path against the 1-D reference path."""

    @pytest.mark.parametrize("protocol", ["committee-ba", "committee-ba-las-vegas",
                                          "chor-coan", "chor-coan-las-vegas"])
    @pytest.mark.parametrize("adversary", ["null", "coin-attack"])
    def test_bit_identical_to_single_trial_runs_on_fixed_philox_keys(
        self, protocol, adversary
    ):
        simulator = build_vectorized_simulator(96, 18, protocol=protocol, adversary=adversary)
        for inputs in ("split", "random", "unanimous-0", "unanimous-1"):
            batched, single = _batched_and_single_trial(simulator, inputs, trials=6, seed=42)
            assert batched == single, inputs

    @pytest.mark.parametrize("adversary", ["null", "coin-attack"])
    def test_vector_share_draws_match_single_trial_runs(self, adversary):
        # Enough cursor rows for the vectorised share pass; under coin-attack,
        # compaction later drops the batch below the crossover, so rows
        # become generators mid-stream.
        simulator = build_vectorized_simulator(48, 8, adversary=adversary)
        batched, single = _batched_and_single_trial(
            simulator, "split", trials=VECTOR_MIN_ROWS + 16, seed=7
        )
        assert batched == single
        looped = run_vectorized_trials(48, 8, adversary=adversary,
                                       trials=VECTOR_MIN_ROWS + 16, seed=7, batch=False)
        assert looped == batched

    def test_bit_identity_holds_for_every_batched_adversary(self):
        # The null/coin-attack identity is against the untouched seed path;
        # the other adversaries run through run_batch either way, so this checks
        # batch-size independence (B=1 vs B=6) instead.
        for adversary in ADVERSARY_PLANE_KERNELS:
            batched = run_vectorized_trials(48, 8, adversary=adversary,
                                            trials=6, seed=9, batch=True)
            single = run_vectorized_trials(48, 8, adversary=adversary,
                                           trials=6, seed=9, batch=False)
            assert batched == single, adversary

    def test_run_batch_validates_shapes(self):
        simulator = _simulator(n=32, t=5)
        streams = TrialStreams(0, 0, 3)
        with pytest.raises(ConfigurationError):
            simulator.run_batch(np.zeros((3, 16), dtype=np.int8), streams)
        with pytest.raises(ConfigurationError):
            simulator.run_batch(np.zeros((2, 32), dtype=np.int8), streams)
        assert simulator.run_batch(np.zeros((0, 32), dtype=np.int8), TrialStreams(0, 0, 0)) == []

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ConfigurationError):
            _simulator(adversary="jam-everything")


class TestNewAdversaries:
    """Vectorised silent/crash/random-noise against the object simulator."""

    @pytest.mark.parametrize("adversary", ["silent", "crash", "random-noise"])
    def test_statistically_consistent_with_object_simulator(self, adversary):
        n, t, trials = 48, 8, 12
        vec = _sweep(n, t, adversary=adversary, inputs="split",
                     trials=trials, seed=5, protocol="committee-ba-las-vegas")
        obj = run_trials(
            AgreementExperiment(n=n, t=t, protocol="committee-ba-las-vegas",
                                adversary=adversary, inputs="split"),
            num_trials=trials, base_seed=5,
        )
        assert vec.agreement_rate == obj.agreement_rate == 1.0
        assert vec.validity_rate == obj.validity_rate == 1.0
        assert vec.mean_phases == pytest.approx(obj.mean_phases, rel=0.6, abs=4.0)

    @pytest.mark.parametrize("adversary", ["silent", "crash", "random-noise"])
    @pytest.mark.parametrize("inputs", ["unanimous-0", "unanimous-1"])
    def test_unanimous_inputs_decide_immediately_and_validly(self, adversary, inputs):
        aggregate = _sweep(48, 8, adversary=adversary, inputs=inputs, trials=8, seed=2)
        assert aggregate.agreement_rate == 1.0
        assert aggregate.validity_rate == 1.0
        assert aggregate.mean_phases <= 3.0
        expected = 0 if inputs == "unanimous-0" else 1
        assert all(result.decision == expected for result in aggregate.trials)

    def test_silent_matches_object_simulator_round_counts_exactly(self):
        # With the first t nodes silenced every honest node sees the same
        # failure-free residual network, so the phase count is deterministic.
        vec = _sweep(48, 8, adversary="silent", inputs="split", trials=4, seed=3)
        obj = run_trials(
            AgreementExperiment(n=48, t=8, protocol="committee-ba-las-vegas",
                                adversary="silent", inputs="split"),
            num_trials=4, base_seed=3,
        )
        assert vec.mean_phases == obj.mean_phases
        assert vec.mean_corrupted == obj.mean_corrupted == 8.0

    def test_crash_straddles_are_costlier_than_byzantine_straddles(self):
        # Crashing only removes shares, so the same budget buys fewer spoiled
        # phases than the Byzantine straddle: crash must not exceed straddle.
        crash = _sweep(96, 18, adversary="crash", inputs="split", trials=10, seed=7)
        straddle = _sweep(96, 18, adversary="coin-attack", inputs="split", trials=10, seed=7)
        assert crash.mean_phases <= straddle.mean_phases + 1.0

    def test_random_noise_keeps_all_noisy_nodes_corrupted(self):
        rows = run_vectorized_trials(48, 8, adversary="random-noise",
                                     inputs="split", trials=6, seed=4)
        assert all(result.corrupted == 8 for result in rows)
