"""Tests for the unified hook-driven PhaseEngine and the closed fast-path matrix.

Four layers:

* engine-unification checks — the three legacy committee batch loops are
  gone (one :class:`~repro.simulator.phase_engine.PhaseEngine` path serves
  every behaviour) and live-trial compaction never changes results;
* cross-validation of every *newly* vectorised ``(protocol, adversary)``
  pair against the object simulator — exact (field-by-field summary
  equality) where the kernel's fault model is deterministic, statistical
  elsewhere, and bit-level no-op proofs for the inapplicable pairs;
* the sharding contracts — ``trial_offset`` sub-batches of the coin
  Monte-Carlo concatenate bit-identically (the protocol kernels' contract is
  ``tests/test_engine.py::TestKernelContract``), and ``workers > 1``
  sharding matches in-process execution on the new pairs;
* :meth:`repro.core.runner.TrialsResult.merge` edge cases and the shared
  input-pattern module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.kernels import run_coin_trials
from repro.core.inputs import INPUT_PATTERNS, input_list, input_row
from repro.core.runner import (
    AgreementExperiment,
    TrialsResult,
    TrialSummary,
)
from repro.engine import run_sweep
from repro.exceptions import ConfigurationError
from repro.simulator import phase_engine
from repro.simulator.draws import VECTOR_MIN_ROWS, TrialStreams
from repro.simulator.phase_engine import PhaseEngine
from repro.simulator.rng import RandomnessSource
from repro.simulator.vectorized import (
    VectorizedAgreementSimulator,
    batch_setup,
    trial_generator,
)


def _sweep(protocol, adversary, n, t, engine, trials, seed=11, **kwargs):
    experiment = AgreementExperiment(
        n=n, t=t, protocol=protocol, adversary=adversary, inputs="split", **kwargs
    )
    return run_sweep(experiment=experiment, trials=trials, base_seed=seed, engine=engine)


# ----------------------------------------------------------------------
# Engine unification
# ----------------------------------------------------------------------
class TestUnifiedEngine:
    def test_legacy_committee_batch_loops_are_gone(self):
        # The refactor's acceptance bar: a single hook-driven PhaseEngine
        # path, no per-behaviour loops left on the committee engine.
        for legacy in ("_run_batch_uniform", "_run_batch_noise", "_run_batch_planes"):
            assert not hasattr(VectorizedAgreementSimulator, legacy)

    @pytest.mark.parametrize("adversary", ["coin-attack", "random-noise", "equivocate"])
    def test_compaction_never_changes_results(self, adversary, monkeypatch):
        # Cursor streams above the vector-draw crossover, with and without
        # compaction, against the same trials drawing every share through
        # their own generators.  Under coin-attack, compaction drops the batch
        # below the crossover mid-run; random-noise rows become generators
        # at their first binomial draw.  A zero threshold never compacts.
        from repro.adversary.kernels import build_adversary_kernel
        from repro.core.parameters import ProtocolParameters

        n, t, trials = 48, 8, VECTOR_MIN_ROWS + 8
        params = ProtocolParameters.derive(n, t)
        inputs = np.tile(input_row(n, "split"), (trials, 1))
        runs = {
            "compacted": (phase_engine._COMPACTION_THRESHOLD, TrialStreams(3, 0, trials)),
            "uncompacted": (0, TrialStreams(3, 0, trials)),
            "generators": (
                phase_engine._COMPACTION_THRESHOLD,
                TrialStreams.of([trial_generator(3, k) for k in range(trials)]),
            ),
        }
        results = {}
        for name, (threshold, streams) in runs.items():
            monkeypatch.setattr(phase_engine, "_COMPACTION_THRESHOLD", threshold)
            engine = PhaseEngine(
                n=n, t=t, params=params, coin="committee", las_vegas=True,
                max_phases=400,
            )
            kernel = build_adversary_kernel(adversary, n=n, t=t, params=params)
            results[name] = engine.run_batch(inputs, streams, kernel)
        for field in ("output", "corrupted", "messages", "phases", "timed_out"):
            for name in ("uncompacted", "generators"):
                assert np.array_equal(results["compacted"][field], results[name][field]), (
                    name, field,
                )

    def test_run_batch_takes_only_trial_streams(self):
        from repro.adversary.kernels import build_adversary_kernel
        from repro.core.parameters import ProtocolParameters

        params = ProtocolParameters.derive(16, 3)
        engine = PhaseEngine(n=16, t=3, params=params, coin="committee",
                             las_vegas=True, max_phases=40)
        kernel = build_adversary_kernel("null", n=16, t=3, params=params)
        with pytest.raises(TypeError):
            engine.run_batch(np.zeros((1, 16), dtype=np.int8), [trial_generator(0, 0)], kernel)

    def test_rejects_unknown_coin_and_missing_dealer_seeds(self):
        from repro.core.parameters import ProtocolParameters

        params = ProtocolParameters.derive(32, 5)
        with pytest.raises(ConfigurationError):
            PhaseEngine(n=32, t=5, params=params, coin="quantum",
                        las_vegas=False, max_phases=4)
        with pytest.raises(ConfigurationError):
            PhaseEngine(n=32, t=5, params=params, coin="dealer",
                        las_vegas=False, max_phases=4)


# ----------------------------------------------------------------------
# Cross-validation of the newly vectorized pairs
# ----------------------------------------------------------------------
#: (protocol, adversary, n, t, trials, extra experiment kwargs).  These pairs
#: have a deterministic fault model on a protocol whose only randomness the
#: kernel replays exactly, so every aggregate field matches the object
#: simulator bit for bit.
EXACT_PAIRS = [
    ("rabin", "static", 25, 6, 4, {}),
    ("rabin", "equivocate", 25, 6, 4, {}),
    ("rabin", "committee-targeting", 25, 6, 4, {}),
    ("phase-king", "equivocate", 21, 5, 4, {}),
    ("phase-king", "committee-targeting", 21, 5, 4, {}),
    ("phase-king", "equivocate", 13, 3, 3, {}),
    ("eig", "random-noise", 10, 2, 3, {}),
    ("eig", "random-noise", 13, 2, 3, {}),
]

#: Pairs whose kernels consume randomness differently from the object nodes'
#: per-node streams: rates and means must agree, not bit patterns.
STATISTICAL_PAIRS = [
    ("rabin", "random-noise", 25, 6, 6, {}),
    ("rabin", "crash", 25, 6, 8, {}),
    ("phase-king", "random-noise", 21, 5, 6, {}),
    ("sampling-majority", "static", 32, 2, 4, {}),
    ("sampling-majority", "random-noise", 32, 2, 4, {}),
    ("sampling-majority", "equivocate", 32, 2, 4, {}),
]

#: Ben-Or pairs run censored (its expected round count is exponential); both
#: engines must censor identically and agree on corruption spending.
CENSORED_PAIRS = [
    ("ben-or", "static", 25, 2, 3),
    ("ben-or", "equivocate", 25, 2, 3),
    ("ben-or", "random-noise", 25, 2, 3),
    ("ben-or", "coin-attack", 25, 2, 3),
    ("ben-or", "crash", 25, 2, 3),
    ("ben-or", "committee-targeting", 25, 2, 3),
]

#: Inapplicable pairs: the strategy has no lever on the protocol (no shares
#: to straddle or crash, no distinguished node to target), so its object
#: implementation provably no-ops and the fast path runs the exact
#: failure-free behaviour.
INAPPLICABLE_PAIRS = [
    ("phase-king", "coin-attack", 21, 5),
    ("phase-king", "crash", 21, 5),
    ("eig", "coin-attack", 10, 2),
    ("eig", "crash", 10, 2),
    ("eig", "committee-targeting", 10, 2),
    ("sampling-majority", "coin-attack", 32, 2),
    ("sampling-majority", "crash", 32, 2),
    ("sampling-majority", "committee-targeting", 32, 2),
]


class TestNewPairCrossValidation:
    @pytest.mark.parametrize("protocol,adversary,n,t,trials,kwargs", EXACT_PAIRS)
    def test_deterministic_fault_models_are_exact(self, protocol, adversary, n, t,
                                                  trials, kwargs):
        fast = _sweep(protocol, adversary, n, t, "vectorized", trials, **kwargs)
        slow = _sweep(protocol, adversary, n, t, "object", trials, **kwargs)
        assert fast.engine == "vectorized" and slow.engine == "object"
        assert fast.summary() == slow.summary()

    @pytest.mark.parametrize("protocol,adversary,n,t,trials,kwargs", STATISTICAL_PAIRS)
    def test_sampled_fault_models_are_statistically_consistent(
        self, protocol, adversary, n, t, trials, kwargs
    ):
        fast = _sweep(protocol, adversary, n, t, "vectorized", trials, **kwargs)
        slow = _sweep(protocol, adversary, n, t, "object", trials, **kwargs)
        assert fast.agreement_rate == slow.agreement_rate == 1.0
        assert fast.validity_rate == slow.validity_rate == 1.0
        assert fast.mean_phases == pytest.approx(slow.mean_phases, rel=0.6, abs=4.0)
        assert fast.mean_corrupted == pytest.approx(slow.mean_corrupted, rel=0.5, abs=2.0)
        assert fast.mean_messages == pytest.approx(slow.mean_messages, rel=0.25)

    @pytest.mark.parametrize("protocol,adversary,n,t,trials", CENSORED_PAIRS)
    def test_censored_ben_or_pairs_agree_on_spending_and_volume(
        self, protocol, adversary, n, t, trials
    ):
        kwargs = {"max_rounds": 80, "allow_timeout": True}
        fast = _sweep(protocol, adversary, n, t, "vectorized", trials, **kwargs)
        slow = _sweep(protocol, adversary, n, t, "object", trials, **kwargs)
        # Both engines censor at the cap (Ben-Or at linear t cannot finish
        # this quickly except with negligible probability).
        assert fast.timeout_rate == slow.timeout_rate == 1.0
        assert fast.mean_phases == slow.mean_phases == 40.0
        assert fast.mean_corrupted == pytest.approx(slow.mean_corrupted, abs=2.0)
        assert fast.mean_messages == pytest.approx(slow.mean_messages, rel=0.25)

    @pytest.mark.parametrize("protocol,adversary,n,t", INAPPLICABLE_PAIRS)
    def test_inapplicable_strategies_no_op_in_the_object_simulator(
        self, protocol, adversary, n, t
    ):
        # The no-op proof: the object run under the "attack" is bit-identical
        # to the object run under the null adversary (same seeds, zero
        # corruptions, same traffic) — which is exactly what the fast path's
        # dispatch to the failure-free behaviour assumes.
        attacked = _sweep(protocol, adversary, n, t, "object", 3)
        null = _sweep(protocol, "null", n, t, "object", 3)
        assert attacked.mean_corrupted == 0.0
        assert [s.__dict__ for s in attacked.trials] == [s.__dict__ for s in null.trials]
        fast = _sweep(protocol, adversary, n, t, "vectorized", 3)
        fast_null = _sweep(protocol, "null", n, t, "vectorized", 3)
        assert fast.engine == "vectorized"
        assert fast.summary() == fast_null.summary()

    def test_king_targeting_silences_exactly_the_budgeted_kings(self):
        # Phase king runs t + 1 phases with kings 0..t; the king-targeting
        # adversary corrupts one king per phase until the budget is gone, so
        # exactly t kings fall and the final (honest-king) phase survives.
        fast = _sweep("phase-king", "committee-targeting", 21, 5, "vectorized", 3)
        assert fast.mean_corrupted == 5.0
        assert fast.agreement_rate == 1.0

    def test_dealer_targeting_spends_sqrt_committee_per_phase(self):
        # Rabin's bookkeeping committee is the whole network, so the
        # non-rushing attack corrupts ceil(sqrt(n)) members per phase until
        # the budget runs out — futile against the public dealer coin.
        fast = _sweep("rabin", "committee-targeting", 25, 6, "vectorized", 3)
        assert fast.agreement_rate == 1.0
        assert fast.mean_corrupted == 6.0  # budget exhausted (5 + 1 across phases)


# ----------------------------------------------------------------------
# Sharding contracts
# ----------------------------------------------------------------------
class TestShardingContracts:
    def test_coin_trials_trial_offset_shards_concatenate_bit_identically(self):
        full = run_coin_trials(64, 4, trials=10, seed=7)
        first = run_coin_trials(64, 4, trials=6, seed=7)
        rest = run_coin_trials(64, 4, trials=4, seed=7, trial_offset=6)
        assert np.array_equal(full.common, np.concatenate([first.common, rest.common]))
        assert np.array_equal(full.values, np.concatenate([first.values, rest.values]))

    def test_coin_trials_rejects_negative_offset(self):
        with pytest.raises(ConfigurationError):
            run_coin_trials(16, 1, trials=2, trial_offset=-1)

    @pytest.mark.parametrize(
        "protocol,adversary,n,t",
        [
            ("phase-king", "committee-targeting", 21, 5),
            ("rabin", "equivocate", 25, 6),
            ("committee-ba-las-vegas", "random-noise", 48, 8),
        ],
    )
    def test_sharded_vectorized_is_bit_identical_on_new_pairs(
        self, traced_sweep, protocol, adversary, n, t
    ):
        serial = _sweep(protocol, adversary, n, t, "vectorized", 6)
        sharded, workers = traced_sweep(
            experiment=AgreementExperiment(n=n, t=t, protocol=protocol,
                                           adversary=adversary, inputs="split"),
            trials=6, base_seed=11, engine="vectorized", workers=2,
        )
        assert workers == 2
        assert [s.__dict__ for s in sharded.trials] == [s.__dict__ for s in serial.trials]


# ----------------------------------------------------------------------
# TrialsResult.merge edge cases
# ----------------------------------------------------------------------
def _summary(seed, *, timed_out=False, validity=True, rounds=6):
    return TrialSummary(
        seed=seed, rounds=rounds, phases=rounds // 2, agreement=True,
        validity=validity, decision=1, messages=100 * rounds, bits=3500 * rounds,
        corrupted=2, timed_out=timed_out,
    )


class TestMergeEdgeCases:
    EXPERIMENT = AgreementExperiment(n=16, t=2)

    def test_merge_of_empty_parts_list_raises(self):
        with pytest.raises(ConfigurationError):
            TrialsResult.merge([])

    def test_merge_of_a_single_part_is_the_identity(self):
        part = TrialsResult(experiment=self.EXPERIMENT,
                            trials=[_summary(0), _summary(1)])
        merged = TrialsResult.merge([part])
        assert merged.experiment == part.experiment
        assert merged.trials == part.trials
        assert merged.summary() == part.summary()

    def test_merge_with_empty_trial_lists_preserves_the_others(self):
        empty = TrialsResult(experiment=self.EXPERIMENT, trials=[])
        part = TrialsResult(experiment=self.EXPERIMENT, trials=[_summary(3)])
        merged = TrialsResult.merge([empty, part, empty])
        assert [s.seed for s in merged.trials] == [3]

    def test_merge_mixed_timeout_and_validity_rates_are_exact(self):
        part1 = TrialsResult(
            experiment=self.EXPERIMENT,
            trials=[_summary(0, timed_out=True, rounds=10), _summary(1)],
        )
        part2 = TrialsResult(
            experiment=self.EXPERIMENT,
            trials=[_summary(2, validity=False), _summary(3, timed_out=True, rounds=20)],
        )
        merged = TrialsResult.merge([part1, part2])
        assert merged.num_trials == 4
        assert merged.timeout_rate == 0.5
        assert merged.validity_rate == 0.75
        assert merged.max_rounds == 20
        assert merged.mean_rounds == pytest.approx((10 + 6 + 6 + 20) / 4)
        # Order is preserved: shard workers hand back contiguous ranges.
        assert [s.seed for s in merged.trials] == [0, 1, 2, 3]

    @pytest.mark.parametrize("engine", ["vectorized", "object"])
    def test_merge_keeps_the_result_family(self, engine):
        parts = [
            run_sweep(experiment=self.EXPERIMENT, trials=2, trial_offset=offset,
                      engine=engine)
            for offset in (0, 2)
        ]
        merged = TrialsResult.merge(parts)
        assert merged.engine == engine
        assert merged.trials == parts[0].trials + parts[1].trials

    def test_merge_of_different_result_families_raises(self):
        vectorized = TrialsResult(experiment=self.EXPERIMENT, trials=[_summary(0)],
                                  engine="vectorized")
        object_part = TrialsResult(experiment=self.EXPERIMENT, trials=[_summary(1)])
        with pytest.raises(ConfigurationError, match="different result families"):
            TrialsResult.merge([vectorized, object_part])


# ----------------------------------------------------------------------
# Shared input-pattern module
# ----------------------------------------------------------------------
class TestSharedInputPatterns:
    @pytest.mark.parametrize("pattern", INPUT_PATTERNS)
    def test_object_and_plane_dtypes_agree_on_deterministic_patterns(self, pattern):
        n = 13
        randomness = RandomnessSource(0)
        as_list = input_list(n, pattern, randomness)
        (as_row,), _ = batch_setup(n, pattern, 1, 0)
        assert as_row.dtype == np.int8
        assert len(as_list) == n and as_row.shape == (n,)
        assert set(as_list) <= {0, 1} and set(as_row.tolist()) <= {0, 1}
        if pattern != "random":
            assert as_list == as_row.tolist()

    def test_split_puts_ones_in_the_upper_half(self):
        assert input_list(6, "split", RandomnessSource(0)) == [0, 0, 0, 1, 1, 1]
        assert input_row(7, "split").tolist() == [0, 0, 0, 1, 1, 1, 1]

    def test_unknown_patterns_are_rejected(self):
        with pytest.raises(ConfigurationError):
            input_list(3, "diagonal", RandomnessSource(0))
        with pytest.raises(ConfigurationError):
            input_row(3, "diagonal")

    def test_random_rows_consume_only_the_trial_generator(self):
        # Same key -> same row; the deterministic patterns leave the stream
        # untouched (the committee engine's bit-identity contract).
        row_a, _ = batch_setup(32, "random", 1, 5, trial_offset=1)
        row_b, _ = batch_setup(32, "random", 1, 5, trial_offset=1)
        assert np.array_equal(row_a, row_b)
        _, streams = batch_setup(32, "split", 1, 5, trial_offset=2)
        untouched = streams[0].integers(0, 2, size=4)
        assert np.array_equal(untouched, trial_generator(5, 2).integers(0, 2, size=4))
