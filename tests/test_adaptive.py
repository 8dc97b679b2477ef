"""Tests for adaptive precision-targeted sweep execution.

Covers the acceptance surfaces of :mod:`repro.sweeps.adaptive`:

* the reproducibility contract — accumulated adaptive results are
  bit-identical to a one-shot ``run_sweep`` of the same total, and an
  interrupted run (batch limit, or a kill that tears a store line) resumed
  later lands on the identical batch sequence and estimates;
* merge invariance over arbitrary ``trial_offset`` batch splits
  (hypothesis property tests: reassembly, associativity, permutation);
* the stopping rule (targets resolution, spec validation, canonical-text
  backward compatibility) and the store's trials-independent adaptive keys;
* the ``repro sweep`` CLI in adaptive mode.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.runner import TrialsResult
from repro.engine import run_sweep
from repro.exceptions import ConfigurationError
from repro.sweeps import (
    SWEEP_LIBRARY,
    PrecisionTargets,
    ResultsStore,
    SweepSpec,
    adaptive_key,
    adaptive_plan_table,
    adaptive_report_rows,
    adaptive_status,
    estimate_point,
    point_key,
    resolve_targets,
    result_from_record,
    run_adaptive,
    run_spec,
    spec_keys,
)

#: A tiny adaptive grid: 2 vectorizable points that converge in a few batches.
TINY_ADAPTIVE = SweepSpec(
    name="tiny-adaptive",
    description="two-point adaptive grid for tests",
    protocols=("committee-ba-las-vegas",),
    adversaries=("coin-attack",),
    inputs=("split",),
    n_values=(64,),
    t_specs=(4, 6),
    trials=4,
    seed_policy="by-t",
    base_seed=77,
    precision=0.2,
    batch_size=4,
    max_trials=64,
)


def trial_tuples(result: TrialsResult) -> list[tuple]:
    """Per-trial scalar rows, for exact (bit-identical) comparison."""
    return [tuple(summary) for summary in result.trials]


class TestSpecAdaptiveFields:
    def test_adaptive_block_round_trips_through_canonical_json(self):
        rebuilt = SweepSpec.from_mapping(json.loads(TINY_ADAPTIVE.to_json()))
        assert rebuilt == TINY_ADAPTIVE
        assert rebuilt.precision == 0.2
        assert rebuilt.batch_size == 4
        assert rebuilt.max_trials == 64
        assert rebuilt.adaptive

    def test_non_adaptive_spec_canonical_text_is_unchanged(self):
        # Backward compatibility: specs without a precision target must
        # canonicalise exactly as before the adaptive fields existed, so
        # every pre-existing store key stays valid.
        spec = dataclasses.replace(
            TINY_ADAPTIVE, precision=None, batch_size=None, max_trials=None
        )
        assert not spec.adaptive
        assert "adaptive" not in spec.canonical()
        assert '"adaptive":' not in spec.to_json()

    def test_precision_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigurationError):
                dataclasses.replace(TINY_ADAPTIVE, precision=bad)

    def test_batch_and_ceiling_require_a_precision_target(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TINY_ADAPTIVE, precision=None, max_trials=None)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TINY_ADAPTIVE, precision=None, batch_size=None)

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="batch_size"):
            dataclasses.replace(TINY_ADAPTIVE, batch_size=0)

    def test_ceiling_must_cover_the_initial_batch(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TINY_ADAPTIVE, max_trials=2)

    def test_canonical_base_drops_only_the_trial_count(self):
        point = TINY_ADAPTIVE.expand()[0]
        base = point.canonical_base()
        full = point.canonical()
        assert "trials" not in base
        assert {**base, "trials": point.trials} == full


class TestTargetsResolution:
    def test_spec_fields_are_the_default(self):
        targets = resolve_targets(TINY_ADAPTIVE)
        assert targets == PrecisionTargets(
            precision=0.2, batch_size=4, max_trials=64
        )

    def test_defaults_derive_from_the_initial_trials(self):
        spec = dataclasses.replace(
            TINY_ADAPTIVE, precision=0.25, batch_size=None, max_trials=None
        )
        targets = resolve_targets(spec)
        assert targets.batch_size == spec.trials
        assert targets.max_trials == 64 * spec.trials

    def test_missing_precision_is_a_helpful_error(self):
        spec = dataclasses.replace(
            TINY_ADAPTIVE, precision=None, batch_size=None, max_trials=None
        )
        with pytest.raises(ConfigurationError, match="no precision target"):
            resolve_targets(spec)

    def test_ceiling_below_initial_trials_rejected(self):
        # The spec checks a ceiling it sets; the default of 64 batches of one
        # trial falls short of 100 initial trials.
        spec = dataclasses.replace(
            TINY_ADAPTIVE, trials=100, batch_size=1, max_trials=None
        )
        with pytest.raises(ConfigurationError, match="max_trials"):
            resolve_targets(spec)


class TestAdaptiveKeys:
    def test_key_is_independent_of_the_trial_count(self):
        point = TINY_ADAPTIVE.expand()[0]
        grown = dataclasses.replace(point, trials=123)
        assert adaptive_key(point, "vectorized") == adaptive_key(grown, "vectorized")
        # ... but still sensitive to every other field and the family.
        other_t = dataclasses.replace(point, t=point.t + 1)
        assert adaptive_key(point, "vectorized") != adaptive_key(other_t, "vectorized")
        assert adaptive_key(point, "vectorized") != adaptive_key(point, "object")

    def test_adaptive_and_uniform_keys_never_collide(self):
        point = TINY_ADAPTIVE.expand()[0]
        assert adaptive_key(point, "vectorized") != point_key(point, "vectorized")

    def test_key_requires_a_result_family(self):
        point = TINY_ADAPTIVE.expand()[0]
        with pytest.raises(ConfigurationError):
            adaptive_key(point, "vectorized-mp")

    def test_spec_expansion_pairs_points_with_keys(self):
        pairs = spec_keys(TINY_ADAPTIVE, key=adaptive_key)
        assert [point.t for point, _ in pairs] == [4, 6]
        assert len({key for _, key in pairs}) == len(pairs)


class TestBitIdentity:
    def test_accumulated_result_equals_one_shot_run(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        report = run_adaptive(TINY_ADAPTIVE, store=store)
        assert report.converged == report.total == 2
        for state in report.states:
            one_shot = run_sweep(
                experiment=state.point.experiment(),
                trials=state.result.num_trials,
                base_seed=state.point.base_seed,
                engine=TINY_ADAPTIVE.engine,
            )
            assert trial_tuples(state.result) == trial_tuples(one_shot)

    def test_store_record_reconstructs_the_accumulated_result(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        report = run_adaptive(TINY_ADAPTIVE, store=store)
        for state in report.states:
            record = store.get(state.key)
            assert record["kind"] == "adaptive-point"
            assert record["adaptive"]["precision"] == 0.2
            assert record["adaptive"]["initial_trials"] == TINY_ADAPTIVE.trials
            rebuilt = result_from_record(record)
            assert trial_tuples(rebuilt) == trial_tuples(state.result)
            # The record survives a fresh store open (JSONL is the truth).
            reopened = ResultsStore(tmp_path / "store")
            assert trial_tuples(result_from_record(reopened.get(state.key))) == (
                trial_tuples(state.result)
            )

    def test_batch_trajectory_is_preserved_in_the_shards(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        report = run_adaptive(TINY_ADAPTIVE, store=store)
        # One shard line per executed batch: the append-only trajectory.
        assert store.appended_lines == report.computed_batches


class TestResume:
    def test_second_invocation_computes_nothing(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        first = run_adaptive(TINY_ADAPTIVE, store=store)
        second = run_adaptive(TINY_ADAPTIVE, store=store)
        assert second.computed_trials == 0
        assert second.computed_batches == 0
        assert "+0 computed" in second.summary_line()
        assert [e.trials for e in second.estimates] == [
            e.trials for e in first.estimates
        ]

    def test_interrupted_run_resumes_to_identical_estimates(self, tmp_path):
        uninterrupted = run_adaptive(
            TINY_ADAPTIVE, store=ResultsStore(tmp_path / "full")
        )
        store = ResultsStore(tmp_path / "split")
        for batch_limit in (1, 2):
            partial = run_adaptive(TINY_ADAPTIVE, store=store, limit=batch_limit)
            assert partial.computed_batches <= batch_limit
        resumed = run_adaptive(TINY_ADAPTIVE, store=ResultsStore(tmp_path / "split"))
        assert [e.trials for e in resumed.estimates] == [
            e.trials for e in uninterrupted.estimates
        ]
        for res, unint in zip(resumed.states, uninterrupted.states):
            assert trial_tuples(res.result) == trial_tuples(unint.result)

    def test_records_naming_a_sharded_family_resume_in_that_family(self, tmp_path):
        # Records written before the sharded families were folded into their
        # result families say "vectorized-mp"; their points still merge new
        # batches instead of failing the family check.
        uninterrupted = run_adaptive(TINY_ADAPTIVE, store=ResultsStore(tmp_path / "full"))
        store = ResultsStore(tmp_path / "legacy")
        partial = run_adaptive(TINY_ADAPTIVE, store=store, limit=1)
        for state in partial.states:
            if state.record is not None:
                store.put(state.key, {**state.record, "engine": "vectorized-mp"})
        resumed = run_adaptive(TINY_ADAPTIVE, store=ResultsStore(tmp_path / "legacy"))
        assert {state.result.engine for state in resumed.states} == {"vectorized"}
        for res, unint in zip(resumed.states, uninterrupted.states):
            assert trial_tuples(res.result) == trial_tuples(unint.result)

    def test_negative_limit_is_rejected_and_zero_computes_nothing(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(ConfigurationError, match="limit must be >= 0"):
            run_adaptive(TINY_ADAPTIVE, store=store, limit=-1)
        assert len(store) == 0
        idle = run_adaptive(TINY_ADAPTIVE, store=store, limit=0)
        assert idle.computed_batches == idle.computed_trials == 0
        assert len(store) == 0

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected_before_anything_runs(self, tmp_path, workers):
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            run_adaptive(TINY_ADAPTIVE, store=store, workers=workers)
        assert len(store) == 0

    def test_kill_mid_write_with_torn_line_recomputes_only_that_batch(
        self, tmp_path
    ):
        uninterrupted = run_adaptive(
            TINY_ADAPTIVE, store=ResultsStore(tmp_path / "full")
        )
        # Interrupt after 3 batches, then emulate a kill mid-append: a torn
        # (truncated JSON) final line on one point's shard.
        store_root = tmp_path / "torn"
        partial = run_adaptive(TINY_ADAPTIVE, store=ResultsStore(store_root), limit=3)
        durable = {
            state.key: state.trials
            for state in partial.states
            if state.result is not None
        }
        victim = partial.states[0]
        shard = store_root / f"shard-{victim.key[:2]}.jsonl"
        with shard.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "' + victim.key + '", "kind": "adaptive-po')
        # The torn line is skipped on load: the in-flight batch was never
        # acknowledged, so the durable state is exactly the 3-batch prefix.
        reopened = ResultsStore(store_root)
        assert trial_tuples(result_from_record(reopened.get(victim.key))) == (
            trial_tuples(victim.result)
        )
        resumed = run_adaptive(TINY_ADAPTIVE, store=reopened)
        # No recomputation beyond what was not yet durable...
        assert resumed.computed_trials == (
            uninterrupted.computed_trials - sum(durable.values())
        )
        # ... and the final estimates are bit-identical to the
        # uninterrupted run.
        for res, unint in zip(resumed.states, uninterrupted.states):
            assert trial_tuples(res.result) == trial_tuples(unint.result)
        for res, unint in zip(resumed.estimates, uninterrupted.estimates):
            assert res.width == unint.width
            assert res.converged and unint.converged

    def test_uniform_executor_rejects_adaptive_specs(self, tmp_path):
        with pytest.raises(ConfigurationError, match="adaptive"):
            run_spec(TINY_ADAPTIVE, store=ResultsStore(tmp_path / "store"))


class TestAllocationPolicy:
    def test_progress_reports_every_batch_in_allocation_order(self, tmp_path):
        outcomes = []
        report = run_adaptive(
            TINY_ADAPTIVE,
            store=ResultsStore(tmp_path / "store"),
            progress=lambda outcome, batches: outcomes.append(outcome),
        )
        assert len(outcomes) == report.computed_batches
        assert sum(outcome.batch_trials for outcome in outcomes) == (
            report.computed_trials
        )
        # Phase 1 seeds every point in grid order before any greedy batch.
        seed_keys = [outcome.key for outcome in outcomes[: report.total]]
        assert seed_keys == [state.key for state in report.states]
        # The last batch of each point is the one that converged it.
        final = {outcome.key: outcome for outcome in outcomes}
        for estimate in report.estimates:
            assert final[estimate.key].converged

    def test_each_point_is_estimated_once_per_batch(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return estimate_point(*args, **kwargs)

        monkeypatch.setattr("repro.sweeps.adaptive.estimate_point", counted)
        store = ResultsStore(tmp_path / "store")
        for limit in (3, None, None):  # interrupted, resumed, then all cached
            calls.clear()
            report = run_adaptive(TINY_ADAPTIVE, store=store, limit=limit)
            assert len(calls) <= report.computed_batches + report.total
        assert report.computed_batches == 0 and len(calls) == report.total

    def test_ceiling_bounds_unconverged_points(self, tmp_path):
        # An unreachably tight target: every point must stop at the ceiling.
        report = run_adaptive(
            dataclasses.replace(TINY_ADAPTIVE, precision=0.001, max_trials=12),
            store=ResultsStore(tmp_path / "store"),
        )
        assert report.converged == 0
        assert report.at_ceiling == report.total
        assert all(e.trials == 12 for e in report.estimates)
        assert all(e.status == "ceiling" for e in report.estimates)

    def test_estimates_of_an_empty_store_are_pending(self, tmp_path):
        report = adaptive_status(
            TINY_ADAPTIVE, store=ResultsStore(tmp_path / "store")
        )
        assert all(e.status == "pending" for e in report.estimates)
        assert all(math.isinf(e.width) for e in report.estimates)
        assert report.total_trials == 0

    def test_estimate_point_measures_both_widths(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        report = run_adaptive(TINY_ADAPTIVE, store=store)
        targets = report.targets
        for state in report.states:
            estimate = estimate_point(state.point, state.key, state.result, targets)
            assert estimate.width == max(
                estimate.agreement.width, estimate.rounds_rel_width
            )
            assert estimate.width <= targets.precision
            assert estimate.rounds_low <= estimate.rounds_mean <= estimate.rounds_high

    def test_plan_table_is_deterministic_and_complete(self):
        rows = adaptive_plan_table(TINY_ADAPTIVE)
        assert rows == adaptive_plan_table(TINY_ADAPTIVE)
        assert [row["t"] for row in rows] == [4, 6]
        for row in rows:
            assert row["initial"] == 4
            assert row["batch"] == 4
            assert row["ceiling"] == 64
            assert row["precision"] == 0.2
            assert len(row["key"]) == 12


# One fixed configuration for the merge-invariance property tests: small,
# vectorizable and fast (a few ms per run).
_MERGE_TOTAL = 8


def _merge_batches(sizes: list[int]) -> list[TrialsResult]:
    """Run ``sizes`` as consecutive trial_offset batches of one sweep."""
    parts = []
    offset = 0
    for size in sizes:
        parts.append(
            run_sweep(
                n=32, t=3, protocol="committee-ba-las-vegas",
                adversary="coin-attack", trials=size, base_seed=9090,
                engine="vectorized", trial_offset=offset,
            )
        )
        offset += size
    return parts


@st.composite
def partitions(draw):
    """An arbitrary ordered partition of ``_MERGE_TOTAL`` into >=1 parts."""
    sizes = []
    remaining = _MERGE_TOTAL
    while remaining > 0:
        part = draw(st.integers(min_value=1, max_value=remaining))
        sizes.append(part)
        remaining -= part
    return sizes


class TestMergeInvariance:
    @pytest.fixture(scope="class")
    def one_shot(self):
        return run_sweep(
            n=32, t=3, protocol="committee-ba-las-vegas",
            adversary="coin-attack", trials=_MERGE_TOTAL, base_seed=9090,
            engine="vectorized",
        )

    @settings(max_examples=12, deadline=None)
    @given(sizes=partitions())
    def test_any_batch_split_reassembles_bit_identically(self, sizes, one_shot):
        merged = TrialsResult.merge(_merge_batches(sizes))
        assert trial_tuples(merged) == trial_tuples(one_shot)

    @settings(max_examples=12, deadline=None)
    @given(sizes=partitions())
    def test_merge_is_associative_over_any_grouping(self, sizes, one_shot):
        parts = _merge_batches(sizes)
        left = parts[0]
        for part in parts[1:]:
            left = TrialsResult.merge([left, part])
        right = parts[-1]
        for part in reversed(parts[:-1]):
            right = TrialsResult.merge([part, right])
        assert trial_tuples(left) == trial_tuples(right) == trial_tuples(one_shot)

    @settings(max_examples=12, deadline=None)
    @given(
        sizes=partitions(),
        order_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_merge_order_never_changes_the_aggregates(self, sizes, order_seed, one_shot):
        import random

        parts = _merge_batches(sizes)
        shuffled = parts[:]
        random.Random(order_seed).shuffle(shuffled)
        merged = TrialsResult.merge(shuffled)
        # Out-of-order merging permutes the trial list but can never change
        # the multiset of trials nor any permutation-invariant aggregate.
        assert sorted(trial_tuples(merged)) == sorted(trial_tuples(one_shot))
        assert merged.summary() == one_shot.summary()


class TestAdaptiveCli:
    def test_run_then_rerun_computes_zero(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny-adaptive.json"
        spec_path.write_text(TINY_ADAPTIVE.to_json(), encoding="utf-8")
        store = str(tmp_path / "store")
        assert main(["sweep", "run", str(spec_path), "--store", store]) == 0
        first = capsys.readouterr().out
        assert "adaptive sweep tiny-adaptive" in first
        assert "2 converged" in first
        assert main(["sweep", "run", str(spec_path), "--store", store,
                     "--quiet"]) == 0
        assert "(+0 computed)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag,value", [("--precision", "0.4"), ("--batch", "4"), ("--max-trials", "64")],
        ids=["precision", "batch", "max-trials"],
    )
    def test_precision_targets_come_from_the_spec_alone(
        self, tmp_path, capsys, flag, value
    ):
        # A flag would run the spec under keys its status and report never
        # read; the spec's 'adaptive' block is the only way to set a target.
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "run", "smoke", "--store", str(store), flag, value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.rglob("*.jsonl"))

    @pytest.mark.parametrize("adaptive", [False, True], ids=["smoke", "adaptive-file"])
    def test_status_and_report_read_what_run_wrote(self, tmp_path, capsys, adaptive):
        spec = "smoke"
        if adaptive:
            spec_path = tmp_path / "tiny-adaptive.json"
            spec_path.write_text(TINY_ADAPTIVE.to_json(), encoding="utf-8")
            spec = str(spec_path)
        store = str(tmp_path / "store")
        assert main(["sweep", "run", spec, "--store", store, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["sweep", "status", spec, "--store", store]) == 0
        statuses = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                    if line.startswith("  ")]
        assert statuses and "pending" not in statuses
        assert main(["sweep", "report", spec, "--store", store]) == 0
        assert "not in the store" not in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(SWEEP_LIBRARY))
    def test_status_and_report_find_the_point_a_one_step_run_wrote(
        self, tmp_path, capsys, name
    ):
        # One point (one batch for an adaptive spec) per library entry: the
        # key `sweep run` wrote is the one key `sweep status` and `sweep
        # report` find, and every other point is still pending.
        total = len(SWEEP_LIBRARY[name].expand())
        store = str(tmp_path / "store")
        assert main(["sweep", "run", name, "--store", store, "--limit", "1",
                     "--workers", "1", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["sweep", "status", name, "--store", store]) == 0
        statuses = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                    if line.startswith("  ")]
        assert len(statuses) == total
        assert statuses.count("pending") == total - 1
        assert main(["sweep", "report", name, "--store", store]) == 0
        assert f"({total - 1} of {total} points not in the store yet" in (
            capsys.readouterr().out
        )

    def test_status_and_report_show_precision_columns(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny-adaptive.json"
        spec_path.write_text(TINY_ADAPTIVE.to_json(), encoding="utf-8")
        store = str(tmp_path / "store")
        assert main(["sweep", "status", str(spec_path), "--store", store]) == 0
        assert "pending" in capsys.readouterr().out
        assert main(["sweep", "run", str(spec_path), "--store", store,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["sweep", "status", str(spec_path), "--store", store]) == 0
        status_out = capsys.readouterr().out
        assert "converged" in status_out and "width" in status_out
        assert main(["sweep", "report", str(spec_path), "--store", store]) == 0
        report_out = capsys.readouterr().out
        assert "ci_width" in report_out and "status" in report_out
        assert "not in the store" not in report_out

    def test_library_spec_is_adaptive_and_fewer_than_worst_case_uniform(
        self, tmp_path
    ):
        # The library's crossover-adaptive entry must be runnable by the
        # adaptive executor and beat the uniform worst-case sizing; the
        # benchmark asserts the actual savings floor.
        from repro.sweeps import get_spec

        spec = get_spec("crossover-adaptive")
        assert spec.adaptive
        targets = resolve_targets(spec)
        assert targets.precision == 0.05
        assert targets.max_trials == 512
        rows = adaptive_plan_table(spec)
        assert len(rows) == 10

    def test_adaptive_report_rows_mark_uncomputed_points(self, tmp_path):
        rows = adaptive_report_rows(
            TINY_ADAPTIVE, store=ResultsStore(tmp_path / "store")
        )
        assert all(row["status"] == "pending" for row in rows)
        assert all(row["trials"] is None for row in rows)
