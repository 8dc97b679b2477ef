"""Tests for the experiment definitions (E1–E10) in quick mode.

These are deliberately lightweight: each experiment is executed once with its
quick configuration and the structural and headline properties of its report
are checked, so that a regression in any experiment is caught by `pytest
tests/` without having to run the benchmark suite.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.experiments.e3_early_termination as e3_module
from repro.exceptions import SimulationError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.e1_round_complexity import run as run_e1
from repro.experiments.e2_common_coin import run as run_e2
from repro.experiments.e3_early_termination import run as run_e3
from repro.experiments.e6_resilience import run as run_e6
from repro.experiments.e9_baselines import run as run_e9
from repro.metrics.reporting import ExperimentReport


class TestRegistry:
    def test_all_ten_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 11)}

    @pytest.mark.parametrize("experiment_id", ["E4", "E5", "E7", "E8", "E10"])
    def test_each_experiment_produces_a_report(self, experiment_id):
        report = ALL_EXPERIMENTS[experiment_id](quick=True)
        assert isinstance(report, ExperimentReport)
        assert report.experiment_id == experiment_id
        assert report.rows
        # The report renders without error and mentions its id.
        assert experiment_id in report.render()


class TestHeadlineProperties:
    def test_e1_all_trials_agree_and_small_t_speedup_exists(self):
        report = run_e1(quick=True)
        assert all(row["agree_ours"] == 1.0 for row in report.rows)
        assert any(row["speedup"] > 1.0 for row in report.rows)

    def test_e2_meets_the_paper_bound(self):
        report = run_e2(quick=True)
        assert all(row["measured_common"] >= row["paper_bound"] for row in report.rows)

    def test_e3_rounds_track_actual_corruptions(self):
        report = run_e3(quick=True)
        rows = report.rows
        assert rows[0]["q"] == 0 and rows[0]["mean_rounds"] <= 8
        assert rows[-1]["mean_rounds"] >= rows[0]["mean_rounds"]

    def test_e3_rejects_a_timed_out_trial(self, monkeypatch):
        # E3 calls the kernel itself rather than run_sweep, so it carries
        # run_sweep's guard: a trial that hit its round cap has no rounds to
        # report.
        kernel = e3_module.run_vectorized_trials

        def one_capped_trial(*args, **kwargs):
            rows = kernel(*args, **kwargs)
            return [dataclasses.replace(rows[0], timed_out=True), *rows[1:]]

        monkeypatch.setattr(e3_module, "QUICK_CONFIG", (64, 8, [0, 2], 2))
        monkeypatch.setattr(e3_module, "run_vectorized_trials", one_capped_trial)
        with pytest.raises(SimulationError, match="q=0"):
            run_e3(quick=True)

    def test_e5_sweeps_both_adversary_models(self):
        report = ALL_EXPERIMENTS["E5"](quick=True)
        for row in report.rows:
            # The rushing-straddle and committee-targeting sweeps both ran.
            assert row["rounds_ours"] > 0 and row["rounds_cc"] > 0
            assert row["rounds_ours_ct"] > 0 and row["rounds_cc_ct"] > 0
            assert row["speedup_ct"] > 0

    def test_e6_every_cell_is_correct(self):
        report = run_e6(quick=True)
        assert len(report.rows) == 8 * 3 * 2
        assert all(row["agreement_rate"] == 1.0 for row in report.rows)
        assert all(row["validity_rate"] == 1.0 for row in report.rows)

    def test_e9_covers_every_protocol_family(self):
        report = run_e9(quick=True)
        protocols = {row["protocol"] for row in report.rows}
        assert {"committee-ba", "chor-coan", "rabin", "ben-or", "phase-king",
                "eig", "sampling-majority"} <= protocols
