"""Tests for metrics collection and report formatting."""

from __future__ import annotations

from repro.core.runner import AgreementExperiment, run_agreement, run_trials
from repro.metrics.collectors import (
    collect_run_metrics,
    collect_trials_metrics,
)
from repro.metrics.reporting import ExperimentReport, format_table, format_value


class TestCollectors:
    def test_collect_run_metrics_fields(self):
        result = run_agreement(n=16, t=3, adversary="coin-attack", inputs="split", seed=1)
        row = collect_run_metrics(result)
        assert row["protocol"] == "committee-ba"
        assert row["adversary"] == "coin-attack"
        assert row["n"] == 16
        assert row["rounds"] == result.rounds
        assert row["agreement"] is True
        assert row["congest_violations"] == 0

    def test_collect_trials_metrics_fields(self):
        experiment = AgreementExperiment(n=16, t=3, adversary="null", inputs="unanimous-1")
        trials = run_trials(experiment, num_trials=3, base_seed=0)
        row = collect_trials_metrics(trials)
        assert row["n"] == 16 and row["t"] == 3
        assert row["agreement_rate"] == 1.0
        assert row["mean_rounds"] >= 2


class TestFormatting:
    def test_format_value_variants(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(3) == "3"
        assert format_value(0.0) == "0"
        assert format_value(3.14159, precision=3) == "3.14"
        assert "e" in format_value(1.5e9)
        assert "e" in format_value(1.5e-7)

    def test_format_table_alignment_and_columns(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
        table = format_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert lines[0].startswith("a")
        narrowed = format_table(rows, columns=["b"])
        assert "a" not in narrowed.splitlines()[0]

    def test_format_table_empty(self):
        assert format_table([]) == "(no data)"

    def test_experiment_report_rendering(self):
        report = ExperimentReport(experiment_id="E1", title="Round complexity vs t")
        report.add_note("n=64, 3 trials")
        report.add_row({"t": 4, "rounds": 6.0})
        report.extend([{"t": 8, "rounds": 10.0}])
        text = report.render()
        assert "E1" in text and "Round complexity" in text
        assert "n=64" in text
        assert "rounds" in text
        assert str(report) == text
