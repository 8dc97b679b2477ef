"""Flatten simulation results into plain records for reporting.

Every collector returns ``dict[str, object]`` rows with short, stable keys so
that benchmark output, EXPERIMENTS.md tables and tests all read the same
fields.
"""

from __future__ import annotations

from repro.core.runner import TrialsResult
from repro.simulator.scheduler import RunResult


def collect_run_metrics(result: RunResult) -> dict[str, object]:
    """One row summarising a single execution."""
    # Protocols that track phases report them via ``extra["phases"]``; when a
    # protocol does not, the row carries ``None`` (rendered as ``-``) instead
    # of a fabricated ``ceil(rounds / 2)`` guess.
    phases = result.extra.get("phases")
    return {
        "protocol": result.protocol_name,
        "adversary": result.adversary_name,
        "n": len(result.inputs),
        "t_corrupted": len(result.corrupted),
        "rounds": result.rounds,
        "phases": phases,
        "messages": result.message_count,
        "bits": result.bit_count,
        "agreement": result.agreement,
        "validity": result.validity,
        "decision": result.decision,
        "congest_violations": result.congest_violations,
        "timed_out": result.timed_out,
    }


def collect_trials_metrics(trials: TrialsResult) -> dict[str, object]:
    """One row aggregating a multi-trial experiment."""
    experiment = trials.experiment
    row: dict[str, object] = {
        "protocol": experiment.protocol,
        "adversary": experiment.adversary,
        "inputs": experiment.inputs,
        "n": experiment.n,
        "t": experiment.t,
    }
    row.update(trials.summary())
    return row
