"""E3 — Early termination (Theorem 2, second clause).

Paper claim
-----------
If the adversary actually corrupts only ``q < t`` nodes, Algorithm 3
terminates in ``O(min{q^2 log n / n, q / log n})`` rounds — i.e. the cost is
governed by the corruptions actually spent, not by the declared bound ``t``.

Experiment
----------
Fix ``n`` and the declared bound ``t`` (which fixes the committee geometry),
and sweep the adversary's *actual* budget ``q``.  Measured rounds should grow
with ``q`` and be essentially independent of the declared ``t``.
"""

from __future__ import annotations

from repro.core.parameters import ProtocolParameters
from repro.core.runner import AgreementExperiment, TrialsResult
from repro.exceptions import SimulationError
from repro.metrics.reporting import ExperimentReport
from repro.simulator.vectorized import run_vectorized_trials

QUICK_CONFIG = (256, 64, [0, 4, 8, 16, 32, 64], 8)
FULL_CONFIG = (1024, 250, [0, 8, 16, 32, 64, 125, 250], 20)


def run(quick: bool = True) -> ExperimentReport:
    """Run the E3 q-sweep and return the report."""
    n, declared_t, q_values, trials = QUICK_CONFIG if quick else FULL_CONFIG
    params = ProtocolParameters.derive(n, declared_t)
    report = ExperimentReport(
        experiment_id="E3",
        title="Early termination: rounds vs actual corruptions q (declared t fixed)",
        columns=["q", "mean_rounds", "max_rounds", "mean_corrupted", "agreement_rate"],
    )
    report.add_note(
        f"n={n}, declared t={declared_t} (committee size {params.committee_size}, "
        f"{params.num_phases} scheduled phases), trials/point={trials}"
    )
    report.add_note("the adversary is the greedy straddle attack limited to budget q")
    for q in q_values:
        # Budget-limited adversary: the kernel's budget is q, while params
        # carries the declared t that sizes the committees and sets the
        # quorums, a pair no AgreementExperiment, and so no run_sweep, can
        # name.
        experiment = AgreementExperiment(
            n=n, t=q, protocol="committee-ba-las-vegas",
            adversary="coin-attack" if q > 0 else "null", inputs="split",
        )
        rows = run_vectorized_trials(
            n, q, protocol=experiment.protocol, adversary=experiment.adversary,
            inputs=experiment.inputs, trials=trials, seed=7 + q, params=params,
        )
        if any(row.timed_out for row in rows):
            raise SimulationError(f"E3 at q={q} exceeded its round cap")
        result = TrialsResult(experiment, rows, engine="vectorized")
        report.add_row(
            {
                "q": q,
                "mean_rounds": result.mean_rounds,
                "max_rounds": result.max_rounds,
                "mean_corrupted": result.mean_corrupted,
                "agreement_rate": result.agreement_rate,
            }
        )
    return report
