"""E1 — Round complexity versus ``t`` (the headline comparison, Theorem 2).

Paper claim
-----------
Algorithm 3 solves Byzantine agreement w.h.p. in
``O(min{t^2 log n / n, t / log n})`` rounds, strictly improving on Chor–Coan's
``O(t / log n)`` whenever ``t = o(n / log^2 n)``; the smaller ``t`` is, the
larger the improvement.

Experiment
----------
For a fixed ``n`` we sweep ``t`` and measure the mean number of rounds until
every honest node terminates, for the paper's protocol and for the Chor–Coan
baseline, both run as Las Vegas variants under the strongest implemented
adversary (the rushing adaptive coin-straddling attack with maximal per-phase
spending).  The analytic curves (unit constants) are printed alongside.  The
vectorised engine is used so that thousand-node networks are practical.
"""

from __future__ import annotations

from repro.analysis.bounds import (
    predicted_phases_chor_coan_under_straddle,
    predicted_phases_under_straddle,
)
from repro.core.parameters import predicted_rounds, predicted_rounds_chor_coan
from repro.engine import run_sweep
from repro.metrics.reporting import ExperimentReport

#: (n, list of t values, trials per point).  The quick grid is also available
#: as the declarative library spec ``e1-quick`` (``repro sweep run e1-quick``),
#: which caches per-point results in the sweep store.
QUICK_SWEEP = (256, [4, 8, 16, 32, 64, 85], 8)
FULL_SWEEP = (1024, [8, 16, 32, 64, 100, 150, 200, 250, 300, 341], 20)


def run(quick: bool = True) -> ExperimentReport:
    """Run the E1 sweep and return the report."""
    n, t_values, trials = QUICK_SWEEP if quick else FULL_SWEEP
    report = ExperimentReport(
        experiment_id="E1",
        title="Round complexity vs t (this paper vs Chor-Coan), adaptive rushing adversary",
        columns=[
            "t", "regime", "rounds_ours", "rounds_chor_coan", "speedup",
            "agree_ours", "agree_cc", "pred_ours", "pred_cc",
            "analytic_ours", "analytic_cc",
        ],
    )
    report.add_note(f"n={n}, trials/point={trials}, inputs=split, adversary=greedy straddle")
    report.add_note(
        "pred_* = analytic phase prediction under the straddle attack (x2 rounds); "
        "analytic_* = the paper's asymptotic bounds with unit constants"
    )
    for t in t_values:
        ours = run_sweep(
            n, t, protocol="committee-ba-las-vegas", adversary="coin-attack",
            inputs="split", trials=trials, base_seed=1000 + t,
        )
        chor_coan = run_sweep(
            n, t, protocol="chor-coan-las-vegas", adversary="coin-attack",
            inputs="split", trials=trials, base_seed=1000 + t,
        )
        from repro.core.parameters import ProtocolParameters

        regime = ProtocolParameters.derive(n, t).regime.value
        report.add_row(
            {
                "t": t,
                "regime": regime,
                "rounds_ours": ours.mean_rounds,
                "rounds_chor_coan": chor_coan.mean_rounds,
                "speedup": chor_coan.mean_rounds / ours.mean_rounds if ours.mean_rounds else 1.0,
                "agree_ours": ours.agreement_rate,
                "agree_cc": chor_coan.agreement_rate,
                "pred_ours": 2.0 * predicted_phases_under_straddle(n, t),
                "pred_cc": 2.0 * predicted_phases_chor_coan_under_straddle(n, t),
                "analytic_ours": predicted_rounds(n, t),
                "analytic_cc": predicted_rounds_chor_coan(n, t),
            }
        )
    return report
