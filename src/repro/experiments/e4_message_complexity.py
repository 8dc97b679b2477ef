"""E4 — Message and bit complexity (Section 1.2 / Section 4) and CONGEST discipline.

Paper claim
-----------
The protocol's message complexity is ``O(min{n t^2 log n, n^2 t / log n})``,
improving on Chor–Coan's ``O(n^2 t / log n)``; each node sends only
``O(log n)`` bits per edge per round (CONGEST).

Experiment
----------
Sweep ``t`` at fixed ``n``, counting delivered messages for both protocols
(the measured counts are simply ``n`` messages per broadcaster per round, so
the comparison mirrors the round-complexity one), and separately verify with
the object-level simulator in strict-CONGEST mode that no per-edge budget
violation ever occurs for the committee protocols.
"""

from __future__ import annotations

from repro.core.parameters import predicted_messages, predicted_messages_chor_coan
from repro.core.runner import run_agreement
from repro.engine import run_sweep
from repro.metrics.reporting import ExperimentReport

QUICK_SWEEP = (256, [8, 16, 32, 64], 6, 24)
FULL_SWEEP = (1024, [16, 32, 64, 128, 256], 15, 48)


def run(quick: bool = True) -> ExperimentReport:
    """Run the E4 sweep and return the report."""
    n, t_values, trials, congest_n = QUICK_SWEEP if quick else FULL_SWEEP
    report = ExperimentReport(
        experiment_id="E4",
        title="Message complexity vs t, and CONGEST per-edge discipline",
        columns=[
            "t", "messages_ours", "messages_chor_coan", "ratio",
            "analytic_ours", "analytic_cc", "congest_violations_ours",
        ],
    )
    report.add_note(f"n={n}, trials/point={trials}, adversary=greedy straddle")
    report.add_note(
        f"congest_violations_ours measured with the object-level simulator at n={congest_n}, "
        "strict CONGEST accounting (budget = 8 words of O(log n) bits per edge per round)"
    )
    for t in t_values:
        ours = run_sweep(
            n, t, protocol="committee-ba-las-vegas", adversary="coin-attack",
            inputs="split", trials=trials, base_seed=2000 + t,
        )
        chor_coan = run_sweep(
            n, t, protocol="chor-coan-las-vegas", adversary="coin-attack",
            inputs="split", trials=trials, base_seed=2000 + t,
        )
        strict = run_agreement(
            n=congest_n, t=min(t, (congest_n - 1) // 3), protocol="committee-ba",
            adversary="coin-attack", inputs="split", seed=3000 + t, strict_congest=True,
        )
        report.add_row(
            {
                "t": t,
                "messages_ours": ours.mean_messages,
                "messages_chor_coan": chor_coan.mean_messages,
                "ratio": (chor_coan.mean_messages / ours.mean_messages)
                if ours.mean_messages else 1.0,
                "analytic_ours": predicted_messages(n, t),
                "analytic_cc": predicted_messages_chor_coan(n, t),
                "congest_violations_ours": strict.congest_violations,
            }
        )
    return report
