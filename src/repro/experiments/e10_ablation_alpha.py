"""E10 — Ablation: the committee constant ``alpha`` and the rushing/non-rushing gap.

Design choices probed
---------------------
1. **The constant ``alpha``** in ``c = min{alpha ceil(t^2/n) log n, 3 alpha t/log n}``.
   The paper's analysis needs ``alpha - 4 sqrt(alpha) >= gamma`` for the w.h.p.
   guarantee; larger ``alpha`` means more phases (more rounds in the worst
   case) but more headroom against the adversary.  The ablation measures, for
   the *bounded* (w.h.p.) variant, the failure-to-agree rate within the
   scheduled phases and the mean rounds, as ``alpha`` varies.
2. **Rushing vs non-rushing adversary** (footnote 3 of the paper): the same
   protocol is attacked by the rushing straddle adversary and by the
   non-rushing committee-targeting adversary, quantifying how much the rushing
   power is worth in rounds.
"""

from __future__ import annotations

from repro.core.runner import AgreementExperiment
from repro.engine import run_sweep
from repro.metrics.reporting import ExperimentReport

QUICK_CONFIG = (256, 32, [0.5, 1.0, 2.0, 4.0, 8.0], 8, 36, 8)
FULL_CONFIG = (1024, 100, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0], 20, 48, 12)


def run(quick: bool = True) -> ExperimentReport:
    """Run the E10 ablation and return the report."""
    n, t, alphas, trials, small_n, small_trials = QUICK_CONFIG if quick else FULL_CONFIG
    report = ExperimentReport(
        experiment_id="E10",
        title="Ablation: committee constant alpha, and rushing vs non-rushing adversaries",
        columns=["setting", "value", "mean_rounds", "agreement_rate", "timeout_or_fail_rate"],
    )
    report.add_note(f"alpha sweep: bounded (w.h.p.) variant, n={n}, t={t}, straddle adversary")
    report.add_note(
        f"rushing comparison: object simulator, n={small_n}, t={small_n // 4}, Las Vegas variant"
    )

    for alpha in alphas:
        aggregate = run_sweep(
            n, t, protocol="committee-ba", adversary="coin-attack", inputs="split",
            trials=trials, base_seed=10_000 + int(alpha * 10), alpha=alpha,
        )
        report.add_row(
            {
                "setting": "alpha",
                "value": alpha,
                "mean_rounds": aggregate.mean_rounds,
                "agreement_rate": aggregate.agreement_rate,
                "timeout_or_fail_rate": 1.0 - aggregate.agreement_rate,
            }
        )

    # Rushing vs non-rushing, twice: small-n object-simulator rows (the
    # cross-validation oracle) and the same comparison at the sweep's full
    # (n, t) on the batched engine — both adversaries have plane kernels, so
    # the comparison is no longer capped at object-simulator scale.
    small_t = small_n // 4
    comparisons = [("rushing (coin-attack)", "coin-attack"),
                   ("non-rushing (committee-targeting)", "committee-targeting")]
    for label, adversary in comparisons:
        result = run_sweep(
            experiment=AgreementExperiment(
                n=small_n, t=small_t, protocol="committee-ba-las-vegas",
                adversary=adversary, inputs="split",
            ),
            trials=small_trials, base_seed=10_500, engine="object",
        )
        report.add_row(
            {
                "setting": "adversary model",
                "value": label,
                "mean_rounds": result.mean_rounds,
                "agreement_rate": result.agreement_rate,
                "timeout_or_fail_rate": result.timeout_rate,
            }
        )
    for label, adversary in comparisons:
        result = run_sweep(
            n, t, protocol="committee-ba-las-vegas", adversary=adversary,
            inputs="split", trials=trials, base_seed=10_500, engine="vectorized",
        )
        report.add_row(
            {
                "setting": f"adversary model (vectorized, n={n})",
                "value": label,
                "mean_rounds": result.mean_rounds,
                "agreement_rate": result.agreement_rate,
                "timeout_or_fail_rate": result.timeout_rate,
            }
        )
    return report
