"""E6 — Resilience and correctness at ``t < n/3`` (Definition 1 / Theorem 2).

Paper claim
-----------
Algorithm 3 satisfies agreement and validity with high probability for every
adversary controlling up to ``t < n/3`` nodes (optimal resilience in the
full-information model).

Experiment
----------
Two layers, sharing the same full matrix of implemented adversary strategies
× input patterns:

* **Object-simulator oracle rows** (small ``n``): the full matrix with ``t``
  at the maximum tolerable value ``floor((n-1)/3)`` and at half of it, on the
  faithful per-message simulator.  These rows are the ground truth every
  adversary kernel is cross-validated against (see
  ``tests/test_adversary_kernels.py``).
* **Vectorised full-matrix rows** (``n >= 256``, full sweep only): the
  *complete* adversary × inputs matrix at maximum ``t``, on the batched
  engine.  Since every registered adversary strategy now has a committee
  kernel — including the per-recipient equivocators and the non-rushing
  committee-targeting attack via :mod:`repro.adversary.kernels` — the
  resilience claim is exercised at a network size two orders of magnitude
  beyond what the object simulator can afford, for exactly the adaptive
  adversaries the paper's theorem is about.

The observed agreement and validity rates must be 1.0 in every row of both
layers.
"""

from __future__ import annotations

from repro.core.parameters import max_tolerable_t
from repro.core.runner import AgreementExperiment
from repro.engine import run_sweep
from repro.metrics.reporting import ExperimentReport

ADVERSARIES = ["null", "silent", "static", "random-noise", "equivocate",
               "coin-attack", "committee-targeting", "crash"]
INPUTS = ["split", "unanimous-0", "unanimous-1"]

#: The library spec ``e6-quick`` (``repro sweep run e6-quick``) runs the
#: quick matrix's configurations, but it seeds each point by its grid index
#: on the engine ``auto`` picks, where this module seeds ``6000 + 31 t +
#: len(inputs)`` on the object family, so its numbers are not this table's.
QUICK_CONFIG = (19, 3)
FULL_CONFIG = (46, 6)

#: The large-n layer of the full sweep: the complete adversary matrix runs on
#: the batched vectorised engine at this (n, trials).
FAST_PATH_CONFIG = (512, 24)


def run(quick: bool = True) -> ExperimentReport:
    """Run the E6 resilience matrix and return the report."""
    n, trials = QUICK_CONFIG if quick else FULL_CONFIG
    t_max = max_tolerable_t(n)
    report = ExperimentReport(
        experiment_id="E6",
        title="Resilience matrix: agreement/validity across adversaries and inputs at t < n/3",
        columns=["adversary", "inputs", "t", "trials", "agreement_rate", "validity_rate",
                 "mean_rounds"],
    )
    report.add_note(f"n={n}, t in {{{t_max // 2}, {t_max}}} (t_max = floor((n-1)/3))")
    for adversary in ADVERSARIES:
        for inputs in INPUTS:
            for t in sorted({max(1, t_max // 2), t_max}):
                result = run_sweep(
                    experiment=AgreementExperiment(
                        n=n, t=t, protocol="committee-ba", adversary=adversary, inputs=inputs
                    ),
                    trials=trials,
                    base_seed=6000 + 31 * t + len(inputs),
                    engine="object",
                )
                report.add_row(
                    {
                        "adversary": adversary,
                        "inputs": inputs,
                        "t": t,
                        "trials": trials,
                        "agreement_rate": result.agreement_rate,
                        "validity_rate": result.validity_rate,
                        "mean_rounds": result.mean_rounds,
                    }
                )
    if not quick:
        # Large-n re-check of the COMPLETE matrix on the batched vectorised
        # engine: every adversary strategy has a kernel, so no row is capped
        # at object-simulator scale any more.  The small-n object rows above
        # remain the cross-validation oracle for the statistically-validated
        # kernels.
        big_n, big_trials = FAST_PATH_CONFIG
        big_t = max_tolerable_t(big_n)
        report.add_note(
            f"fast-path rows: n={big_n}, t={big_t}, complete adversary matrix "
            "on the batched vectorized engine"
        )
        for adversary in ADVERSARIES:
            for inputs in INPUTS:
                result = run_sweep(
                    big_n, big_t, protocol="committee-ba", adversary=adversary,
                    inputs=inputs, trials=big_trials,
                    base_seed=6500 + len(inputs), engine="vectorized",
                )
                report.add_row(
                    {
                        "adversary": f"{adversary} (vectorized)",
                        "inputs": inputs,
                        "t": big_t,
                        "trials": big_trials,
                        "agreement_rate": result.agreement_rate,
                        "validity_rate": result.validity_rate,
                        "mean_rounds": result.mean_rounds,
                    }
                )
    return report
