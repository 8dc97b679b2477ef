"""E9 — Baseline landscape (Section 1, Section 1.3).

Paper claims (qualitative, from the introduction and related work)
-------------------------------------------------------------------
* Deterministic protocols need ``t + 1`` rounds (phase king / EIG: ``Theta(t)``).
* Rabin's dealer coin gives O(1) expected phases but needs a trusted dealer.
* Ben-Or's private coins are fully decentralised but exponential for large ``t``.
* Chor–Coan removes the dealer with ``Theta(log n)`` groups: ``O(t / log n)``.
* This paper's committee coin: ``O(min{t^2 log n / n, t / log n})``.
* The APR sampling-majority dynamic converges for ``O(sqrt(n)/polylog n)`` faults.

Experiment
----------
Run every protocol in the repository on a common network under its strongest
applicable adversary and report rounds, messages and agreement rate, placing
the whole landscape in one table.  Every row dispatches through
:func:`repro.engine.run_sweep`; with the baseline kernels of
:mod:`repro.baselines.kernels` the whole landscape takes the batched
vectorised path, which is what allows the full sweep to run at ``n = 512``
(the seed's object-simulator landscape was capped at ``n = 25``).  EIG is the
one exception: its message size grows as ``n^(t+1)``, so its row is capped at
a small network — that blow-up is the point the paper makes about
deterministic protocols, and the ``n`` column records the cap.
"""

from __future__ import annotations

from repro.core.runner import AgreementExperiment
from repro.engine import run_sweep
from repro.metrics.reporting import ExperimentReport

#: (n, default t, trials per protocol).  The library spec ``e9-quick``
#: (``repro sweep run e9-quick``) runs the configurations of the quick
#: landscape's committee-family rows, but it seeds each point by its grid
#: index, where row ``j`` here seeds at ``9000 + 100 j``, so its numbers are
#: not this table's; the censored baselines (ben-or/eig/sampling) keep their
#: bespoke caps here.
QUICK_CONFIG = (13, 3, 4)
FULL_CONFIG = (512, 64, 48)

#: protocol -> (t override or None, adversary, extra experiment kwargs).
#: ``n_cap`` caps a protocol's network size (EIG's tree is exponential);
#: ``max_rounds`` censors protocols without a bounded schedule (Ben-Or).
LANDSCAPE = [
    ("committee-ba", None, "coin-attack", {}),
    ("committee-ba-las-vegas", None, "coin-attack", {}),
    ("chor-coan", None, "coin-attack", {}),
    ("rabin", None, "coin-attack", {}),
    # Ben-Or's expected round count is exponential in the honest count; runs
    # are censored at max_rounds, so its reported rounds are a lower bound.
    ("ben-or", 1, "silent", {"max_rounds": 2000}),
    ("phase-king", "quarter", "static", {}),
    ("eig", 2, "static", {"n_cap": 13}),
    ("sampling-majority", 1, "silent", {}),
]

#: Full-mode adversary axis: the PhaseEngine unification gave every baseline
#: the full applicable adversary-kernel matrix, so the full landscape also
#: sweeps each scalable baseline under the adaptive strategies at the
#: landscape's ``n >= 256`` — comparisons the object simulator could only
#: afford at toy sizes before.  Same row conventions as :data:`LANDSCAPE`;
#: row ``j`` seeds at ``9000 + 100 * (len(LANDSCAPE) + j)``.
ADVERSARY_AXIS = [
    ("rabin", None, "equivocate", {}),
    ("rabin", None, "random-noise", {}),
    ("rabin", None, "committee-targeting", {}),
    ("phase-king", "quarter", "equivocate", {}),
    ("phase-king", "quarter", "random-noise", {}),
    ("phase-king", "quarter", "committee-targeting", {}),
    ("sampling-majority", 1, "equivocate", {}),
    ("sampling-majority", 1, "random-noise", {}),
]


def landscape_t(t_spec, n: int, t_default: int) -> int:
    """Resolve a landscape row's ``t`` override for network size ``n``."""
    if t_spec is None:
        return t_default
    if t_spec == "quarter":
        # Phase king needs n > 4t; (n - 1) // 4 is the largest legal budget.
        return max(1, (n - 1) // 4)
    return int(t_spec)


def run(quick: bool = True, engine: str = "auto") -> ExperimentReport:
    """Run the E9 landscape comparison and return the report.

    Args:
        engine: Forwarded to :func:`repro.engine.run_sweep` per row;
            ``"object"`` reproduces the seed's object-simulator landscape for
            cross-validation (bit-identical for the deterministic kernels).
    """
    n_config, t_default, trials = QUICK_CONFIG if quick else FULL_CONFIG
    report = ExperimentReport(
        experiment_id="E9",
        title="Baseline landscape: every protocol under its strongest applicable adversary",
        columns=["protocol", "adversary", "engine", "n", "t", "mean_rounds",
                 "mean_messages", "agreement_rate", "validity_rate"],
    )
    report.add_note(f"n={n_config}, trials/protocol={trials}, inputs=split")
    report.add_note(
        "ben-or/eig/sampling run with reduced t (their practical limits); "
        "eig additionally caps n (its messages grow as n^(t+1))"
    )
    rows = list(LANDSCAPE)
    if not quick:
        # The adversary axis only makes sense at scale (its point is the
        # baselines under *adaptive* attack at n >= 256 on the fast path).
        report.add_note(
            "full mode adds an adversary axis: each scalable baseline under "
            "the adaptive equivocate / random-noise / committee-targeting "
            "strategies at the landscape n"
        )
        rows += ADVERSARY_AXIS
    for index, (protocol, t_spec, adversary, extra) in enumerate(rows):
        n = min(n_config, extra.get("n_cap", n_config))
        t = landscape_t(t_spec, n, t_default)
        experiment = AgreementExperiment(
            n=n, t=t, protocol=protocol, adversary=adversary, inputs="split",
            max_rounds=extra.get("max_rounds"),
            allow_timeout=protocol == "ben-or",
        )
        sweep = run_sweep(
            experiment=experiment, trials=trials, base_seed=9000 + 100 * index,
            engine=engine,
        )
        report.add_row(
            {
                "protocol": protocol,
                "adversary": adversary,
                "engine": sweep.engine,
                "n": n,
                "t": t,
                "mean_rounds": sweep.mean_rounds,
                "mean_messages": sweep.mean_messages,
                "agreement_rate": sweep.agreement_rate,
                "validity_rate": sweep.validity_rate,
            }
        )
    return report
