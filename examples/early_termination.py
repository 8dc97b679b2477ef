#!/usr/bin/env python3
"""Early termination: the protocol is only as slow as the adversary is active.

Theorem 2's second clause: if the adversary actually corrupts only ``q < t``
nodes, Algorithm 3 terminates in ``O(min{q^2 log n / n, q / log n})`` rounds —
the declared bound ``t`` fixes the committee geometry, but the running time is
governed by the corruptions actually spent.

This example fixes ``n`` and the declared ``t``, and sweeps the adversary's
actual budget ``q`` from 0 to ``t``.  It prints the measured rounds, the number
of corruptions the adversary used, and the paper's prediction evaluated at
``q`` instead of ``t``.  It also demonstrates the ``decided``-flag mechanism by
showing, for one traced run, in which phase each fraction of honest nodes had
locked in its decision.

Usage::

    python examples/early_termination.py [n] [t] [trials]
"""

from __future__ import annotations

import sys

from repro import run_agreement
from repro.core.parameters import ProtocolParameters, predicted_rounds
from repro.core.runner import AgreementExperiment, TrialsResult
from repro.metrics.reporting import format_table
from repro.simulator.vectorized import run_vectorized_trials


def main(n: int = 60, t: int = 19, trials: int = 8) -> None:
    print(f"n={n}, declared t={t} (fixes committee geometry), split inputs,")
    print("adversary = coin-straddling attack with its budget capped at q\n")

    # Handing the batched kernel t=q caps the attack budget at q, and
    # params= carries the *declared* t: the committees (size and count) and
    # the decide (n - t) and adopt (t + 1) quorums follow it, so this
    # measures the protocol sized for t against q actual corruptions
    # (exactly how experiment E3 runs).
    declared_params = ProtocolParameters.derive(n, t)
    rows = []
    for q in sorted({0, 2, t // 4, t // 2, t}):
        experiment = AgreementExperiment(
            n=n, t=q, protocol="committee-ba-las-vegas",
            adversary="coin-attack" if q > 0 else "null", inputs="split",
        )
        rows_q = run_vectorized_trials(
            n, q, protocol=experiment.protocol, adversary=experiment.adversary,
            inputs=experiment.inputs, trials=trials, seed=300 + q,
            params=declared_params,
        )
        result = TrialsResult(experiment, rows_q, engine="vectorized")
        rows.append(
            {
                "q (actual budget)": q,
                "mean_rounds": result.mean_rounds,
                "mean_corruptions_used": result.mean_corrupted,
                "paper_prediction_at_q": predicted_rounds(n, q),
            }
        )
    print(format_table(rows))
    print()

    # One traced run: when did honest nodes lock in?
    traced = run_agreement(
        n=n, t=t, protocol="committee-ba-las-vegas", adversary="coin-attack",
        inputs="split", seed=9, collect_trace=True,
    )
    assert traced.trace is not None
    honest = n - len(traced.corrupted)
    print(f"One traced run (decision {traced.decision}, {traced.rounds} rounds, "
          f"{len(traced.corrupted)} corruptions):")
    for record in traced.trace.records:
        if record.round_index % 2 == 1:  # end of each phase
            phase = record.round_index // 2 + 1
            print(f"  after phase {phase:2d}: {record.honest_decided:3d}/{honest} honest decided, "
                  f"{record.honest_terminated:3d} terminated, "
                  f"{record.corrupted_total:2d} corrupted so far")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:4]]
    main(*args)
