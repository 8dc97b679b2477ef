"""Analytic complexity curves and gap/crossover computations.

These are the curves the paper states (Theorem 2, Section 1.2, Section 4) and
compares against; the benchmark harness prints them next to the measured
values so that EXPERIMENTS.md can record "paper-predicted shape vs measured
shape" for every experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.parameters import (
    crossover_t,
    log2n,
    lower_bound_bar_joseph_ben_or,
    predicted_messages,
    predicted_messages_chor_coan,
    predicted_rounds,
    predicted_rounds_chor_coan,
    predicted_rounds_deterministic,
    validate_n_t,
)


@dataclass(frozen=True)
class BoundCurves:
    """All analytic round-complexity curves evaluated at one ``(n, t)`` point."""

    n: int
    t: int
    this_paper: float
    chor_coan: float
    deterministic: float
    lower_bound: float

    @classmethod
    def at(cls, n: int, t: int) -> "BoundCurves":
        """Evaluate every curve (unit constants) at ``(n, t)``."""
        validate_n_t(n, t)
        return cls(
            n=n,
            t=t,
            this_paper=predicted_rounds(n, t),
            chor_coan=predicted_rounds_chor_coan(n, t),
            deterministic=predicted_rounds_deterministic(t),
            lower_bound=lower_bound_bar_joseph_ben_or(n, t),
        )

    @property
    def gap_to_lower_bound(self) -> float:
        """Analytic ratio this paper / lower bound (``~polylog`` when ``t ~ sqrt(n)``)."""
        return self.this_paper / self.lower_bound if self.lower_bound > 0 else math.inf


def crossover_versus_chor_coan(n: int) -> float:
    """The ``t`` below which the paper's bound strictly beats Chor–Coan.

    Setting ``t^2 log n / n = t / log n`` gives ``t = n / log^2 n``
    (Section 1.2); returned as a float for plotting/sweeping.
    """
    return crossover_t(n)


def gap_to_lower_bound(n: int, t: int) -> float:
    """Analytic ratio between the paper's upper bound and the BJB lower bound.

    ``(t^2 log n / n) / (t / sqrt(n log n)) = (t / sqrt(n)) * log^{1.5} n``:
    the protocol is within polylog factors of optimal exactly when
    ``t = O(sqrt(n))`` (Section 1.2 / Section 4).
    """
    validate_n_t(n, t)
    if t <= 0:
        return 1.0
    return predicted_rounds(n, t) / lower_bound_bar_joseph_ben_or(n, t)


def example_speedup_at_three_quarters(n: int) -> tuple[float, float]:
    """The paper's worked example: ``t = n^0.75``.

    Returns ``(this_paper, chor_coan)`` analytic round predictions at
    ``t = n^{3/4}`` — the paper quotes ``O(n^{0.5} log n)`` versus
    ``O(n^{0.75} / log n)``.
    """
    t = int(round(n**0.75))
    t = min(t, (n - 1) // 3)
    return predicted_rounds(n, t), predicted_rounds_chor_coan(n, t)


def message_curves(n: int, t: int) -> dict[str, float]:
    """Analytic message-complexity curves (Section 1.2 / Section 4)."""
    validate_n_t(n, t)
    return {
        "this_paper": predicted_messages(n, t),
        "chor_coan": predicted_messages_chor_coan(n, t),
        "lower_bound_nt": float(n) * max(1, t),
    }


def committee_good_phase_probability(committee_size: int, byzantine_in_committee: int) -> float:
    """Analytic constant-probability bound behind Lemma 5.

    A phase whose committee of size ``s`` contains fewer than ``sqrt(s)/2``
    Byzantine nodes is good with constant probability; the usable constant is
    the Theorem 3 constant divided by 2 (the coin must also match the assigned
    value).  This helper exposes that number for the ablation experiment E10.
    """
    from repro.analysis.paley_zygmund import exact_common_coin_probability

    if committee_size < 1:
        return 0.0
    if byzantine_in_committee >= committee_size:
        return 0.0
    return 0.5 * exact_common_coin_probability(committee_size, byzantine_in_committee)


def expected_spoilable_phases(n: int, t: int, committee_size: int) -> float:
    """How many phases a rushing straddle adversary can spoil in expectation.

    Spoiling one phase costs about ``E[|S|]/2 + 1`` corruptions where ``S`` is
    the sum of ``s`` fair ±1 flips (``E[|S|] ~ sqrt(2 s / pi)``), so the budget
    ``t`` buys roughly ``t / (E[|S|]/2 + 1)`` spoiled phases.  This is the
    analytic prediction that the measured E1 curves are compared against.
    """
    if committee_size < 1 or t <= 0:
        return 0.0
    expected_abs_sum = math.sqrt(2.0 * committee_size / math.pi)
    cost_per_phase = expected_abs_sum / 2.0 + 1.0
    return t / cost_per_phase


def predicted_phases_under_straddle(n: int, t: int, alpha: float = 4.0) -> float:
    """Predicted number of phases of Algorithm 3 under the straddle adversary.

    The adversary spoils :func:`expected_spoilable_phases` phases and then a
    constant expected number of additional phases suffice; the committee size
    is the one Algorithm 3 derives for ``(n, t, alpha)``.
    """
    from repro.core.parameters import ProtocolParameters

    if t <= 0:
        return 1.0
    params = ProtocolParameters.derive(n, t, alpha)
    return expected_spoilable_phases(n, t, params.committee_size) + 2.0


def predicted_phases_chor_coan_under_straddle(n: int, t: int) -> float:
    """Same prediction for the Chor–Coan group size ``~log2 n``."""
    if t <= 0:
        return 1.0
    group = max(1, math.ceil(log2n(n)))
    return expected_spoilable_phases(n, t, group) + 2.0
