"""Ben-Or (1983) — Byzantine agreement with private local coins.

Ben-Or's protocol needs no shared randomness at all: a node that cannot decide
in a phase simply flips its own private coin.  Agreement is reached once the
honest nodes' private coins happen to line up behind a value that then
snowballs through the ``t + 1`` / ``n - t`` thresholds.  For ``t = O(sqrt(n))``
this happens quickly; for ``t = Theta(n)`` the expected number of phases is
exponential, which is exactly the behaviour the baseline-landscape experiment
(E9) illustrates and the reason shared-coin protocols (Rabin, Chor–Coan, the
paper) matter.

The implementation reuses the two-round phase skeleton of
:class:`CommitteeAgreementNode` (which is the standard modern presentation of
Ben-Or's protocol) and overrides only the case-3 coin with a private flip.
The node is Las Vegas: it keeps iterating until the ``Finish`` mechanism
fires, so runs against large ``t`` should be given a generous round cap and
``allow_timeout=True``.

Batched sweeps run on the ``private-coin`` kernel: the two-round-phase entry
:func:`repro.simulator.vectorized.run_vectorized_trials` with the private
coin, which replays the same phase skeleton on ``(trials, n)`` planes and is
cross-validated statistically against this node (the private coins come from
per-node streams the kernel cannot replay bit-for-bit).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.rabin import rabin_parameters
from repro.core.agreement import CommitteeAgreementNode
from repro.core.parameters import ProtocolParameters
from repro.simulator.rng import fair_bit


class BenOrNode(CommitteeAgreementNode):
    """One participant of Ben-Or's private-coin protocol (Las Vegas)."""

    protocol_name = "ben-or"

    def __init__(
        self,
        node_id: int,
        n: int,
        t: int,
        input_value: int,
        rng: np.random.Generator,
        *,
        params: ProtocolParameters | None = None,
    ):
        if params is None:
            # The committee geometry is irrelevant (coins are private); reuse
            # the bookkeeping-only parameters of the dealer baseline.
            params = rabin_parameters(n, t)
        super().__init__(node_id, n, t, input_value, rng, params=params)

    def _exhausted(self, phase: int) -> bool:
        return False

    def _phase_coin(self, phase: int, shares: dict[int, int]) -> int:
        """A private, local coin flip — no coordination whatsoever."""
        return fair_bit(self.rng)
