"""Rabin (1983) — Byzantine agreement with a trusted dealer's shared coin.

Rabin's protocol assumes a shared (common) coin handed to all nodes by a
trusted external dealer: in every phase, every node that cannot decide adopts
the *same* globally known random bit.  Because the coin is perfect — always
common, always unbiased — a phase in which no honest node has decided ends in
agreement with probability 1/2, so the protocol terminates in a constant
expected number of phases.  The paper positions both Chor–Coan and its own
protocol as ways of *removing the dealer* from Rabin's scheme, which makes
this the natural idealised reference point in the baseline landscape
experiment (E9).

The dealer is simulated by a pseudo-random stream keyed by a public
``dealer_seed`` shared by all nodes: the coin for phase ``i`` is the ``i``-th
bit of that stream.  There is no cryptographic hiding — consistent with the
full-information model, the adversary is assumed to know the coin values.

Batched sweeps run on the ``dealer-coin`` kernel: the two-round-phase entry
:func:`repro.simulator.vectorized.run_vectorized_trials` with the dealer coin,
which replays the same public dealer stream and is therefore bit-identical to
this node under the failure-free and silent behaviours.
"""

from __future__ import annotations

import numpy as np

from repro.core.agreement import CommitteeAgreementNode
from repro.core.parameters import ProtocolParameters, Regime, log2n

import math


#: Multiplier on ``log2 n`` for the number of phases (the batched kernel
#: shares the schedule through :func:`rabin_parameters`).
PHASES_FACTOR = 4.0

#: Domain tag mixed into the dealer's Philox key, keeping the public coin
#: stream separated from the node/adversary/environment stream domains.
_DEALER_DOMAIN = 0x0D


def dealer_coin_bit(dealer_seed: int, phase: int) -> int:
    """The dealer's public coin for ``phase`` (identical at every node).

    Single source of truth for the dealer stream: both
    :class:`RabinDealerNode` and the batched ``dealer-coin`` kernel
    (:class:`repro.simulator.phase_engine.PhaseEngine`'s dealer coin) call
    this, which is what makes the kernel bit-identical to the object
    simulator.
    """
    mask = (1 << 64) - 1
    key = np.array(
        [(int(dealer_seed) ^ (_DEALER_DOMAIN << 56)) & mask, phase & mask], dtype=np.uint64
    )
    stream = np.random.Generator(np.random.Philox(key=key))
    return int(stream.integers(0, 2))


def rabin_parameters(n: int, t: int) -> ProtocolParameters:
    """Phase schedule for Rabin's protocol.

    Each phase succeeds with probability at least 1/2 once no spoiling is
    possible, so ``ceil(PHASES_FACTOR * log2 n)`` phases give a w.h.p.
    guarantee; the committee size is irrelevant (the dealer flips the coin)
    and is set to ``n`` for bookkeeping.
    """
    num_phases = max(1, math.ceil(PHASES_FACTOR * log2n(n)))
    return ProtocolParameters(
        n=n, t=t, alpha=PHASES_FACTOR, num_phases=num_phases, committee_size=n, regime=Regime.LINEAR
    )


class RabinDealerNode(CommitteeAgreementNode):
    """One participant of Rabin's dealer-coin protocol.

    Args:
        dealer_seed: Public seed of the dealer's coin stream.  Every node in a
            run must be constructed with the same value (the runner does this).
    """

    protocol_name = "rabin-dealer"

    def __init__(
        self,
        node_id: int,
        n: int,
        t: int,
        input_value: int,
        rng: np.random.Generator,
        *,
        dealer_seed: int = 0,
        params: ProtocolParameters | None = None,
    ):
        if params is None:
            params = rabin_parameters(n, t)
        super().__init__(node_id, n, t, input_value, rng, params=params)
        self.dealer_seed = int(dealer_seed)

    def _phase_coin(self, phase: int, shares: dict[int, int]) -> int:
        return dealer_coin_bit(self.dealer_seed, phase)
