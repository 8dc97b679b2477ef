"""Batched two-round-phase skeleton shared by the Rabin and Ben-Or kernels.

Rabin's dealer-coin protocol and Ben-Or's private-coin protocol both reuse
Algorithm 3's two-round phase structure (their object implementations subclass
:class:`repro.core.agreement.CommitteeAgreementNode` and override only the
case-3 coin), so their batched kernels run on the same shared
:class:`repro.simulator.phase_engine.PhaseEngine` as the committee family —
with the committee rotation disabled (every node broadcasts a share each
round 2, because the bookkeeping committee is the whole network) and the
committee coin swapped for a pluggable source:

``"dealer"``
    One public bit per ``(trial, phase)``, identical at every node — Rabin's
    trusted dealer.  The bit is drawn from exactly the Philox stream
    :class:`repro.baselines.rabin.RabinDealerNode` uses, keyed by the trial's
    ``dealer_seed``, which makes the kernel bit-identical to the object
    simulator under the ``none``/``silent`` behaviours.

``"private"``
    One fresh bit per ``(trial, node)`` — Ben-Or's local coins.  Per-node
    streams cannot be reproduced in bulk, so this kernel is validated
    statistically against the object simulator.

Adversary behaviour comes from the same
:class:`~repro.adversary.kernels.base.AdversaryKernel` plane kernels the
committee engine uses, so both baselines inherit the full applicable strategy
matrix — including the rushing ``straddle``/``crash`` attacks, whose share
splits are futile by construction against a dealer or private coin (the
engine ignores the adjustment planes for those coin sources, while the
corruption spending is reproduced faithfully).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.adversary.kernels import build_adversary_kernel
from repro.adversary.kernels.capabilities import (
    COMMITTEE,
    CORRUPT_ADAPTIVE,
    CORRUPT_STATIC,
    RNG,
    ROUND1_VALUES,
    ROUND2_RECORDS,
    SHARES_BROADCAST,
)
from repro.core.parameters import ProtocolParameters
from repro.simulator.draws import TrialStreams
from repro.simulator.messages import PAYLOAD_BITS
from repro.simulator.phase_engine import PhaseEngine

#: Adversary hook surface of the skeleton — the full committee-engine set:
#: both rounds' announcement channels, rushing share observation (every node
#: broadcasts a share; the coin just ignores them) and the whole-network
#: bookkeeping committee.
SKELETON_HOOKS = frozenset(
    {
        CORRUPT_STATIC,
        CORRUPT_ADAPTIVE,
        ROUND1_VALUES,
        ROUND2_RECORDS,
        SHARES_BROADCAST,
        COMMITTEE,
        RNG,
    }
)

def run_phase_skeleton_batch(
    n: int,
    t: int,
    inputs: np.ndarray,
    streams: TrialStreams,
    *,
    behaviour: str,
    coin: str,
    params: ProtocolParameters,
    las_vegas: bool,
    max_phases: int,
    dealer_seeds: Sequence[int] | None = None,
    adjacency: np.ndarray | None = None,
    loss: float = 0.0,
    backend: str | None = None,
) -> dict[str, np.ndarray]:
    """Execute ``B`` trials of the two-round phase skeleton simultaneously.

    Args:
        inputs: ``(B, n)`` input bits.
        streams: The per-trial Philox streams (consumed only by the private
            coin, the ``random-noise`` kernel's aggregate draws and — under
            the rushing share attacks — the share draws the adversary
            inspects).
        behaviour: An :data:`repro.adversary.kernels.ADVERSARY_PLANE_KERNELS`
            name.
        coin: ``"dealer"`` or ``"private"``.
        params: Protocol parameters (``num_phases`` bounded schedule; the
            bookkeeping ``committee_size == n`` the adversary kernels read).
        max_phases: Hard cap for Las Vegas runs; trials still active at the
            cap are reported with ``timed_out``.
        dealer_seeds: Per-trial public dealer seed (required for the dealer
            coin); the object runner hands each trial its master seed, so
            exact cross-validation passes ``base_seed + k``.
        adjacency: Optional ``(n, n)`` boolean topology mask
            (:mod:`repro.topology`); ``None`` keeps the clique path.
        loss: Per-edge i.i.d. message-loss probability.
        backend: Forced plane representation for the engine (``None``
            picks it by batch size); bit-identical either way.

    Returns:
        The final state planes plus per-trial counters, with the skeleton's
        flat per-message bit accounting applied.
    """
    kernel = build_adversary_kernel(behaviour, n=n, t=t, params=params)
    engine = PhaseEngine(
        n=n,
        t=t,
        params=params,
        coin=coin,
        las_vegas=las_vegas,
        num_phases=params.num_phases,
        max_phases=max_phases,
        rotate_committee=False,
        dealer_seeds=dealer_seeds,
        adjacency=adjacency,
        loss=loss,
        backend=backend,
    )
    state = engine.run_batch(inputs, streams, kernel)
    # Both rounds are charged the committee engine's CombinedAnnouncement size.
    state["bits"] = state["messages"] * PAYLOAD_BITS["CombinedAnnouncement"]
    return state
