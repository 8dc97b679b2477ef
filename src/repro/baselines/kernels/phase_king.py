"""Batched hook-driven kernel for the phase-king protocol.

Phase king reuses two of the committee engine's adversary channels — the
round-1 universal value exchange (``ValueAnnouncement``) and a per-phase
distinguished node (the king, modelled as the degenerate committee
``CommitteePartition(n, 1)``) — so its kernel drives the *same*
:class:`~repro.adversary.kernels.base.AdversaryKernel` plane kernels as the
committee engine instead of a private behaviour switch:

* ``setup`` corrupts the strategy's up-front columns (silent / static /
  random-noise);
* ``round1`` may corrupt adaptively (the equivocator's mouthpiece
  recruitment) and returns additive per-recipient value planes that enter
  the per-recipient majority tallies;
* ``pre_coin`` runs at the top of the king round with the committee slice set
  to the king — the non-rushing committee-targeting kernel degrades to
  *king-targeting* here, corrupting the king before it speaks;
* ``round2`` is consulted for its adversary traffic accounting only: phase
  king has no round-2 records and no coin shares, so the returned planes are
  provably unheard (exactly as the object nodes ignore those payloads), and
  the rushing share attacks (``coin-attack``/``crash``) are *inapplicable* —
  they dispatch to the exact failure-free ``null`` kernel, mirroring their
  no-op object implementations.

The protocol itself is deterministic, so every fault model that consumes no
randomness (null/silent/static/king-targeting/equivocate) is *exact*: every
field of every trial matches the object simulator bit for bit.  The
``random-noise`` model samples each recipient's noisy round-1 view
(``Binomial(f, 1/2)`` per recipient) from the trial generator and is
validated statistically.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.kernels import build_adversary_kernel
from repro.adversary.kernels.base import KernelContext
from repro.adversary.kernels.capabilities import (
    COMMITTEE,
    CORRUPT_ADAPTIVE,
    CORRUPT_STATIC,
)
from repro.core.parameters import ProtocolParameters, Regime, validate_n_t
from repro.core.runner import TrialSummary
from repro.exceptions import ConfigurationError
from repro.simulator.bitplanes import row_popcount
from repro.simulator.messages import PAYLOAD_BITS
from repro.simulator.planes import NumpyBoolPlane
from repro.simulator.vectorized import batch_setup, batch_summaries
from repro.topology.loss import Delivery

#: Adversary hook surface this kernel implements (drives the supported- and
#: inapplicable-adversary derivation in the engine's capability registry):
#: corruption and the king as the phase's distinguished node, but no coin
#: shares.
PHASE_KING_HOOKS = frozenset(
    {CORRUPT_STATIC, CORRUPT_ADAPTIVE, COMMITTEE}
)

#: CONGEST payload sizes (bits), derived from repro.simulator.messages.
_VALUE_ANNOUNCEMENT_BITS = PAYLOAD_BITS["ValueAnnouncement"]
_COMBINED_ANNOUNCEMENT_BITS = PAYLOAD_BITS["CombinedAnnouncement"]
_KING_VALUE_BITS = PAYLOAD_BITS["KingValue"]


def _king_parameters(n: int, t: int) -> ProtocolParameters:
    """Bookkeeping parameters exposing the king schedule as committees of 1."""
    return ProtocolParameters(
        n=n, t=t, alpha=1.0, num_phases=t + 1, committee_size=1, regime=Regime.LINEAR
    )


def run_phase_king_trials(
    n: int,
    t: int,
    *,
    adversary: str = "null",
    inputs: str = "split",
    trials: int = 10,
    seed: int = 0,
    trial_offset: int = 0,
    adjacency: np.ndarray | None = None,
    loss: float = 0.0,
) -> list[TrialSummary]:
    """Run ``trials`` batched executions of phase king (``n > 4t``).

    With an ``adjacency`` mask or positive ``loss`` the round-1 tallies and
    the king broadcast become per-recipient over delivered edges (a recipient
    that never hears the king falls back to its own-group majority, exactly
    like under a silent king), and CONGEST counters count delivered edges
    only.  The deterministic protocol stays *exact* against the object
    simulator off-clique at ``loss == 0`` for the randomness-free behaviours.

    Phase king keeps its state as raw boolean planes, so it takes no plane
    backend; the adversary kernel sees its ``active``, ``corrupted`` and
    ``can_update`` arrays through
    :class:`~repro.simulator.planes.numpy_bool.NumpyBoolPlane` views, so a
    corruption lands in the arrays themselves.  Each round takes its channel
    from one :class:`~repro.topology.loss.Delivery`, as the phase engine's
    do: round 1 tallies ``active`` and its value-1 part, and the king round
    tallies a plane holding only the king's column, whose counts say who
    heard the king and whose delivered edges are the KingValue messages.
    """
    validate_n_t(n, t)
    if 4 * t >= n:
        raise ConfigurationError(
            f"the implemented phase-king variant requires n > 4t; got n={n}, t={t}"
        )
    delivery = Delivery(adjacency, loss, n)

    input_rows, streams = batch_setup(n, inputs, trials, seed, trial_offset)
    batch = input_rows.shape[0]
    params = _king_parameters(n, t)
    kernel = build_adversary_kernel(adversary, n=n, t=t, params=params)
    num_phases = t + 1
    strong_threshold = n // 2 + t

    value = input_rows.astype(bool).copy()
    corrupted = np.zeros((batch, n), dtype=bool)
    active = np.ones((batch, n), dtype=bool)
    can_update = np.ones((batch, n), dtype=bool)
    budget = np.full(batch, t, dtype=np.int64)
    messages = np.zeros(batch, dtype=np.int64)
    bits = np.zeros(batch, dtype=np.int64)
    running = np.ones(batch, dtype=bool)
    zero_counts = np.zeros(batch, dtype=np.int64)
    planes = [NumpyBoolPlane(plane) for plane in (active, corrupted, can_update)]

    def context(king: int) -> KernelContext:
        return KernelContext(king, king + 1, *planes, budget, messages, running, streams)

    kernel.setup(context(0))

    for phase in range(1, num_phases + 1):
        king = (phase - 1) % n
        ctx = context(king)

        # ---------------- Round 1: universal exchange ----------------
        chan1 = delivery.channel(streams, running)
        ones_pre = row_popcount(value & active)
        sender_count = row_popcount(active)
        before = messages.copy()
        effect1 = kernel.round1(ctx, ones_pre, sender_count - ones_pre)
        bits += (messages - before) * _VALUE_ANNOUNCEMENT_BITS
        # A node corrupted mid-round has its honest broadcast discarded.
        # Tally `active` and its value-1 part; the value-0 part is the
        # exact-integer difference (the sender sets partition `active`).
        voting = value & active
        heard = chan1.receive_counts(NumpyBoolPlane(active), row_popcount(active))
        ones_heard = chan1.receive_counts(NumpyBoolPlane(voting), row_popcount(voting))
        delivered = chan1.delivered_edges(heard)
        messages += delivered
        bits += delivered * _VALUE_ANNOUNCEMENT_BITS
        ones = ones_heard + np.asarray(effect1.ones)
        zeros = heard - ones_heard + np.asarray(effect1.zeros)
        majority = ones >= zeros  # ties break to 1, as in the object node
        majority_count = np.maximum(ones, zeros)

        # ---------------- Round 2: the king speaks ----------------
        # Non-rushing king corruption (king-targeting) lands before the king
        # broadcasts; the adversary's own round-2 traffic is counted but its
        # payloads are unheard (phase-king nodes only read KingValue).
        chan2 = delivery.channel(streams, running)
        kernel.pre_coin(ctx)
        before = messages.copy()
        kernel.round2(ctx, zero_counts, zero_counts, zero_counts)
        bits += (messages - before) * _COMBINED_ANNOUNCEMENT_BITS
        # The KingValue broadcast is one more tally, of a plane holding only
        # the king's column: who hears the king, and the edges it crossed.
        king_active = active[:, king]
        king_plane = np.zeros_like(active)
        king_plane[:, king] = king_active
        heard = chan2.receive_counts(NumpyBoolPlane(king_plane), king_active.astype(np.int64))
        king_heard = heard > 0
        king_edges = chan2.delivered_edges(heard)
        messages += king_edges
        bits += king_edges * _KING_VALUE_BITS

        strong = majority_count > strong_threshold
        # Uniform effect planes broadcast as (B, 1) columns; the king's own
        # majority then sits in the only column.
        king_value = majority[:, king if majority.shape[1] > 1 else 0]
        # A silent (Byzantine) king — or, off-clique, a recipient that never
        # hears the KingValue: fall back to the own-group majority.
        new_value = np.where(strong | ~king_heard, majority, king_value[:, None])
        value ^= (value ^ new_value) & active

    rounds = np.full(batch, 2 * num_phases, dtype=np.int64)
    phases = np.full(batch, num_phases, dtype=np.int64)
    return batch_summaries(
        n,
        t,
        input_rows,
        streams,
        output=value,
        corrupted=corrupted,
        rounds=rounds,
        phases=phases,
        messages=messages,
        bits=bits,
    )
