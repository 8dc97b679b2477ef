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
from repro.topology.counting import AdjacencyCounter, PackedDeliveredChannel, pack_sender_words
from repro.topology.generators import validate_adjacency
from repro.topology.loss import sample_delivered_words, validate_loss

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
    corruption lands in the arrays themselves.  Its round-1 per-recipient
    tallies (the protocol's only masked contractions) pack them for the word
    channels of :mod:`repro.topology.counting`, and a lossy king round reads
    the king's bit of each recipient's delivered words.
    """
    validate_n_t(n, t)
    if 4 * t >= n:
        raise ConfigurationError(
            f"the implemented phase-king variant requires n > 4t; got n={n}, t={t}"
        )
    loss = validate_loss(loss)
    if adjacency is not None:
        adjacency = validate_adjacency(adjacency, n)
    masked = adjacency is not None or loss > 0.0
    counter = AdjacencyCounter(adjacency) if masked and loss == 0.0 else None

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
    # One delivered-word buffer, allocated by the first draw, serves both
    # lossy rounds: round 1's last read (the receive tallies) precedes the
    # round-2 draw.
    deliver_buf: np.ndarray | None = None

    def sample_round() -> np.ndarray:
        """Sample one round's delivered masks as recipient-major words."""
        nonlocal deliver_buf
        deliver_buf = sample_delivered_words(adjacency, loss, n, streams, running, out=deliver_buf)
        return deliver_buf

    planes = [NumpyBoolPlane(plane) for plane in (active, corrupted, can_update)]

    def context(king: int) -> KernelContext:
        return KernelContext(king, king + 1, *planes, budget, messages, running, streams)

    kernel.setup(context(0))

    for phase in range(1, num_phases + 1):
        king = (phase - 1) % n
        ctx = context(king)

        # ---------------- Round 1: universal exchange ----------------
        chan1 = counter
        if masked and loss > 0.0:
            chan1 = PackedDeliveredChannel(sample_round(), n)
        ones_pre = row_popcount(value & active)
        sender_count = row_popcount(active)
        before = messages.copy()
        effect1 = kernel.round1(ctx, ones_pre, sender_count - ones_pre)
        bits += (messages - before) * _VALUE_ANNOUNCEMENT_BITS
        # A node corrupted mid-round has its honest broadcast discarded.
        sender_count = row_popcount(active)
        ones_honest = row_popcount(value & active)
        if masked:
            # Tally `active` and its value-1 part; the value-0 part is the
            # exact-integer difference (the sender sets partition `active`).
            active_words = pack_sender_words(active, n)
            recv_active = chan1.receive_counts_words(active_words)
            ones_recv = chan1.receive_counts_words(pack_sender_words(value & active, n))
            zeros_recv = recv_active - ones_recv
            if loss == 0.0:
                delivered_count = counter.delivered_edges_words(active_words)
            else:
                # `active`'s per-recipient tally sums to the delivered edges
                # — sparing a third contraction against the loss masks.
                delivered_count = recv_active.sum(axis=1)
            messages += delivered_count
            bits += delivered_count * _VALUE_ANNOUNCEMENT_BITS
            ones = ones_recv + np.asarray(effect1.ones)
            zeros = zeros_recv + np.asarray(effect1.zeros)
        else:
            messages += sender_count * n
            bits += sender_count * n * _VALUE_ANNOUNCEMENT_BITS
            ones = ones_honest[:, None] + np.asarray(effect1.ones)
            zeros = (sender_count - ones_honest)[:, None] + np.asarray(effect1.zeros)
        majority = ones >= zeros  # ties break to 1, as in the object node
        majority_count = np.maximum(ones, zeros)

        # ---------------- Round 2: the king speaks ----------------
        # Non-rushing king corruption (king-targeting) lands before the king
        # broadcasts; the adversary's own round-2 traffic is counted but its
        # payloads are unheard (phase-king nodes only read KingValue).
        king_reached = None
        if masked and loss > 0.0:
            # Recipient i hears the king when bit `king` of its row is set:
            # byte king >> 3, MSB-first.
            king_byte = sample_round().view(np.uint8)[:, :, king >> 3]
            king_reached = ((king_byte >> (7 - king % 8)) & 1).astype(bool)
        kernel.pre_coin(ctx)
        before = messages.copy()
        kernel.round2(ctx, zero_counts, zero_counts, zero_counts)
        bits += (messages - before) * _COMBINED_ANNOUNCEMENT_BITS
        king_active = active[:, king]
        if masked:
            if king_reached is None:
                king_edges = np.where(king_active, counter.outdeg[king], 0)  # type: ignore[union-attr]
                king_heard = king_active[:, None] & adjacency[king][None, :]  # type: ignore[index]
            else:
                king_heard = king_active[:, None] & king_reached
                king_edges = np.where(king_active, king_heard.sum(axis=1), 0)
            messages += king_edges
            bits += king_edges * _KING_VALUE_BITS
        else:
            king_heard = king_active[:, None]
            messages += np.where(king_active, n, 0)
            bits += np.where(king_active, n * _KING_VALUE_BITS, 0)

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
