"""The shared hook-driven plane-execution engine for two-round-phase protocols.

Every batched protocol built on the paper's two-round phase skeleton — the
committee-BA family, its Chor–Coan variant, Rabin's dealer-coin protocol and
Ben-Or's private-coin protocol — executes through this one loop, reached
through one entry (:func:`repro.simulator.vectorized.run_vectorized_trials`).
The engine owns everything the six protocols share:

* the ``(B, n)`` boolean state planes and their XOR-blend updates;
* live-trial compaction (finished trials are archived and dropped from the
  working arrays, so late phases only pay for the trials still running);
* per-phase adversary hooks — ``setup`` once, then ``round1`` / ``pre_coin``
  / ``round2`` per phase — driving a pluggable
  :class:`~repro.adversary.kernels.base.AdversaryKernel`, each call inside
  an ``engine.hook.<hook>`` span naming the kernel class;
* committee coin-share draws on the per-trial Philox streams (always for
  the committee coin; lazily, only when the kernel is share-hungry and some
  trial can reach the coin case, for the dealer/private coins) and Ben-Or's
  private flips, one compiled (or vectorised NumPy) Philox call per draw
  (:meth:`~repro.simulator.draws.TrialStreams.draw_bits`);
* CONGEST message accounting (honest broadcasts engine-side, adversary
  traffic kernel-side) and flush-phase / bounded-exhaustion termination;
* the batched agreement/validity finaliser (:func:`finalize_planes`).

What distinguishes the protocols is reduced to one setting, the *coin
source* (``"committee"``: sign of the designated committee's share sum,
adjusted by the kernel's additive share planes; ``"dealer"``: Rabin's public
per-``(trial, phase)`` bit; ``"private"``: Ben-Or's per-node local flips).
The committee always rotates through the parameters' ID slices; Rabin's and
Ben-Or's bookkeeping committee has size ``n``, so their slice is the whole
network every phase.  Adversary behaviour is reduced to the kernel: the
engine never branches on a strategy name, which is what lets every protocol
on this loop inherit every applicable adversary kernel for free.

The loop is bit-compatible with all the paths it replaced: per-trial
randomness is drawn from the same Philox streams in the same order (checked
by the batched-vs-single-trial identity tests and the engine-throughput
benchmark), and compaction never changes results because trials draw only
from their own streams.

**The topology / message-loss axis.**  An optional ``(n, n)`` boolean
``adjacency`` mask and an i.i.d. per-edge ``loss`` probability
(:mod:`repro.topology`) decide which broadcasts reach which recipients, and
one :class:`~repro.topology.loss.Delivery` owns that decision.  Every round
takes one tally path: the round's channel (:mod:`repro.topology.counting`)
turns each plane and its global count into per-recipient receive counts, its
delivered edges and the committee coin's per-recipient share sums, and all
downstream threshold logic is shape-polymorphic.  The contract is:

* the clique (``adjacency`` ``None`` or all-True, ``loss == 0``) is the
  paper's model: each recipient's tally *is* the global count, so its
  channel hands back ``(B, 1)`` columns of the counts the engine already
  takes for the adversary kernel and does no work of its own.  Off it, the
  counts are ``(B, n)`` AND+popcount word tallies over delivered edges, the
  committee coin becomes each recipient's sign over the designated shares
  *it actually received*, and the CONGEST message counters charge
  delivered edges only.
* loss randomness is drawn from the per-trial streams in a fixed
  per-phase order (round-1 plane, round-2 plane, then the committee share
  draws), only for running trials — so per-trial results remain independent
  of batching and compaction, exactly like the share draws.
* adversary kernels keep seeing the *global* honest tallies (the paper's
  full-information adversary) and their additive effect planes are applied
  to every recipient unmasked — Byzantine traffic is modelled as
  always-delivered, the worst case.
* the dealer coin stays public (Rabin's trusted dealer is an abstraction
  above the network) and the private coin stays local; only the
  committee-share channel is subject to the mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.adversary.kernels.base import AdversaryKernel, KernelContext, value_assigned
from repro.core.parameters import ProtocolParameters
from repro.exceptions import ConfigurationError
from repro.observability.tracer import current_tracer
from repro.simulator.bitplanes import row_popcount
from repro.simulator.draws import TrialStreams
from repro.simulator.planes import PlaneBackend, resolve_backend
from repro.topology.loss import Delivery

__all__ = [
    "COIN_SOURCES",
    "PACKED_MIN_CELLS",
    "PhaseEngine",
    "draw_committee_shares",
    "finalize_planes",
]

#: Coin sources the engine models.
COIN_SOURCES = ("committee", "dealer", "private")

#: Fraction of live trials below which the working arrays are compacted.
_COMPACTION_THRESHOLD = 0.75

#: Batch cell count ``B × n`` from which :meth:`PhaseEngine.run_batch` runs
#: the packed planes.  Below it the pack/unpack boundary costs more than the
#: word ops save and numpy-bool runs; the two tie near 32 768 cells
#: (crossover measurements: docs/architecture.md).
PACKED_MIN_CELLS = 65_536


def draw_committee_shares(
    streams: TrialStreams,
    running: np.ndarray,
    committee_active: np.ndarray,
) -> np.ndarray:
    """Per-trial fresh ±1 shares for the active committee members.

    Each running trial draws one share per active member from its own
    stream — the single-trial path's ``integers(0, 2, size=count)`` call,
    bit for bit (:meth:`~repro.simulator.draws.TrialStreams.draw_bits`),
    as ``2 * bit - 1``.  The draws arrive concatenated in row order and are
    scattered in one pass: boolean-mask assignment walks the mask in
    row-major order, which is exactly the concatenation order (non-running
    trials have all-False committee rows and draw nothing).
    """
    shares = np.zeros(committee_active.shape, dtype=np.int8)
    counts = np.where(running, np.count_nonzero(committee_active, axis=1), 0)
    shares[committee_active] = (streams.draw_bits(counts) << 1) - 1
    return shares


def finalize_planes(
    n: int,
    t: int,
    inputs: np.ndarray,
    *,
    output: np.ndarray,
    corrupted: np.ndarray,
    messages: np.ndarray,
    timed_out: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Evaluate agreement/validity per trial over the honest output plane.

    Agreement holds when the honest outputs are unanimous; validity binds
    only when the honest *inputs* were unanimous.  Returns the per-trial
    evaluation arrays, which every batched kernel turns into
    :class:`~repro.core.runner.TrialSummary` rows with its
    protocol-specific round/bit accounting
    (:func:`repro.simulator.vectorized.batch_summaries`).
    """
    batch = inputs.shape[0]
    honest = ~corrupted
    honest_count = row_popcount(honest)
    has_honest = honest_count > 0
    out_ones = row_popcount(output & honest)
    agreement = (out_ones == 0) | (out_ones == honest_count)
    in_ones = row_popcount(inputs.astype(bool) & honest)
    unanimous_1 = has_honest & (in_ones == honest_count)
    unanimous_0 = has_honest & (in_ones == 0)
    validity = np.ones(batch, dtype=bool)
    validity[unanimous_1] = out_ones[unanimous_1] == honest_count[unanimous_1]
    validity[unanimous_0] = out_ones[unanimous_0] == 0
    if timed_out is None:
        timed_out = np.zeros(batch, dtype=bool)
    return {
        "agreement": agreement,
        "validity": validity,
        "has_honest": has_honest,
        "out_ones": out_ones,
        "corrupted_count": row_popcount(corrupted),
        "messages": messages,
        "timed_out": timed_out,
    }


@dataclass
class PhaseEngine:
    """Batched execution of a two-round-phase protocol under a plane kernel.

    Args:
        n / t: Network size and the adversary's corruption budget.
        params: Committee geometry and the declared bound ``params.t``,
            whose ``n - t`` decide and ``t + 1`` adopt quorums the honest
            nodes use (consumed by the committee rotation and handed to the
            adversary kernel; a ``committee_size`` of ``n`` makes every
            phase's committee the whole network).
        coin: One of :data:`COIN_SOURCES`.
        las_vegas: When True the protocol cycles phases until termination
            (capped at ``max_phases``, excess trials reported timed out);
            when False it stops after ``params.num_phases`` and decides by
            exhaustion.
        max_phases: Hard cap for Las Vegas runs.
        dealer_seeds: Per-trial public dealer seeds (required for the dealer
            coin; the object runner hands each trial its master seed).
        adjacency: Optional ``(n, n)`` boolean topology mask (symmetric,
            True diagonal; see :mod:`repro.topology`).  ``None`` and an
            all-True mask both mean the clique.
        loss: Per-edge i.i.d. message-loss probability (``0 <= loss < 1``);
            a positive loss draws every round's delivered edges, on the
            clique too.
        backend: ``None`` (the default) lets :meth:`run_batch` pick the
            plane representation by batch size — ``packed`` from
            :data:`PACKED_MIN_CELLS` cells ``B × n`` up, ``numpy`` below;
            ``"numpy"``, ``"packed"`` or a
            :class:`~repro.simulator.planes.base.PlaneBackend` forces one
            (the bit-identity tests do).  Both are bit-identical, masked
            (topology/loss) runs included: both hand their planes' words
            (:meth:`~repro.simulator.planes.base.Plane.words`) to the same
            word channels (:mod:`repro.topology.counting`), the packed
            backend its stored words, the boolean backend its arrays packed
            per call; the clique channel reads no words.
    """

    n: int
    t: int
    params: ProtocolParameters
    coin: str
    las_vegas: bool
    max_phases: int
    dealer_seeds: Sequence[int] | None = None
    adjacency: np.ndarray | None = None
    loss: float = 0.0
    backend: str | PlaneBackend | None = None

    def __post_init__(self) -> None:
        if self.coin not in COIN_SOURCES:
            raise ConfigurationError(
                f"coin must be one of {COIN_SOURCES}, got {self.coin!r}"
            )
        if self.coin == "dealer" and self.dealer_seeds is None:
            raise ConfigurationError("the dealer coin needs per-trial dealer_seeds")
        self._delivery = Delivery(self.adjacency, self.loss, self.n)

    # ------------------------------------------------------------------
    def _batch_state(self, inputs: np.ndarray) -> dict[str, np.ndarray]:
        """Allocate the 2-D per-trial state arrays.

        Everything per-node is a boolean plane: values (the protocol is
        binary), liveness and flush bookkeeping.  All updates are expressed
        as boolean algebra (``a ^= (a ^ new) & mask`` style blends) because
        NumPy masked writes cost ~100x more than elementwise and/or/xor
        passes at this shape; row tallies use byte-packing + popcount for the
        same reason.  ``active`` (honest and not yet terminated) is
        maintained incrementally — cleared on corruption and termination — so
        the honest unfinished nodes at the end are exactly the active ones.
        A flush phase always ends one phase after it was scheduled, so flush
        tracking needs only two planes (``flush_next`` set during the current
        phase, promoted to ``flush_now`` at the next phase top) instead of an
        integer phase array.
        """
        batch, n = inputs.shape
        return {
            "value": inputs.astype(bool),
            "decided": np.zeros((batch, n), dtype=bool),
            "corrupted": np.zeros((batch, n), dtype=bool),
            "active": np.ones((batch, n), dtype=bool),
            "can_update": np.ones((batch, n), dtype=bool),
            "flush_now": np.zeros((batch, n), dtype=bool),
            "flush_next": np.zeros((batch, n), dtype=bool),
            "output": np.zeros((batch, n), dtype=bool),
            "budget": np.full(batch, self.t, dtype=np.int64),
            "messages": np.zeros(batch, dtype=np.int64),
            "phases": np.zeros(batch, dtype=np.int64),
        }

    def _committee_slice(self, phase: int) -> tuple[int, int]:
        committee_size = self.params.committee_size
        num_committees = max(1, math.ceil(self.n / committee_size))
        start = ((phase - 1) % num_committees) * committee_size
        return start, min(self.n, start + committee_size)

    # ------------------------------------------------------------------
    def run_batch(
        self,
        inputs: np.ndarray,
        streams: TrialStreams,
        kernel: AdversaryKernel,
    ) -> dict[str, np.ndarray]:
        """Execute ``B`` trials simultaneously under ``kernel``.

        Trial ``b`` draws all of its randomness from ``streams`` row ``b``.
        Returns the final archive planes plus per-trial counters
        (``output`` / ``corrupted`` / ``messages`` / ``phases`` /
        ``timed_out``), in batch order, for the caller's finaliser.
        """
        if not isinstance(streams, TrialStreams):
            raise TypeError(
                f"run_batch draws from a TrialStreams, got {type(streams).__name__}"
            )
        inputs = np.asarray(inputs, dtype=np.int8)
        batch0, n = inputs.shape
        # The protocol's quorums follow the declared bound; the adversary's
        # budget (`_batch_state`) is `self.t`, which may be smaller.
        t = self.params.t
        quorum = n - t
        phase_cap = self.max_phases if self.las_vegas else self.params.num_phases

        delivery = self._delivery
        choice = self.backend
        if choice is None:
            choice = "packed" if batch0 * n >= PACKED_MIN_CELLS else "numpy"
        ops = resolve_backend(choice)
        # Telemetry reads clocks and counters only — it draws no randomness
        # and never touches plane state, so results are bit-identical with
        # tracing on or off (the default NullTracer makes each site a no-op).
        tracer = current_tracer()
        hook_kernel = type(kernel).__name__

        state = self._batch_state(inputs)
        value = ops.from_bools(state["value"])
        decided = ops.from_bools(state["decided"])
        corrupted = ops.from_bools(state["corrupted"])
        active = ops.from_bools(state["active"])
        can_update = ops.from_bools(state["can_update"])
        flush_now = ops.from_bools(state["flush_now"])
        flush_next = ops.from_bools(state["flush_next"])
        output = ops.from_bools(state["output"])
        budget = state["budget"]
        messages = state["messages"]
        phases = state["phases"]

        # Archive (in full batch order) that finished trials scatter into.
        final = self._batch_state(inputs)
        orig = np.arange(batch0)
        dealer_seeds = list(self.dealer_seeds) if self.dealer_seeds is not None else None
        pending_any = False  # does flush_next hold any scheduled flush?

        def archive(rows: np.ndarray) -> None:
            where = orig[rows]
            final["value"][where] = value.bools()[rows]
            final["corrupted"][where] = corrupted.bools()[rows]
            final["active"][where] = active.bools()[rows]
            final["output"][where] = output.bools()[rows]
            final["messages"][where] = messages[rows]
            final["phases"][where] = phases[rows]

        def context(start: int, stop: int, running: np.ndarray) -> KernelContext:
            return KernelContext(
                start, stop, active, corrupted, can_update,
                budget, messages, running, streams, coin=self.coin,
            )

        with tracer.span("engine.setup", batch=batch0, n=n, backend=ops.name):
            with tracer.span("engine.hook.setup", kernel=hook_kernel):
                kernel.setup(context(0, 0, np.ones(batch0, dtype=bool)))

        for phase in range(1, phase_cap + 1):
            sender_count = active.popcount()
            running = sender_count > 0
            live = int(np.count_nonzero(running))
            if live == 0:
                break
            if live <= int(_COMPACTION_THRESHOLD * len(orig)):
                # Compact: archive finished trials and drop their rows;
                # results never depend on it, because trials draw only from
                # their own streams.
                with tracer.span(
                    "engine.compaction", phase=phase, live=live, batch=len(orig)
                ):
                    archive(np.flatnonzero(~running))
                    keep = np.flatnonzero(running)
                    value = value.take(keep)
                    decided = decided.take(keep)
                    corrupted = corrupted.take(keep)
                    active = active.take(keep)
                    can_update = can_update.take(keep)
                    flush_now = flush_now.take(keep)
                    flush_next = flush_next.take(keep)
                    output = output.take(keep)
                    budget = budget[keep]
                    messages = messages[keep]
                    phases = phases[keep]
                    sender_count = sender_count[keep]
                    orig = orig[keep]
                    streams = streams.take(keep)
                    if dealer_seeds is not None:
                        dealer_seeds = [dealer_seeds[i] for i in keep]
                    running = np.ones(live, dtype=bool)
            # Promote last phase's flush schedule; the plane freed by the
            # swap is reused for this phase's schedule.  Stale bits from two
            # phases ago are harmless (their nodes already left `active`).
            flush_now, flush_next = flush_next, flush_now
            finishing_due = pending_any
            if finishing_due:
                flush_next.fill_false()
            phases[running] = phase

            start, stop = self._committee_slice(phase)
            ctx = context(start, stop, running)

            # ---------------- Round 1 ----------------
            # A lossy round's delivered edges are drawn before the kernel
            # speaks (fixed per-phase draw order: round-1 plane, round-2
            # plane, committee shares) and only for running trials.  The
            # round-1 channel's last read precedes the round-2 draw, so both
            # share the delivery's one word buffer.
            with tracer.span("engine.round1", phase=phase):
                chan1 = delivery.channel(streams, running)
                voting = value.and_plane(active)
                ones_pre = voting.popcount()
                with tracer.span("engine.hook.round1", kernel=hook_kernel):
                    effect1 = kernel.round1(ctx, ones_pre, sender_count - ones_pre)
                if ctx.mutated:
                    # The kernel corrupted mid-round; the victims' honest
                    # broadcasts are discarded, so honest tallies are recomputed.
                    with tracer.span("engine.retally", phase=phase):
                        sender_count = active.popcount()
                        voting = value.and_plane(active)
                        ones_honest = voting.popcount()
                    ctx.mutated = False
                else:
                    ones_honest = ones_pre
                # Two tallies cover the round: `active`'s and the `value &
                # active` one; the zero-senders' tally is their exact-integer
                # difference (the two sender sets partition `active`), and
                # `active`'s tally also gives the delivered edges.
                heard = chan1.receive_counts(active, sender_count)
                ones_heard = chan1.receive_counts(voting, ones_honest)
                messages[running] += chan1.delivered_edges(heard)[running]
                ones = ones_heard + np.asarray(effect1.ones)
                zeros = heard - ones_heard + np.asarray(effect1.zeros)
                updatable = active.and_plane(can_update)
                quorum1 = ones >= quorum
                quorum0 = ~quorum1 & (zeros >= quorum)
                quorum_any = quorum1 | quorum0
                if quorum_any.any():
                    value.blend_mask(quorum1, updatable.and_mask(quorum_any))
                decided.blend_mask(quorum_any, updatable)

            # ---------------- Round 2 ----------------
            # Non-rushing committee corruption happens before the flips exist.
            chan2 = delivery.channel(streams, running)
            with tracer.span("engine.pre_coin", phase=phase):
                with tracer.span("engine.hook.pre_coin", kernel=hook_kernel):
                    kernel.pre_coin(ctx)
                if ctx.mutated:
                    with tracer.span("engine.retally", phase=phase):
                        sender_count = active.popcount()
                        updatable = active.and_plane(can_update)
                        chan1 = None  # round 1's `active` tally is stale
                    ctx.mutated = False
            with tracer.span("engine.round2", phase=phase):
                # A loss-free channel already tallied these senders in round
                # 1, unless pre_coin corrupted some; a lossy round has its
                # own delivered edges.
                if chan2 is not chan1:
                    heard = chan2.receive_counts(active, sender_count)
                messages[running] += chan2.delivered_edges(heard)[running]
                # The decided senders and their value-1 part: global counts
                # for the kernel, per-recipient ones through the channel,
                # split as in round 1.
                recorded = active.and_plane(decided)
                recorded_one = value.and_plane(recorded)
                d_honest = recorded.popcount()
                d1_honest = recorded_one.popcount()
                d0_honest = d_honest - d1_honest
                d1_heard = chan2.receive_counts(recorded_one, d1_honest)
                d0_heard = chan2.receive_counts(recorded, d_honest) - d1_heard

                # Share draws: always for the committee coin; lazily for the
                # others, only when a share-hungry kernel can reach the coin case
                # this phase — as soon as any recipient's honest view stays
                # unassigned, since the kernel has not spoken yet — preserving
                # the dealer/private coins' historical per-trial draw schedule
                # bit for bit.
                shares = None
                if self.coin == "committee" or (
                    kernel.needs_shares
                    and (running & ~value_assigned(d1_heard, d0_heard, n, t).all(axis=1)).any()
                ):
                    shares = draw_committee_shares(
                        streams, running, active.bools()[:, start:stop]
                    )
                if shares is not None:
                    honest_sum = shares.sum(axis=1, dtype=np.int64)
                    if self.coin == "committee":
                        shares_heard = chan2.signed_counts(shares, start, honest_sum)
                    if kernel.needs_shares:
                        ctx.shares = shares
                else:
                    honest_sum = np.zeros(len(orig), dtype=np.int64)
                with tracer.span("engine.hook.round2", kernel=hook_kernel):
                    effect2 = kernel.round2(ctx, d1_honest, d0_honest, honest_sum)
                ctx.shares = None
                if ctx.mutated:
                    updatable = active.and_plane(can_update)
                    ctx.mutated = False

                d1 = d1_heard + np.asarray(effect2.decided_one)
                d0 = d0_heard + np.asarray(effect2.decided_zero)
                reach_q1 = d1 >= quorum
                reach_q0 = d0 >= quorum
                # `_best_value_reaching` tie-breaking (highest count wins, value 1
                # on ties) — it matters once an equivocating kernel pushes *both*
                # values past a threshold for some recipients.
                finish1 = reach_q1 & (~reach_q0 | (d1 >= d0))
                finish_any = reach_q1 | reach_q0
                reach0 = d0 >= t + 1
                adopt1 = ~finish_any & (d1 >= t + 1) & (~reach0 | (d1 >= d0))
                # Finishing or adopting either value: everyone else flips the coin.
                assigned_any = value_assigned(d1, d0, n, t)
                coin_case = ~assigned_any

                if assigned_any.any():
                    assigned = updatable.and_mask(assigned_any)
                    value.blend_mask(finish1 | adopt1, assigned)
                    decided.set_where(assigned)
                if finish_any.any():
                    flush_mask = updatable.and_mask(finish_any)
                    flush_next.set_where(flush_mask)
                    can_update.clear_where(flush_mask)
                    pending_any = True
                else:
                    pending_any = False

                # ---------------- The phase coin ----------------
                coin_mask = updatable.and_mask(coin_case)
                if self.coin == "committee":
                    # Each recipient's share sum plus the adversary's
                    # adjustment, which is always delivered (worst case).
                    # Work in the kernel's (narrower) adjustment dtype: a
                    # recipient hears a subset of the shares the kernel saw,
                    # so its sum, like the global one, is bounded by the
                    # committee size.
                    adj = np.asarray(effect2.shares)
                    if adj.ndim:
                        shares_heard = shares_heard.astype(adj.dtype)
                    coin = (shares_heard + adj) >= 0
                    value.blend_mask(coin, coin_mask)
                else:
                    need = running & coin_case.any(axis=1)
                    if need.any():
                        if self.coin == "dealer":
                            from repro.baselines.rabin import dealer_coin_bit

                            assert dealer_seeds is not None
                            coin_rows = np.zeros(len(orig), dtype=bool)
                            for b in np.flatnonzero(need):
                                coin_rows[b] = bool(dealer_coin_bit(dealer_seeds[b], phase))
                            value.blend_mask(coin_rows[:, None], coin_mask)
                        else:  # private
                            # One flip per node of each needing row, drawn
                            # as integers(0, 2, size=n) would draw them.
                            coin_plane = np.zeros((len(orig), n), dtype=bool)
                            flips = streams.draw_bits(np.where(need, n, 0)).view(bool)
                            coin_plane[need] = flips.reshape(-1, n)
                            value.blend_mask(coin_plane, coin_mask)
                decided.clear_where(coin_mask)

            # Flush-phase terminations (nodes finishing this phase).
            if finishing_due:
                finishing = active.and_plane(flush_now)
                output.blend_plane(value, finishing)
                active.clear_where(finishing)

            # Bounded variant: decide by exhaustion after the last phase.
            if not self.las_vegas and phase >= self.params.num_phases:
                output.blend_plane(value, active)
                active.fill_false()

        archive(np.arange(len(orig)))
        timed_out = final["active"].any(axis=1)
        # Treat unfinished honest nodes' current value as their output so
        # that agreement/validity can still be evaluated.
        final["output"] ^= (final["output"] ^ final["value"]) & final["active"]
        return {
            "output": final["output"],
            "corrupted": final["corrupted"],
            "messages": final["messages"],
            "phases": final["phases"],
            "rounds": 2 * final["phases"],
            "timed_out": timed_out,
        }
