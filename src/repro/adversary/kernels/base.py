"""The batched adversary-kernel protocol.

Every adversary strategy the plane engines simulate is an
:class:`AdversaryKernel`: operations on ``(B, n)`` planes, from the trivial
passive/silent behaviours through the sampled random-noise babble to the
adaptive share attacks and per-recipient equivocators.  The shared
:class:`repro.simulator.phase_engine.PhaseEngine` (serving the committee-BA
family, Chor–Coan, Rabin and Ben-Or) and the hook-consuming baseline kernels
(phase-king foremost) drive one kernel instance through four hooks per batch,
each handed a :class:`KernelContext` of three plane handles (``active``,
``corrupted``, ``can_update``) plus the per-trial counters:

``setup``
    Before round 1 of phase 1: corrupt the strategy's
    :meth:`~AdversaryKernel.initial_corrupted_columns` in every row (the
    silent, random-noise and static strategies burn their whole budget
    here).  It is the one up-front corruption path; no kernel overrides it.

``round1``
    Rushing view of the round-1 broadcast tallies.  The kernel may corrupt
    (through :meth:`KernelContext.corrupt`) and returns the *additive*
    per-recipient announcement planes — how many extra ``1``/``0``
    round-1 values each recipient receives from corrupted senders.

``pre_coin``
    Between the two rounds, *before* the committee's coin shares are drawn.
    This is the only hook a non-rushing adversary may corrupt committee
    members in: it models corrupting the upcoming committee without having
    seen its flips (the corrupted members' shares are discarded exactly as
    the object scheduler discards a freshly corrupted node's honest
    messages).

``round2``
    Rushing view of the round-2 ``decided`` tallies and the honest committee
    share sum.  Returns additive per-recipient ``decided``-record planes and
    a per-recipient coin-share adjustment plane.

Additive planes are broadcastable against ``(B, n)`` — a uniform strategy
returns ``(B, 1)`` columns, a two-group equivocator returns full ``(B, n)``
planes — so the engine's threshold logic is written once, in plane form, and
never needs to know which strategy it is executing.  Kernels must account
their own adversary message traffic by adding to ``ctx.messages``.  Which
trials fall through to the coin is one rule, :func:`value_assigned`, that the
engine and the share attacks both read.

Only the ``random-noise`` kernel draws from the per-trial Philox streams
(``ctx.streams``, in a fixed order the engines preserve); every other strategy
is deterministic given the honest randomness (targets are picked
lowest-id-first, exactly like
:meth:`repro.adversary.adaptive.AdaptiveAdversary.pick_targets`), so the
honest trial streams stay bit-compatible across engines and batch
compositions.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.core.parameters import ProtocolParameters

if TYPE_CHECKING:
    from repro.simulator.draws import TrialStreams
    from repro.simulator.planes.base import Plane

#: An additive per-recipient count: anything broadcastable to ``(B, n)``.
#: ``0`` (the default) means "no adversary contribution".
CountPlane = int | np.ndarray


@dataclass
class KernelContext:
    """The engine state a kernel hook may read — and, for corruption, mutate.

    ``active_plane``, ``corrupted_plane`` and ``can_update_plane`` are
    :class:`repro.simulator.planes.base.Plane` handles on the live engine
    state, on either representation (phase king wraps its own arrays as
    :class:`~repro.simulator.planes.numpy_bool.NumpyBoolPlane` views).
    ``active``, ``corrupted`` and ``can_update`` resolve to their ``(B, n)``
    boolean views, unpacked *lazily, per access*, so a hook that never reads
    a plane never pays for unpacking it, and a hook reading a plane the
    engine updated since the last hook sees the fresh state.  A kernel
    corrupts node ``v`` of trial ``b`` through :meth:`corrupt` only: it sets
    ``corrupted[b, v]``, clears ``active[b, v]``, decrements ``budget[b]``
    and marks both planes' bool views authoritative, so ``t - budget`` is
    always the corrupted count.  Everything else must be treated as
    read-only.

    Attributes:
        committee_start / committee_stop: Id slice ``[start, stop)`` of the
            phase's designated committee.
        active_plane / corrupted_plane / can_update_plane: ``(B, n)`` plane
            handles; ``active`` is honest-and-not-terminated, ``can_update``
            is False once a node is flushing.
        budget: ``(B,)`` remaining corruptions per trial.
        messages: ``(B,)`` running message counters (kernels add their own
            adversary traffic here).
        running: ``(B,)`` trials still executing; its length is the batch
            size, and hooks must not touch finished rows.
        streams: The per-trial Philox streams (compacted alongside the
            planes); a sampling strategy draws trial ``b``'s randomness
            through ``streams[b]``, a ``Generator``.
        shares: ``(B, committee_stop - committee_start)`` int8 plane of the
            freshly drawn committee coin shares (columns aligned to the
            committee slice; zero where the member is inactive), available to
            rushing kernels during the :meth:`AdversaryKernel.round2` hook
            only; ``None`` elsewhere, and all-zero when the engine skipped
            the lazy draw because no trial can reach the coin case.
        coin: The engine's coin source — ``"committee"`` (shares decide the
            coin), ``"dealer"`` or ``"private"`` (shares are broadcast but
            ignored by the coin); kernels use it to skip share effects that
            cannot influence the run.
        mutated: Set by :meth:`corrupt`; the engine clears it after
            re-tallying, so hooks that corrupt nobody cost no redundant plane
            reductions.

    A kernel's ``(B, n)`` coin-share adjustment plane is built in
    :func:`share_adjustment_dtype` of its ``params.committee_size`` (int8 for a
    committee of at most 127): the committee slice never exceeds that size,
    so the honest share sum plus the adjustment fits it (see
    :class:`Round2Effect`).
    """

    committee_start: int
    committee_stop: int
    active_plane: Plane
    corrupted_plane: Plane
    can_update_plane: Plane
    budget: np.ndarray
    messages: np.ndarray
    running: np.ndarray
    streams: TrialStreams
    shares: np.ndarray | None = None
    coin: str = "committee"
    mutated: bool = False

    @property
    def active(self) -> np.ndarray:
        return self.active_plane.bools()

    @property
    def corrupted(self) -> np.ndarray:
        return self.corrupted_plane.bools()

    @property
    def can_update(self) -> np.ndarray:
        return self.can_update_plane.bools()

    def active_count(self) -> np.ndarray:
        """``(B,)`` active nodes per trial, counted on the plane's own form.

        A packed plane counts its words without unpacking them (and repacks
        them first if :meth:`corrupt` edited the boolean view since).
        """
        return self.active_plane.popcount()

    def corrupt(
        self,
        new_corrupt: np.ndarray,
        *,
        start: int = 0,
        stop: int | None = None,
        count: np.ndarray | int | None = None,
    ) -> None:
        """Corrupt a mask of nodes, with budget bookkeeping.

        ``new_corrupt`` must select currently-honest nodes only and respect
        each row's remaining budget (kernels enforce this by construction:
        targets are drawn from ``active`` and capped at ``budget``).  Kernels
        corrupting inside the committee slice pass ``start``/``stop`` and a
        column-sliced mask — the id-slice committees make that the common
        case, and slice-local writes cost a fraction of full-plane passes.
        ``count`` short-circuits the per-row popcount when the caller already
        knows how many nodes each row corrupts; it is required for an
        ``(n,)`` mask, which corrupts the same columns in every row.
        """
        columns = slice(start, stop)
        self.corrupted[:, columns] |= new_corrupt
        self.active[:, columns] &= ~new_corrupt
        self.corrupted_plane.mark_bools_dirty()
        self.active_plane.mark_bools_dirty()
        if count is None:
            count = np.count_nonzero(new_corrupt, axis=1)
        self.budget -= count
        self.mutated = True


def value_assigned(
    decided_one: np.ndarray, decided_zero: np.ndarray, n: int, t: int
) -> np.ndarray:
    """Where round 2's ``decided`` tallies assign a value, not the coin.

    A recipient finishes on ``n - t`` records of one value and adopts one on
    ``t + 1``; it falls through to the coin only when neither tally reaches
    either threshold, so the assigned set is ``max(d1, d0) >= min(n - t,
    t + 1)`` for any ``n`` and ``t``.  Broadcasts like the tallies: ``(B,)``
    global counts, ``(B, 1)`` columns or ``(B, n)`` per-recipient planes.
    """
    return np.maximum(decided_one, decided_zero) >= min(n - t, t + 1)


@dataclass
class Round1Effect:
    """Additive round-1 announcement planes from the corrupted senders."""

    ones: CountPlane = 0
    zeros: CountPlane = 0


def share_adjustment_dtype(committee_size: int) -> np.dtype:
    """The signed dtype of every ``(B, n)`` coin-share adjustment plane.

    The narrowest one holding ``-(committee_size + 1)``: int8 up to a
    committee of 127, then int16, then int32.  A recipient's coin is the sign
    of the honest share sum ``S`` (``|S| <= committee_size``) plus its
    adjustment, and every share kernel keeps the adjustment, and ``S`` plus
    it, within ``[-(committee_size + 1), committee_size]``, so the engine's
    coin line adds and compares in this dtype without overflow.
    """
    return np.min_scalar_type(-(committee_size + 1))


@dataclass
class Round2Effect:
    """Additive round-2 record / coin-share planes from the corrupted senders.

    A ``(B, n)`` ``shares`` plane comes in
    ``share_adjustment_dtype(params.committee_size)``: the engine works in the
    adjustment's dtype, so that dtype must hold the honest committee sum plus
    the adjustment.  A scalar ``0`` (no adjustment) needs no dtype.
    """

    decided_one: CountPlane = 0
    decided_zero: CountPlane = 0
    shares: CountPlane = 0


@dataclass
class AdversaryKernel(ABC):
    """Base class for batched adversary strategies on ``(B, n)`` planes.

    Concrete kernels override the per-phase hooks they need; the defaults
    model a passive adversary.  Up-front corruption is declared, not coded:
    a kernel overrides :meth:`initial_corrupted_columns` and the one
    :meth:`setup` here corrupts those columns.  One kernel instance serves
    one :meth:`run_batch` call, so kernels may keep per-batch state across
    phases (none of the current strategies need any — their state is fully
    captured by the ``corrupted``/``budget`` planes).
    """

    n: int
    t: int
    params: ProtocolParameters

    #: True when the kernel reads the fresh committee share plane
    #: (``ctx.shares``) in :meth:`round2`; the engine then guarantees the
    #: plane is drawn before the hook runs (lazily, for non-committee coins,
    #: only in phases where some trial can actually reach the coin case).
    needs_shares: ClassVar[bool] = False

    @classmethod
    def initial_corrupted_columns(cls, n: int, t: int) -> np.ndarray:
        """``(n,)`` mask of the nodes the strategy corrupts up front.

        :meth:`setup` corrupts exactly these columns in every row, and the
        closed-form kernels (EIG, sampling-majority), which model
        mute-at-start behaviours without driving the per-phase hooks, read
        the same mask.  Default: nobody.
        """
        return np.zeros(n, dtype=bool)

    @classmethod
    def crafted_traffic(cls, corrupted: int, honest: int, round_in_phase: int) -> int:
        """Messages the corrupted nodes send per round to honest recipients.

        The closed-form kernels use this to account delivered-but-ignored
        adversary traffic (the object scheduler counts those messages even
        when the protocol discards the payloads).  Default: a mute strategy.
        """
        return 0

    def setup(self, ctx: KernelContext) -> None:
        """Corrupt :meth:`initial_corrupted_columns` in every row, before round 1."""
        columns = self.initial_corrupted_columns(self.n, self.t)
        if columns.any():
            ctx.corrupt(columns, count=np.count_nonzero(columns))

    def round1(self, ctx: KernelContext, ones: np.ndarray, zeros: np.ndarray) -> Round1Effect:
        """React to the round-1 broadcast; may corrupt adaptively.

        Args:
            ones / zeros: ``(B,)`` honest per-value tallies of the round's
                broadcast *before* any corruption this hook performs (the
                rushing view — a node corrupted now has its honest broadcast
                discarded by the engine afterwards).
        """
        return Round1Effect()

    def pre_coin(self, ctx: KernelContext) -> None:
        """Corrupt committee members *before* their coin flips are drawn."""

    def round2(
        self,
        ctx: KernelContext,
        decided_one: np.ndarray,
        decided_zero: np.ndarray,
        share_sum: np.ndarray,
    ) -> Round2Effect:
        """React to the round-2 broadcast (rushing view of tallies and coin).

        Args:
            decided_one / decided_zero: ``(B,)`` honest ``decided`` record
                tallies per value.
            share_sum: ``(B,)`` sum of the honest committee members' fresh
                coin shares (only meaningful to rushing kernels).
        """
        return Round2Effect()
