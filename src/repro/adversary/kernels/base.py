"""The batched adversary-kernel protocol.

Every adversary strategy the plane engines simulate is an
:class:`AdversaryKernel`: operations on ``(B, n)`` planes, from the trivial
passive/silent behaviours through the sampled random-noise babble to the
adaptive share attacks and per-recipient equivocators.  The shared
:class:`repro.simulator.phase_engine.PhaseEngine` (serving the committee-BA
family, Chor–Coan, Rabin and Ben-Or) and the hook-consuming baseline kernels
(phase-king foremost) drive one kernel instance through four hooks per batch:

``setup``
    Before round 1 of phase 1: spend any up-front corruptions (static
    strategies burn their whole budget here).

``round1``
    Rushing view of the round-1 broadcast tallies.  The kernel may corrupt
    (mutating the context planes in place) and returns the *additive*
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
their own adversary message traffic by adding to ``ctx.messages``.

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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.core.parameters import ProtocolParameters
from repro.simulator.bitplanes import row_popcount

if TYPE_CHECKING:
    from repro.simulator.draws import TrialStreams

#: An additive per-recipient count: anything broadcastable to ``(B, n)``.
#: ``0`` (the default) means "no adversary contribution".
CountPlane = int | np.ndarray


class KernelContext:
    """The engine state a kernel hook may read — and, for corruption, mutate.

    The boolean planes are *views into the live engine state*: a kernel
    corrupts node ``v`` of trial ``b`` by setting ``corrupted[b, v] = True``
    and ``active[b, v] = False`` and decrementing ``budget[b]`` — the same
    three-way bookkeeping the engine's built-in straddle uses.  Everything
    else must be treated as read-only.

    The five boolean planes may be constructed either from plain ``(B, n)``
    arrays (the baseline kernels and the test-suite do this) or from
    :class:`repro.simulator.planes.base.Plane` handles (the engine always
    does, on either representation).  Either way the attributes resolve
    to boolean arrays — plane handles are unpacked *lazily, per access*, so
    a hook that never reads ``value`` never pays for unpacking it, and a
    hook reading a plane the engine updated since the last hook sees the
    fresh state.  Kernels that mutate a plane in place outside
    :meth:`corrupt` must call the handle's ``mark_bools_dirty`` themselves
    (no current kernel does; :meth:`corrupt` is the single mutation choke
    point and handles the bookkeeping).

    Attributes:
        n / t: Network size and corruption budget of the configuration.
        params: Committee geometry (size, count, phase schedule).
        phase: Current 1-based phase.
        committee_start / committee_stop: Id slice ``[start, stop)`` of the
            phase's designated committee.
        value / decided / active / corrupted / can_update: ``(B, n)`` planes;
            ``active`` is honest-and-not-terminated, ``can_update`` is False
            once a node is flushing.
        budget: ``(B,)`` remaining corruptions per trial.
        messages: ``(B,)`` running message counters (kernels add their own
            adversary traffic here).
        running: ``(B,)`` trials still executing; hooks must not touch
            finished rows.
        streams: The per-trial Philox streams (compacted alongside the
            planes); a sampling strategy draws trial ``b``'s randomness
            through ``streams[b]``, a ``Generator``.  ``None`` before the
            engine attaches them.
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

    A kernel's ``(B, n)`` coin-share adjustment plane is built in
    :func:`share_adjustment_dtype` of ``params.committee_size`` (int8 for a
    committee of at most 127): the committee slice never exceeds that size,
    so the honest share sum plus the adjustment fits it (see
    :class:`Round2Effect`).
    """

    def __init__(
        self,
        n: int,
        t: int,
        params: ProtocolParameters,
        phase: int,
        committee_start: int,
        committee_stop: int,
        value: np.ndarray,
        decided: np.ndarray,
        active: np.ndarray,
        corrupted: np.ndarray,
        can_update: np.ndarray,
        budget: np.ndarray,
        messages: np.ndarray,
        running: np.ndarray,
        streams: TrialStreams | None = None,
        shares: np.ndarray | None = None,
        coin: str = "committee",
        mutated: bool = False,
    ) -> None:
        self.n = n
        self.t = t
        self.params = params
        self.phase = phase
        self.committee_start = committee_start
        self.committee_stop = committee_stop
        # Arrays pass through as-is; Plane handles resolve via .bools().
        self._planes = {
            "value": value,
            "decided": decided,
            "active": active,
            "corrupted": corrupted,
            "can_update": can_update,
        }
        self.budget = budget
        self.messages = messages
        self.running = running
        self.streams = streams
        self.shares = shares
        self.coin = coin
        #: Set by :meth:`corrupt`; the engine clears it after re-tallying, so
        #: hooks that corrupt nobody cost no redundant plane reductions.
        self.mutated = mutated

    def _plane_bools(self, name: str) -> np.ndarray:
        plane = self._planes[name]
        if isinstance(plane, np.ndarray):
            return plane
        return plane.bools()

    @property
    def value(self) -> np.ndarray:
        return self._plane_bools("value")

    @property
    def decided(self) -> np.ndarray:
        return self._plane_bools("decided")

    @property
    def active(self) -> np.ndarray:
        return self._plane_bools("active")

    @property
    def corrupted(self) -> np.ndarray:
        return self._plane_bools("corrupted")

    @property
    def can_update(self) -> np.ndarray:
        return self._plane_bools("can_update")

    def active_count(self) -> np.ndarray:
        """``(B,)`` active nodes per trial, counted on the plane's own form.

        A packed plane counts its words without unpacking.  Its words go
        stale when :meth:`corrupt` edits the boolean mirror, so a hook that
        corrupts reads the count first and subtracts its victims.
        """
        plane = self._planes["active"]
        return row_popcount(plane) if isinstance(plane, np.ndarray) else plane.popcount()

    def _mark_plane_dirty(self, name: str) -> None:
        plane = self._planes[name]
        if not isinstance(plane, np.ndarray):
            plane.mark_bools_dirty()

    @property
    def committee_mask(self) -> np.ndarray:
        """``(n,)`` membership mask of the phase's designated committee."""
        mask = np.zeros(self.n, dtype=bool)
        mask[self.committee_start : self.committee_stop] = True
        return mask

    def corrupt(
        self,
        new_corrupt: np.ndarray,
        *,
        start: int = 0,
        stop: int | None = None,
        count: np.ndarray | None = None,
    ) -> None:
        """Corrupt a mask of nodes, with budget bookkeeping.

        ``new_corrupt`` must select currently-honest nodes only and respect
        each row's remaining budget (kernels enforce this by construction:
        targets are drawn from ``active`` and capped at ``budget``).  Kernels
        corrupting inside the committee slice pass ``start``/``stop`` and a
        column-sliced mask — the id-slice committees make that the common
        case, and slice-local writes cost a fraction of full-plane passes.
        ``count`` short-circuits the per-row popcount when the caller already
        knows how many nodes each row corrupts.
        """
        columns = slice(start, stop)
        self.corrupted[:, columns] |= new_corrupt
        self.active[:, columns] &= ~new_corrupt
        self._mark_plane_dirty("corrupted")
        self._mark_plane_dirty("active")
        if count is None:
            count = np.count_nonzero(new_corrupt, axis=1)
        self.budget -= count
        self.mutated = True


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

    Concrete kernels override the hooks they need; the defaults model a
    passive adversary.  One kernel instance serves one :meth:`run_batch`
    call, so kernels may keep per-batch state across phases (none of the
    current strategies need any — their state is fully captured by the
    ``corrupted``/``budget`` planes).
    """

    n: int
    t: int
    params: ProtocolParameters

    #: Mirrors :attr:`repro.adversary.base.Adversary.rushing`; non-rushing
    #: kernels corrupt in :meth:`pre_coin` and never read fresh shares.
    rushing: bool = field(default=True, init=False)

    #: True when the kernel reads the fresh committee share plane
    #: (``ctx.shares``) in :meth:`round2`; the engine then guarantees the
    #: plane is drawn before the hook runs (lazily, for non-committee coins,
    #: only in phases where some trial can actually reach the coin case).
    needs_shares: ClassVar[bool] = False

    @classmethod
    def initial_corrupted_columns(cls, n: int, t: int) -> np.ndarray:
        """``(n,)`` mask of the nodes the strategy corrupts up front.

        Consumed by the closed-form kernels (EIG, sampling-majority) that
        model mute-at-start behaviours without driving the per-phase hooks;
        must match what :meth:`setup` does on the plane engines.
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
        """Spend up-front corruptions before round 1 of phase 1."""

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
