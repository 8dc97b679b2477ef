"""The plane-backend contract: one op surface, two representations.

The hook-driven :class:`repro.simulator.phase_engine.PhaseEngine` expresses
its whole per-phase loop — tallies, XOR-blend updates, flush bookkeeping,
compaction — against the twelve operations defined here, so the
*representation* of a ``(B, n)`` boolean plane can change per batch (the
``CyScheduler``/``PyScheduler`` switch idiom, decided by batch size).  Two
invariants make a backend drop-in:

* **Exactness.**  Every tally returns exact ``int64`` counts and every
  in-place update implements the same boolean algebra as the reference
  NumPy-bool backend.  Randomness never flows through a plane, so a backend
  can never perturb the engine's Philox streams — which is why both
  backends are *bit-identical*, not statistically equivalent, and why the
  sweep results store keys cached points by engine family without a
  backend component.
* **Live bool views.**  :meth:`Plane.bools` returns a ``(B, n)`` boolean
  array that *is* the plane (adversary kernels mutate it in place through
  :class:`~repro.adversary.kernels.base.KernelContext`).  A backend holding
  a different primary representation materialises the view lazily and must
  be told about external mutations via :meth:`Plane.mark_bools_dirty` —
  the pack/unpack boundary of the bit-packed backend.

Every tally the engine takes is over an AND of planes
(:meth:`Plane.and_plane`): its per-row :meth:`~Plane.popcount`, the global
count the adversary kernel reads, handed with the plane to the round's
delivery channel (:mod:`repro.topology.counting`).  The clique channel
returns that count as each recipient's; the word channels off it tally the
plane's packed :meth:`~Plane.words`.  The op names mirror the engine's
inline expressions: a *mask* is a plain boolean ndarray of shape ``(B, 1)``
(a per-trial threshold column, the clique's case) or ``(B, n)`` (a
per-recipient plane, the masked topology path's case); a *plane* is another
:class:`Plane` of the same backend.  Mixing planes from different backends
is undefined.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Plane", "PlaneBackend"]


class Plane(ABC):
    """One ``(B, n)`` boolean plane in a backend-native representation."""

    #: Plane width ``n`` (columns); rows are trials.
    n: int

    # -------------------------------------------------- tallies
    @abstractmethod
    def popcount(self) -> np.ndarray:
        """``(B,)`` int64 per-row count of True cells."""

    @abstractmethod
    def words(self) -> np.ndarray:
        """The plane as ``(B, ceil(n/64))`` uint64 words, read-only.

        The :func:`~repro.topology.counting.pack_sender_words` layout, tail
        bits zero: the one form the word channels tally
        (``receive_counts_words``).
        """

    # -------------------------------------------------- temporaries
    @abstractmethod
    def and_plane(self, other: Plane) -> Plane:
        """New plane ``self & other``."""

    @abstractmethod
    def and_mask(self, mask: np.ndarray) -> Plane:
        """New plane ``self & mask`` (a ``(B, 1)`` or ``(B, n)`` mask)."""

    # -------------------------------------------------- in-place updates
    @abstractmethod
    def blend_mask(self, src: np.ndarray, where: Plane) -> None:
        """``self ^= (self ^ src) & where`` for a ``(B, 1)`` or ``(B, n)`` mask."""

    @abstractmethod
    def blend_plane(self, src: Plane, where: Plane) -> None:
        """``self ^= (self ^ src) & where`` for a same-backend source plane."""

    @abstractmethod
    def set_where(self, where: Plane) -> None:
        """``self |= where``."""

    @abstractmethod
    def clear_where(self, where: Plane) -> None:
        """``self &= ~where``."""

    @abstractmethod
    def fill_false(self) -> None:
        """Set every cell False."""

    # -------------------------------------------------- structure
    @abstractmethod
    def take(self, keep: np.ndarray) -> Plane:
        """New plane holding the ``keep``-indexed row subset (compaction)."""

    # -------------------------------------------------- bool boundary
    @abstractmethod
    def bools(self) -> np.ndarray:
        """The live ``(B, n)`` boolean view of this plane.

        Callers may mutate the returned array in place, but must then call
        :meth:`mark_bools_dirty` before the next backend op — the adversary
        hook boundary (:meth:`KernelContext.corrupt` does this for every
        kernel).  Until then, repeated calls return the same array.
        """

    @abstractmethod
    def mark_bools_dirty(self) -> None:
        """Declare the :meth:`bools` view mutated (authoritative) in place."""


class PlaneBackend(ABC):
    """Factory for one plane representation."""

    #: The name ``resolve_backend`` and the ``engine.setup`` span use.
    name: str = "abstract"

    @abstractmethod
    def from_bools(self, array: np.ndarray) -> Plane:
        """Adopt a ``(B, n)`` boolean array as a plane (no defensive copy)."""
