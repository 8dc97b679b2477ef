"""The uint64 bit-packed plane backend.

A :class:`PackedPlane` stores 64 *nodes per word*: row ``b`` of the
``(B, W)`` uint64 word array packs trial ``b``'s ``n`` node bits with
``W = ceil(n / 64)`` (``np.packbits`` bit order — array element 0 is the MSB
of byte 0 — padded to a whole word count; the tail bits beyond column ``n``
are zero by invariant).  Node-major packing is what makes every engine op a
straight word op: per-trial tallies are ``bitwise_count`` row sums, masked
tallies hand the stored words (:meth:`PackedPlane.words`) to the word
channels of :mod:`repro.topology.counting` as they are, blends are three
fused word passes, and ``(B, 1)`` per-trial condition masks broadcast as
single all-ones/all-zero words — at ``n = 2000`` the word ops
measure 4–5x cheaper than their boolean-array forms (see
``benchmarks/bench_planeops.py``).  Trials-per-word packing was rejected:
the engine's tallies are per *trial*, which packed-trial words could only
answer with bit-sliced vertical counting.

The expensive direction is the boundary.  ``np.packbits`` /
``np.unpackbits`` cost about as much as one full boolean-plane pass, so the
plane keeps **dual representations with two staleness flags**: word ops
lazily pack and invalidate the bool mirror, kernel hooks lazily unpack and —
via :meth:`mark_bools_dirty` — invalidate the words.  In the steady state a
passive phase converts nothing; a phase where an adversary kernel corrupts
pays one repack of the planes it touched; planes only the engine updates
(``value``, ``decided``, the flush planes) stay packed across the whole run
unless a kernel actually reads them.

Tail-bit invariant: every stored word array has zero bits at columns
``>= n``.  All-ones broadcast words (from ``(B, 1)`` masks) may carry tail
ones, but they only ever enter stored planes through ``& where`` against a
clean plane, so the invariant is preserved without explicit re-masking —
and ``popcount`` therefore never over-counts, nor does a channel tallying
:meth:`PackedPlane.words`.
"""

from __future__ import annotations

import numpy as np

from repro.observability.tracer import current_tracer
from repro.simulator.planes.base import Plane, PlaneBackend
from repro.topology.counting import pack_sender_words

__all__ = ["PackedBackend", "PackedPlane", "unpack_words"]

#: The all-ones broadcast word for ``(B, 1)`` condition masks.
_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)
_ZERO_WORD = np.uint64(0)


def unpack_words(words: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Unpack ``(B, W)`` uint64 words back to a ``(B, n)`` boolean array."""
    byte_view = np.ascontiguousarray(words).view(np.uint8)[:, : (n + 7) // 8]
    bits = np.unpackbits(byte_view, axis=1, count=n).view(bool)
    if out is None:
        return bits
    out[...] = bits
    return out


class PackedPlane(Plane):
    """Dual-representation plane: packed words + a lazy bool mirror."""

    __slots__ = ("n", "_words", "_bools", "_words_valid", "_bools_valid")

    def __init__(
        self,
        n: int,
        *,
        words: np.ndarray | None = None,
        bools: np.ndarray | None = None,
    ) -> None:
        self.n = n
        self._words = words
        self._bools = bools
        self._words_valid = words is not None
        self._bools_valid = bools is not None

    # -------------------------------------------------- representation sync
    def _require_words(self) -> np.ndarray:
        if not self._words_valid:
            current_tracer().count("plane.pack")
            self._words = pack_sender_words(self._bools, self.n)
            self._words_valid = True
        return self._words

    def _words_mutated(self) -> np.ndarray:
        """The word array, about to be updated in place: bool mirror stales."""
        words = self._require_words()
        self._bools_valid = False
        return words

    def bools(self) -> np.ndarray:
        current_tracer().count("plane.bools")
        if not self._bools_valid:
            current_tracer().count("plane.unpack")
            if self._bools is None:
                self._bools = unpack_words(self._words, self.n)
            else:
                unpack_words(self._words, self.n, out=self._bools)
            self._bools_valid = True
        return self._bools

    def mark_bools_dirty(self) -> None:
        self._words_valid = False

    def _mask_words(self, mask: np.ndarray) -> np.ndarray:
        """A ``(B, 1)`` or ``(B, n)`` bool mask in word form.

        ``(B, 1)`` per-trial conditions become single broadcast words (the
        cheap, common case on the clique); a ``(B, n)`` plane is packed at
        boolean-plane parity cost.
        """
        if mask.shape[1] == 1:
            return np.where(mask, _FULL_WORD, _ZERO_WORD)
        return pack_sender_words(mask, self.n)

    # -------------------------------------------------- tallies
    def popcount(self) -> np.ndarray:
        current_tracer().count("plane.word_ops")
        return np.bitwise_count(self._require_words()).sum(axis=1, dtype=np.int64)

    def words(self) -> np.ndarray:
        current_tracer().count("plane.word_ops")
        return self._require_words()

    # -------------------------------------------------- temporaries
    def and_plane(self, other: PackedPlane) -> PackedPlane:
        current_tracer().count("plane.word_ops")
        return type(self)(
            self.n, words=self._require_words() & other._require_words()
        )

    def and_mask(self, mask: np.ndarray) -> PackedPlane:
        current_tracer().count("plane.word_ops")
        return type(self)(
            self.n, words=self._require_words() & self._mask_words(mask)
        )

    # -------------------------------------------------- in-place updates
    def blend_mask(self, src: np.ndarray, where: PackedPlane) -> None:
        current_tracer().count("plane.word_ops")
        words = self._words_mutated()
        words ^= (words ^ self._mask_words(src)) & where._require_words()

    def blend_plane(self, src: PackedPlane, where: PackedPlane) -> None:
        current_tracer().count("plane.word_ops")
        words = self._words_mutated()
        words ^= (words ^ src._require_words()) & where._require_words()

    def set_where(self, where: PackedPlane) -> None:
        current_tracer().count("plane.word_ops")
        words = self._words_mutated()
        words |= where._require_words()

    def clear_where(self, where: PackedPlane) -> None:
        current_tracer().count("plane.word_ops")
        words = self._words_mutated()
        words &= ~where._require_words()

    def fill_false(self) -> None:
        # Zero every materialised representation: both stay valid and agree.
        if self._words is not None:
            self._words[:] = 0
            self._words_valid = True
        if self._bools is not None:
            self._bools[:] = False
            self._bools_valid = True

    # -------------------------------------------------- structure
    def take(self, keep: np.ndarray) -> PackedPlane:
        taken = type(self)(self.n)
        if self._words_valid:
            taken._words = self._words[keep]
            taken._words_valid = True
        if self._bools_valid:
            taken._bools = self._bools[keep]
            taken._bools_valid = True
        return taken


class PackedBackend(PlaneBackend):
    """Planes as uint64 word arrays, 64 nodes per word."""

    name = "packed"

    def from_bools(self, array: np.ndarray) -> PackedPlane:
        # Adopt the array as the bool mirror; words pack lazily on first op.
        return PackedPlane(array.shape[1], bools=array)
