"""The reference NumPy-bool plane backend.

A :class:`NumpyBoolPlane` is a thin handle around the engine's historical
``(B, n)`` boolean array: every op is the exact inline expression
:class:`~repro.simulator.phase_engine.PhaseEngine` used before the backend
seam existed (XOR-blends, ``packbits``/``bitwise_count`` row tallies,
fancy-index compaction), so running the engine on this backend *is* the
historical code path — the bit-identity baseline every other backend is
held to.  :meth:`NumpyBoolPlane.words` packs the array on every call, since
a boolean plane keeps no words.  :meth:`NumpyBoolPlane.bools` returns the
wrapped array itself: adversary kernels mutate the live state directly and
:meth:`mark_bools_dirty` is a no-op.
"""

from __future__ import annotations

import numpy as np

from repro.observability.tracer import current_tracer
from repro.simulator.bitplanes import row_popcount
from repro.simulator.planes.base import Plane, PlaneBackend
from repro.topology.counting import pack_sender_words

__all__ = ["NumpyBoolBackend", "NumpyBoolPlane"]


class NumpyBoolPlane(Plane):
    """A plane stored as the ``(B, n)`` boolean array itself."""

    __slots__ = ("array", "n")

    def __init__(self, array: np.ndarray) -> None:
        self.array = array
        self.n = array.shape[1]

    # -------------------------------------------------- tallies
    def popcount(self) -> np.ndarray:
        current_tracer().count("plane.bool_ops")
        return row_popcount(self.array)

    def words(self) -> np.ndarray:
        current_tracer().count("plane.bool_ops")
        return pack_sender_words(self.array, self.n)

    # -------------------------------------------------- temporaries
    def and_plane(self, other: NumpyBoolPlane) -> NumpyBoolPlane:
        current_tracer().count("plane.bool_ops")
        return NumpyBoolPlane(self.array & other.array)

    def and_mask(self, mask: np.ndarray) -> NumpyBoolPlane:
        current_tracer().count("plane.bool_ops")
        return NumpyBoolPlane(self.array & mask)

    # -------------------------------------------------- in-place updates
    def blend_mask(self, src: np.ndarray, where: NumpyBoolPlane) -> None:
        current_tracer().count("plane.bool_ops")
        self.array ^= (self.array ^ src) & where.array

    def blend_plane(self, src: NumpyBoolPlane, where: NumpyBoolPlane) -> None:
        current_tracer().count("plane.bool_ops")
        self.array ^= (self.array ^ src.array) & where.array

    def set_where(self, where: NumpyBoolPlane) -> None:
        current_tracer().count("plane.bool_ops")
        self.array |= where.array

    def clear_where(self, where: NumpyBoolPlane) -> None:
        current_tracer().count("plane.bool_ops")
        self.array &= ~where.array

    def fill_false(self) -> None:
        self.array[:] = False

    # -------------------------------------------------- structure
    def take(self, keep: np.ndarray) -> NumpyBoolPlane:
        return NumpyBoolPlane(self.array[keep])

    # -------------------------------------------------- bool boundary
    def bools(self) -> np.ndarray:
        current_tracer().count("plane.bools")
        return self.array

    def mark_bools_dirty(self) -> None:
        pass


class NumpyBoolBackend(PlaneBackend):
    """The reference backend (and the small-batch path): plain boolean arrays."""

    name = "numpy"

    def from_bools(self, array: np.ndarray) -> NumpyBoolPlane:
        return NumpyBoolPlane(array)
