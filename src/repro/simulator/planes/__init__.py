"""The two plane representations of the batched engines.

The :class:`~repro.simulator.phase_engine.PhaseEngine` runs its ``(B, n)``
boolean state planes through the twelve-op contract of
:mod:`repro.simulator.planes.base` (every tally is an ``and_plane``
composed with ``popcount`` or handed on as ``words``), in one of two
representations:

``numpy``
    The reference: planes are the boolean arrays themselves and every op is
    the engine's historical inline expression
    (:mod:`repro.simulator.planes.numpy_bool`).

``packed``
    uint64 bit-packed words, 64 nodes per word, in the
    :func:`~repro.topology.counting.pack_sender_words` layout the masked
    tally channels read, with lazy bool mirrors at the adversary-hook
    boundary (:mod:`repro.simulator.planes.packed`).
    Bit-identical to ``numpy`` by construction — tallies are exact and no
    randomness flows through a plane.

Neither is a user setting.  The engine picks one per batch from its cell
count ``B × n`` (:data:`~repro.simulator.phase_engine.PACKED_MIN_CELLS`):
word ops only pay for their pack/unpack boundary on large planes.  The
kernels' ``backend=`` argument forces a representation for the bit-identity
tests.  Because both are bit-identical, the choice is *never* part of a
sweep-store cache key.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.simulator.planes.base import Plane, PlaneBackend
from repro.simulator.planes.numpy_bool import NumpyBoolBackend, NumpyBoolPlane
from repro.simulator.planes.packed import (
    PackedBackend,
    PackedPlane,
    unpack_words,
)

__all__ = [
    "NumpyBoolBackend",
    "NumpyBoolPlane",
    "PackedBackend",
    "PackedPlane",
    "Plane",
    "PlaneBackend",
    "resolve_backend",
    "unpack_words",
]

_BACKENDS = {backend.name: backend for backend in (NumpyBoolBackend(), PackedBackend())}


def resolve_backend(choice: str | PlaneBackend | None = None) -> PlaneBackend:
    """The representation ``choice`` names; ``None`` is the numpy reference."""
    if isinstance(choice, PlaneBackend):
        return choice
    name = "numpy" if choice is None else choice
    if isinstance(name, str) and name in _BACKENDS:
        return _BACKENDS[name]
    raise ConfigurationError(
        f"unknown plane backend {choice!r}; expected one of {sorted(_BACKENDS)}"
    )
