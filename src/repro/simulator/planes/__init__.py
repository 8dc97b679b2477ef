"""Selectable plane backends for the batched engines.

The :class:`~repro.simulator.phase_engine.PhaseEngine` runs its ``(B, n)``
boolean state planes through the op contract of
:mod:`repro.simulator.planes.base`; *which representation* executes the ops
is a registry lookup here — the ``CyScheduler``/``PyScheduler`` switch
idiom.  Registered by default:

``numpy``
    The reference backend: planes are the boolean arrays themselves and
    every op is the engine's historical inline expression
    (:mod:`repro.simulator.planes.numpy_bool`).

``packed``
    uint64 bit-packed words, 64 nodes per word, with lazy bool mirrors at
    the adversary-hook boundary (:mod:`repro.simulator.planes.packed`).
    Bit-identical to ``numpy`` by construction — tallies are exact and no
    randomness flows through a plane — just faster.

The registry is open: another backend honouring the
:mod:`repro.simulator.planes.base` contract registers through
:func:`register_backend`.

Selection order, loosest binding first:

1. the library default (``numpy``);
2. the ``REPRO_PLANE_BACKEND`` environment variable (read at run time, not
   import time — the CI backend matrix flips it per job step);
3. an explicit ``backend=`` kwarg threaded down from
   :func:`repro.engine.run_sweep` / ``repro trials --backend`` /
   ``repro sweep run --backend`` (or a :class:`PlaneBackend` instance).

Because all backends are bit-identical, the choice is *never* part of a
sweep-store cache key: results computed under one backend are cache hits
under any other.
"""

from __future__ import annotations

import os

from repro.exceptions import ConfigurationError
from repro.simulator.planes.base import Plane, PlaneBackend
from repro.simulator.planes.numpy_bool import NumpyBoolBackend, NumpyBoolPlane
from repro.simulator.planes.packed import (
    PackedBackend,
    PackedPlane,
    pack_bools,
    unpack_words,
)

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "NumpyBoolBackend",
    "NumpyBoolPlane",
    "PackedBackend",
    "PackedPlane",
    "Plane",
    "PlaneBackend",
    "available_backends",
    "get_backend",
    "pack_bools",
    "register_backend",
    "resolve_backend",
    "unpack_words",
]

#: Environment variable consulted when no explicit backend is passed.
ENV_VAR = "REPRO_PLANE_BACKEND"

#: The library default (the reference implementation).
DEFAULT_BACKEND = "numpy"

_REGISTRY: dict[str, PlaneBackend] = {}


def register_backend(backend: PlaneBackend, *, replace: bool = False) -> PlaneBackend:
    """Register a backend instance under its ``name``.

    Third-party backends call this at import time; ``replace`` guards
    against accidentally shadowing a built-in.
    """
    if backend.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"plane backend {backend.name!r} is already registered; "
            "pass replace=True to override it"
        )
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> PlaneBackend:
    """Look a backend up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown plane backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None


def resolve_backend(choice: str | PlaneBackend | None = None) -> PlaneBackend:
    """Resolve a backend choice: explicit > ``$REPRO_PLANE_BACKEND`` > default."""
    if isinstance(choice, PlaneBackend):
        return choice
    if choice is None:
        choice = os.environ.get(ENV_VAR, "").strip() or DEFAULT_BACKEND
    return get_backend(choice)


register_backend(NumpyBoolBackend())
register_backend(PackedBackend())
