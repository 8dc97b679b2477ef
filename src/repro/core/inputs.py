"""Input-pattern generation shared by the object and plane engines.

Every execution path in the repository materialises per-node input bits from
the same four pattern names, through this module alone; its two entry points
differ only in dtype and randomness source:

* :func:`input_list` — object-simulator path: plain ``list[int]`` drawing the
  ``random`` pattern from the run's *environment* stream
  (:meth:`repro.simulator.rng.RandomnessSource.environment_stream`), exactly
  as the seeded object runner always has;
* :func:`input_row` — plane-engine path: an ``np.int8`` row drawing the
  ``random`` pattern from the trial's counter-based Philox generator (and
  consuming that generator *only* for ``random``, so deterministic-input
  sweeps leave the trial streams untouched for the protocol itself).

The two paths intentionally consume different generators — the object
simulator's per-run environment stream cannot be replayed per-trial by the
batched kernels — so ``random``-pattern cross-validation between engines is
statistical, while the three deterministic patterns are bit-identical by
construction (asserted in ``tests/test_inputs.py``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.simulator.rng import RandomnessSource, random_inputs, split_inputs, unanimous_inputs

#: Input-pattern names accepted by both engines.
INPUT_PATTERNS = ("split", "random", "unanimous-0", "unanimous-1")

__all__ = ["INPUT_PATTERNS", "input_list", "input_row"]


def input_list(n: int, pattern: str, randomness: RandomnessSource) -> list[int]:
    """Materialise an input assignment from a pattern name.

    Patterns:
        ``"split"`` — first half 0, second half 1 (the hardest honest input);
        ``"random"`` — i.i.d. uniform bits from the environment stream;
        ``"unanimous-0"`` / ``"unanimous-1"`` — all nodes share the value.
    """
    if pattern == "split":
        return split_inputs(n)
    if pattern == "random":
        return random_inputs(n, randomness.environment_stream())
    if pattern == "unanimous-0":
        return unanimous_inputs(n, 0)
    if pattern == "unanimous-1":
        return unanimous_inputs(n, 1)
    raise ConfigurationError(
        f"unknown input pattern {pattern!r}; expected one of {INPUT_PATTERNS}"
    )


def input_row(n: int, pattern: str, rng: np.random.Generator | None) -> np.ndarray:
    """Materialise one trial's ``(n,)`` int8 input row for the plane engines.

    Consumes ``rng`` only for the ``random`` pattern (one
    ``integers(0, 2, size=n)`` call), keeping the per-trial Philox streams
    untouched for deterministic patterns — the convention every batched
    kernel's bit-identity contract relies on.  The deterministic patterns
    accept ``rng=None``.
    """
    if pattern == "split":
        input_bits = np.zeros(n, dtype=np.int8)
        input_bits[n // 2 :] = 1
        return input_bits
    if pattern == "random":
        return rng.integers(0, 2, size=n).astype(np.int8)
    if pattern == "unanimous-0":
        return np.zeros(n, dtype=np.int8)
    if pattern == "unanimous-1":
        return np.ones(n, dtype=np.int8)
    raise ConfigurationError(
        f"unknown input pattern {pattern!r}; expected one of {INPUT_PATTERNS}"
    )
