"""Input-pattern generation shared by the object and plane engines.

Every execution path in the repository materialises per-node input bits from
the same four pattern names, which this module defines; its two entry points
differ in dtype and in where the ``random`` pattern is drawn:

* :func:`input_list` — object-simulator path: plain ``list[int]`` drawing the
  ``random`` pattern from the run's *environment* stream
  (:meth:`repro.simulator.rng.RandomnessSource.environment_stream`), exactly
  as the seeded object runner always has;
* :func:`input_row` — plane-engine path: an ``np.int8`` row of a
  deterministic pattern.  The plane engines draw the ``random`` pattern
  themselves, each trial's row from its own counter-based Philox stream
  (:func:`repro.simulator.vectorized.batch_setup`, one
  :meth:`~repro.simulator.draws.TrialStreams.draw_bits` call per batch), and
  consume those streams *only* for ``random``, so deterministic-input sweeps
  leave the trial streams untouched for the protocol itself.

The two paths intentionally consume different generators — the object
simulator's per-run environment stream cannot be replayed per-trial by the
batched kernels — so ``random``-pattern cross-validation between engines is
statistical, while the three deterministic patterns are bit-identical by
construction (asserted in ``tests/test_phase_engine.py``).
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


def input_row(n: int, pattern: str) -> np.ndarray:
    """Materialise a deterministic pattern's ``(n,)`` int8 input row for the plane engines.

    Draws nothing, so the per-trial Philox streams stay untouched — the
    convention every batched kernel's bit-identity contract relies on.  The
    ``random`` pattern is not drawn here (see the module docstring).
    """
    if pattern == "split":
        input_bits = np.zeros(n, dtype=np.int8)
        input_bits[n // 2 :] = 1
        return input_bits
    if pattern == "unanimous-0":
        return np.zeros(n, dtype=np.int8)
    if pattern == "unanimous-1":
        return np.ones(n, dtype=np.int8)
    raise ConfigurationError(
        f"unknown input pattern {pattern!r}; expected one of {INPUT_PATTERNS}"
    )
