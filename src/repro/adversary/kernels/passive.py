"""The trivial plane kernels: failure-free and crash-at-start.

``PassiveKernel`` models the null adversary (and serves every *inapplicable*
``(protocol, adversary)`` pair — see
:mod:`repro.adversary.kernels.capabilities` — where the object strategy
provably performs no corruption and sends nothing).  ``SilentKernel`` models
:class:`repro.adversary.strategies.silence.SilentAdversary` with its default
target choice: the first ``min(t, n)`` ids are corrupted before round 1 and
never speak again, consuming the whole budget up front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adversary.kernels.base import AdversaryKernel

__all__ = ["PassiveKernel", "SilentKernel"]


@dataclass
class PassiveKernel(AdversaryKernel):
    """No corruption, no traffic — the failure-free behaviour."""


@dataclass
class SilentKernel(AdversaryKernel):
    """Corrupt the first ``min(t, n)`` ids at round 0; never speak again."""

    @classmethod
    def initial_corrupted_columns(cls, n: int, t: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        mask[: min(t, n)] = True
        return mask
