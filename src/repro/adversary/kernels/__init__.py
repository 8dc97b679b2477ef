"""Batched adversary kernels — Byzantine strategies as ``(B, n)``-plane ops.

Every adversary strategy the plane engines simulate is an
:class:`~repro.adversary.kernels.base.AdversaryKernel` the shared
:class:`repro.simulator.phase_engine.PhaseEngine` (and the hook-driven
baseline kernels) drive through per-round hooks: corruption against per-trial
budgets, additive per-recipient announcement planes, coin-share splits.  See
:mod:`.base` for the protocol and the engine-side contract — the engine never
branches on a strategy name, so a strategy written once runs against every
protocol kernel whose hook surface supports it.

:data:`ADVERSARY_PLANE_KERNELS` is the kernel registry: adversary name ->
kernel class, keyed by the names of :data:`repro.core.runner.ADVERSARIES`,
the one adversary vocabulary from the CLI down to the kernels.  Which
``(protocol, adversary)`` pairs take a fast path is *derived* from the
kernels' capability requirements and the protocol kernels' declared hook
surfaces — see :mod:`.capabilities` and :data:`repro.engine.PROTOCOL_KERNELS`.
"""

from __future__ import annotations

from repro.adversary.kernels.base import (
    AdversaryKernel,
    KernelContext,
    Round1Effect,
    Round2Effect,
)
from repro.adversary.kernels.capabilities import (
    ADVERSARY_PROFILES,
    AdversaryProfile,
    fast_path_adversaries,
    inapplicable_adversaries,
)
from repro.adversary.kernels.committee_targeting import CommitteeTargetingKernel
from repro.adversary.kernels.crash import AdaptiveCrashKernel
from repro.adversary.kernels.equivocate import EquivocatePlaneKernel
from repro.adversary.kernels.noise import RandomNoiseKernel
from repro.adversary.kernels.passive import PassiveKernel, SilentKernel
from repro.adversary.kernels.static import StaticEquivocateKernel
from repro.adversary.kernels.straddle import StraddleKernel
from repro.core.parameters import ProtocolParameters
from repro.exceptions import ConfigurationError

#: Adversary name -> kernel class, covering the full strategy matrix.
ADVERSARY_PLANE_KERNELS: dict[str, type[AdversaryKernel]] = {
    "null": PassiveKernel,
    "silent": SilentKernel,
    "random-noise": RandomNoiseKernel,
    "coin-attack": StraddleKernel,
    "crash": AdaptiveCrashKernel,
    "static": StaticEquivocateKernel,
    "equivocate": EquivocatePlaneKernel,
    "committee-targeting": CommitteeTargetingKernel,
}


def build_adversary_kernel(
    adversary: str, *, n: int, t: int, params: ProtocolParameters
) -> AdversaryKernel:
    """Instantiate the plane kernel for one adversary name.

    One kernel instance serves one batch execution; the constructor signature
    is uniform so the engines need no per-strategy wiring.
    """
    try:
        kernel_class = ADVERSARY_PLANE_KERNELS[adversary]
    except KeyError:
        raise ConfigurationError(
            f"no adversary plane kernel for {adversary!r}; "
            f"available: {sorted(ADVERSARY_PLANE_KERNELS)}"
        ) from None
    return kernel_class(n=n, t=t, params=params)


__all__ = [
    "ADVERSARY_PLANE_KERNELS",
    "ADVERSARY_PROFILES",
    "AdaptiveCrashKernel",
    "AdversaryKernel",
    "AdversaryProfile",
    "CommitteeTargetingKernel",
    "EquivocatePlaneKernel",
    "KernelContext",
    "PassiveKernel",
    "RandomNoiseKernel",
    "Round1Effect",
    "Round2Effect",
    "SilentKernel",
    "StaticEquivocateKernel",
    "StraddleKernel",
    "build_adversary_kernel",
    "fast_path_adversaries",
    "inapplicable_adversaries",
]
