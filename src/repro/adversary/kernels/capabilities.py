"""Hook-capability vocabulary: which adversaries a protocol kernel supports.

Each batched protocol kernel declares the **hook surface** it implements (the
channels through which an adversary plane kernel can reach the execution),
each adversary strategy declares the hooks it *requires* and the hooks that
give it any *lever* at all, and the adversary sets of every
:class:`repro.engine.KernelSpec` in :data:`repro.engine.PROTOCOL_KERNELS` are
computed from the two.  A strategy vectorised once therefore reaches every
protocol whose surface supports it without being re-listed per protocol.

Hook surface vocabulary (protocol side)
---------------------------------------
Only hooks some profile's ``required`` or ``lever`` names can change a
derivation, so the vocabulary holds exactly those four:

``corrupt-static``
    The kernel honours an up-front corrupted node set (every kernel).
``corrupt-adaptive``
    The kernel processes per-phase corruption mid-execution (the hook-driven
    :class:`repro.simulator.phase_engine.PhaseEngine` loops, the phase-king
    kernel, the sampling-majority iteration loop — but *not* the EIG kernel,
    whose closed tree recurrence assumes a fixed honest set).
``shares-broadcast``
    Honest nodes broadcast coin shares the rushing adversary can observe and
    corrupt against (committee family, Rabin, Ben-Or — every protocol built
    on the two-round phase skeleton).
``committee``
    A per-phase distinguished node set exists: the paper's rotating
    committees (the whole network for Rabin and Ben-Or, whose bookkeeping
    committee has size ``n``), or phase-king's king (via the
    ``CommitteePartition(n, 1)`` king schedule).

Applicability classification (adversary side)
---------------------------------------------
For a protocol with hook set ``H`` and a strategy profile ``p``:

* ``p.required <= H`` — the strategy has a full plane-kernel model: the pair
  is **supported** (fast path, cross-validated against the object simulator);
* otherwise, if ``p.lever & H`` is empty — the strategy has *no lever* on the
  protocol: its object implementation provably performs no corruption and
  sends nothing (verified by the inapplicable-pair cross-validation tests),
  so the pair is **inapplicable** and dispatches to the failure-free
  ``null`` kernel exactly;
* otherwise the strategy has a real lever the kernels do not model (e.g. the
  equivocator's staggered corruption against EIG's tree) — the pair stays on
  the **object** path.

:func:`fast_path_adversaries` returns the first two classes together (every
name with a fast path) and :func:`inapplicable_adversaries` the second.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "COMMITTEE",
    "CORRUPT_ADAPTIVE",
    "CORRUPT_STATIC",
    "ADVERSARY_PROFILES",
    "AdversaryProfile",
    "SHARES_BROADCAST",
    "fast_path_adversaries",
    "inapplicable_adversaries",
]

CORRUPT_STATIC = "corrupt-static"
CORRUPT_ADAPTIVE = "corrupt-adaptive"
SHARES_BROADCAST = "shares-broadcast"
COMMITTEE = "committee"


@dataclass(frozen=True)
class AdversaryProfile:
    """Capability profile of one adversary strategy.

    Attributes:
        name: The strategy's name, a :data:`repro.core.runner.ADVERSARIES`
            key and an :data:`repro.adversary.kernels.ADVERSARY_PLANE_KERNELS`
            key alike.
        required: Hooks a protocol kernel must implement for the strategy's
            full plane model to be faithful.
        lever: Hooks through which the strategy can affect an execution at
            all.  Empty intersection with a protocol's hook set means the
            object strategy provably no-ops there (inapplicable pair).
    """

    name: str
    required: frozenset[str]
    lever: frozenset[str]


def _fs(*hooks: str) -> frozenset[str]:
    return frozenset(hooks)


#: One profile per registered adversary strategy, in registry order.
ADVERSARY_PROFILES: tuple[AdversaryProfile, ...] = (
    AdversaryProfile("null", _fs(), _fs()),
    AdversaryProfile("silent", _fs(CORRUPT_STATIC), _fs(CORRUPT_STATIC)),
    AdversaryProfile("static", _fs(CORRUPT_STATIC), _fs(CORRUPT_STATIC)),
    AdversaryProfile("random-noise", _fs(CORRUPT_STATIC), _fs(CORRUPT_STATIC)),
    AdversaryProfile(
        "equivocate", _fs(CORRUPT_ADAPTIVE), _fs(CORRUPT_STATIC, CORRUPT_ADAPTIVE)
    ),
    AdversaryProfile(
        "coin-attack", _fs(CORRUPT_ADAPTIVE, SHARES_BROADCAST), _fs(SHARES_BROADCAST)
    ),
    AdversaryProfile(
        "committee-targeting", _fs(CORRUPT_ADAPTIVE, COMMITTEE), _fs(COMMITTEE)
    ),
    AdversaryProfile(
        "crash", _fs(CORRUPT_ADAPTIVE, SHARES_BROADCAST), _fs(SHARES_BROADCAST)
    ),
)


def fast_path_adversaries(hooks: frozenset[str]) -> frozenset[str]:
    """Names of the strategies with a fast path on a protocol with ``hooks``.

    A supported strategy runs its own plane kernel; an inapplicable one (no
    lever on this protocol) runs the exact ``"null"`` kernel.  Strategies
    with an unmodelled lever are left out (object path).
    """
    return frozenset(
        profile.name
        for profile in ADVERSARY_PROFILES
        if profile.required <= hooks or (profile.lever and not (profile.lever & hooks))
    )


def inapplicable_adversaries(hooks: frozenset[str]) -> frozenset[str]:
    """Names of the strategies with no lever on a protocol with ``hooks``."""
    return frozenset(
        profile.name
        for profile in ADVERSARY_PROFILES
        if not (profile.required <= hooks) and profile.lever and not (profile.lever & hooks)
    )
