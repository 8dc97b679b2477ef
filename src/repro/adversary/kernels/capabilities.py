"""Hook-capability vocabulary: which adversaries a protocol kernel supports.

Historically every batched protocol kernel carried a hand-maintained
allowlist of fault behaviours (``RABIN_BEHAVIOURS``, ``PHASE_KING_BEHAVIOURS``,
...), so a strategy vectorised for one protocol had to be re-listed — and was
usually forgotten — for every other protocol it applied to.  This module
replaces the allowlists with a *derivation*: each protocol kernel declares
the **hook surface** it implements (the channels through which an adversary
plane kernel can reach the execution), each adversary strategy declares the
hooks it *requires* and the hooks that give it any *lever* at all, and the
supported-adversary table of :class:`repro.baselines.kernels.KernelSpec` is
computed from the two.

Hook surface vocabulary (protocol side)
---------------------------------------
``corrupt-static``
    The kernel honours an up-front corrupted node set (every kernel).
``corrupt-adaptive``
    The kernel processes per-phase corruption mid-execution (the hook-driven
    :class:`repro.simulator.phase_engine.PhaseEngine` loops, the phase-king
    kernel, the sampling-majority iteration loop — but *not* the EIG kernel,
    whose closed tree recurrence assumes a fixed honest set).
``round1-values``
    Recipients read round-1 value announcements, so the kernel applies
    additive round-1 planes (the two-round-phase protocols and phase-king).
``round2-records``
    Recipients read round-2 ``(value, decided)`` records (the two-round-phase
    protocols only).
``shares-broadcast``
    Honest nodes broadcast coin shares the rushing adversary can observe and
    corrupt against (committee family, Rabin, Ben-Or — every protocol built
    on the two-round phase skeleton).
``committee``
    A per-phase distinguished node set exists: the paper's rotating
    committees (the whole network for Rabin and Ben-Or, whose bookkeeping
    committee has size ``n``), or phase-king's king (via the
    ``CommitteePartition(n, 1)`` king schedule).
``rng``
    Per-trial generators are available to sampling strategies (random-noise's
    per-recipient draws).

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
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "COMMITTEE",
    "CORRUPT_ADAPTIVE",
    "CORRUPT_STATIC",
    "ADVERSARY_PROFILES",
    "AdversaryProfile",
    "RNG",
    "ROUND1_VALUES",
    "ROUND2_RECORDS",
    "SHARES_BROADCAST",
    "derive_behaviours",
    "inapplicable_adversaries",
]

CORRUPT_STATIC = "corrupt-static"
CORRUPT_ADAPTIVE = "corrupt-adaptive"
ROUND1_VALUES = "round1-values"
ROUND2_RECORDS = "round2-records"
SHARES_BROADCAST = "shares-broadcast"
COMMITTEE = "committee"
RNG = "rng"


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


def derive_behaviours(hooks: frozenset[str]) -> dict[str, str]:
    """Adversary name -> the plane kernel's name for a protocol with ``hooks``.

    Supported strategies map to themselves; inapplicable strategies (no
    lever on this protocol) map to the exact ``"null"`` kernel; strategies
    with an unmodelled lever are omitted (object path).
    """
    table: dict[str, str] = {}
    for profile in ADVERSARY_PROFILES:
        if profile.required <= hooks:
            table[profile.name] = profile.name
        elif profile.lever and not (profile.lever & hooks):
            table[profile.name] = "null"
    return table


def inapplicable_adversaries(hooks: frozenset[str]) -> frozenset[str]:
    """Names of the strategies with no lever on a protocol with ``hooks``."""
    return frozenset(
        profile.name
        for profile in ADVERSARY_PROFILES
        if not (profile.required <= hooks) and profile.lever and not (profile.lever & hooks)
    )
