"""Chor & Coan (1985) randomized Byzantine agreement.

Chor and Coan's protocol is the four-decade baseline the paper improves on:
it partitions the ``n`` nodes into groups of size ``Theta(log n)``, runs the
same notify/decide two-round phases as Algorithm 3, and, when a node cannot
decide, resolves the phase with the current group's shared coin (each group
member broadcasts a random value; everyone takes the majority of what it
received from the group).  A phase is guaranteed to make progress when the
group has an honest majority and the honest members' flips happen to be
unanimous, which yields the expected ``O(t / log n)`` round bound against an
adaptive (historically non-rushing) adversary while tolerating the optimal
``t < n/3``.

Structurally this is exactly the paper's protocol with a different committee
size/count — which is precisely how the paper describes its own contribution
("a more efficient way to generate shared coins using the fact that one can
group nodes into committees of appropriate size").  The implementation
therefore subclasses :class:`CommitteeAgreementNode` and only overrides the
parameter derivation, so that the two protocols differ in nothing but the
committee geometry and the same adversaries attack both.

For the same reason, batched sweeps of Chor–Coan run on the ``committee``
kernel — the engine of :mod:`repro.simulator.vectorized` with this module's
group geometry — rather than a kernel of their own.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.agreement import CommitteeAgreementNode
from repro.core.parameters import ProtocolParameters, Regime, log2n, validate_alpha, validate_n_t


def chor_coan_parameters(n: int, t: int, *, alpha: float = 4.0) -> ProtocolParameters:
    """Derive Chor–Coan's group geometry for ``(n, t)``.

    Args:
        n: Network size.
        t: Byzantine bound (``t < n/3``).
        alpha: Phase-count constant; the protocol runs ``ceil(3*alpha*t/log n)``
            phases (at least ``ceil(alpha*log n)`` so that small-``t``
            configurations still get enough repetitions for a w.h.p.
            guarantee).

    Returns:
        A :class:`ProtocolParameters` instance whose ``committee_size`` is the
        Chor–Coan group size ``Theta(log n)`` and whose ``num_phases`` follows
        the ``O(t / log n)`` schedule.
    """
    validate_n_t(n, t)
    validate_alpha(alpha)
    log_n = log2n(n)
    group_size = int(min(n, max(1, math.ceil(log_n))))
    phases_for_t = math.ceil(3.0 * alpha * t / log_n)
    phases_floor = math.ceil(alpha * log_n)
    num_phases = max(1, phases_for_t, phases_floor if t > 0 else 1)
    return ProtocolParameters(
        n=n,
        t=t,
        alpha=alpha,
        num_phases=num_phases,
        committee_size=group_size,
        regime=Regime.LINEAR,
    )


class ChorCoanNode(CommitteeAgreementNode):
    """One participant of the Chor–Coan protocol (bounded number of phases)."""

    protocol_name = "chor-coan"

    def __init__(
        self,
        node_id: int,
        n: int,
        t: int,
        input_value: int,
        rng: np.random.Generator,
        *,
        params: ProtocolParameters | None = None,
    ):
        if params is None:
            params = chor_coan_parameters(n, t)
        super().__init__(node_id, n, t, input_value, rng, params=params)


class ChorCoanLasVegasNode(ChorCoanNode):
    """Chor–Coan run as a Las Vegas protocol (cycle groups until termination).

    Used in the round-complexity sweeps (E1) so that both protocols are
    measured the same way: rounds until every honest node terminates, rather
    than a fixed worst-case schedule.
    """

    protocol_name = "chor-coan-las-vegas"

    def _exhausted(self, phase: int) -> bool:
        return False
