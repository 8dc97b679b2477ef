"""Adversary interface and the trivial (null) adversary.

Round structure seen by an adversary
------------------------------------
For every global round the scheduler builds an :class:`AdversaryView` and calls
:meth:`Adversary.act` exactly once.  The view contains:

* the full node objects (full-information model — the adversary may inspect,
  but must not mutate, honest state);
* the outgoing messages of all currently honest nodes for this round.  For a
  *rushing* adversary these are the actual messages (including the round's
  fresh random choices); a *non-rushing* adversary receives an empty mapping
  and must act on state from previous rounds only;
* the set of already corrupted nodes and the remaining corruption budget;
* a protocol ``context`` dictionary supplied by the runner (for committee
  protocols it contains the committee partition and per-phase schedule).

The adversary answers with an :class:`AdversaryAction`: the set of nodes it
corrupts *this* round (which may be empty) and the full list of messages sent
by **all currently corrupted nodes** this round.  Corrupted nodes send exactly
what the adversary says — including nothing at all (silence/crash) and
different values to different recipients (equivocation).  When a node is
corrupted in round ``r``, the honest messages it generated for round ``r`` are
discarded and replaced by the adversary's, which is exactly the power a
rushing adaptive adversary has.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.simulator.messages import Message
from repro.simulator.node import ProtocolNode


@dataclass(frozen=True)
class AdversaryView:
    """Everything the adversary can see when it acts in one round.

    Attributes:
        round_index: Global round number (0-based).
        n: Number of nodes.
        t: Corruption budget of the adversary.
        nodes: All node objects (full information).  Corrupted nodes are still
            present but their state is no longer meaningful.
        honest_outgoing: Mapping from node id to the messages that node
            generated for this round.  Empty for non-rushing adversaries.
        corrupted: Nodes corrupted before this round.
        remaining_budget: Number of additional nodes that may be corrupted.
        context: Protocol-specific metadata provided by the runner (e.g. the
            committee partition of Algorithm 3, the current phase, round
            within the phase).
    """

    round_index: int
    n: int
    t: int
    nodes: Sequence[ProtocolNode]
    honest_outgoing: Mapping[int, list[Message]]
    corrupted: frozenset[int]
    remaining_budget: int
    context: Mapping[str, Any] = field(default_factory=dict)

    def honest_ids(self) -> list[int]:
        """Ids of nodes that are currently honest (not corrupted)."""
        return [i for i in range(self.n) if i not in self.corrupted]

    def honest_values(self) -> dict[int, int]:
        """Current ``val`` estimate of every honest node."""
        return {i: self.nodes[i].value for i in self.honest_ids()}

    def honest_decided(self) -> dict[int, bool]:
        """Current ``decided`` flag of every honest node."""
        return {i: self.nodes[i].decided for i in self.honest_ids()}


@dataclass
class AdversaryAction:
    """The adversary's response for one round.

    Attributes:
        new_corruptions: Nodes corrupted in this round (must be previously
            honest and fit within the remaining budget).
        messages: Messages sent this round by corrupted nodes (both previously
            and newly corrupted).  Senders must all be corrupted nodes —
            authenticated links prevent spoofing honest identities.
        drops: Optional ``(sender, recipient)`` pairs whose messages are
            dropped; only meaningful for crash-fault modelling, where a node
            may crash midway through its final broadcast.
    """

    new_corruptions: set[int] = field(default_factory=set)
    messages: list[Message] = field(default_factory=list)
    drops: set[tuple[int, int]] = field(default_factory=set)


class Adversary(ABC):
    """Base class for all adversaries.

    Args:
        t: Total corruption budget (the adversary may corrupt at most ``t``
            nodes over the whole execution).
        rushing: Whether the adversary sees the current round's honest
            messages before acting.  The paper's model is rushing; the
            non-rushing variant is provided for the Chor–Coan historical
            setting and for ablations.
        rng: Optional random stream for the adversary's own tie-breaking.
    """

    #: Human-readable strategy name, overridden by subclasses.
    strategy_name: str = "abstract"

    def __init__(self, t: int, *, rushing: bool = True, rng: np.random.Generator | None = None):
        if t < 0:
            raise ConfigurationError(f"corruption budget t must be non-negative, got {t}")
        self.t = t
        self.rushing = rushing
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.corrupted: set[int] = set()

    # ------------------------------------------------------------------
    # Scheduler-facing interface
    # ------------------------------------------------------------------
    def bind(self, n: int, context: Mapping[str, Any]) -> None:
        """Called once before the execution starts.

        Subclasses may override to precompute attack plans (e.g. which
        committees to spend budget on).  The default implementation stores the
        values for later use.
        """
        self.n = n
        self.context = dict(context)

    @abstractmethod
    def act(self, view: AdversaryView) -> AdversaryAction:
        """Decide corruptions and Byzantine messages for one round."""

    # ------------------------------------------------------------------
    # Budget bookkeeping (used by the scheduler)
    # ------------------------------------------------------------------
    @property
    def remaining_budget(self) -> int:
        """Number of corruptions still available."""
        return self.t - len(self.corrupted)

    def commit_corruptions(self, new_corruptions: set[int]) -> None:
        """Record corruptions chosen in :meth:`act`, enforcing the budget.

        Raises:
            BudgetExceededError: If the action would exceed the budget or
                re-corrupt an already corrupted node (corruption is
                irreversible, so re-corruption indicates a strategy bug).
        """
        fresh = set(new_corruptions)
        already = fresh & self.corrupted
        if already:
            raise BudgetExceededError(f"nodes {sorted(already)} are already corrupted")
        if len(self.corrupted) + len(fresh) > self.t:
            raise BudgetExceededError(
                f"corrupting {len(fresh)} more nodes would exceed the budget "
                f"({len(self.corrupted)} of {self.t} already used)"
            )
        self.corrupted |= fresh


class NullAdversary(Adversary):
    """An adversary that never corrupts anyone.

    Executions under the null adversary exercise the failure-free fast path:
    the paper's protocol should then decide within a constant number of
    phases (one phase when inputs are unanimous).
    """

    strategy_name = "null"

    def __init__(self, t: int = 0, **kwargs: Any):
        super().__init__(t, **kwargs)

    def act(self, view: AdversaryView) -> AdversaryAction:
        return AdversaryAction()
