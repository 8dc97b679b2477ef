"""Silent (crash-at-start) adversary.

Corrupts its targets in the very first round and has them send nothing for the
rest of the execution.  Functionally this is ``t`` initially-crashed nodes —
the weakest Byzantine behaviour — and serves as a sanity baseline: every
protocol in the repository must reach agreement quickly against it, since the
remaining ``n - t`` honest nodes interact with no interference at all.
"""

from __future__ import annotations

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.base import AdversaryAction, AdversaryView


class SilentAdversary(AdaptiveAdversary):
    """Corrupt the ``t`` lowest ids at round 0; they never speak again."""

    strategy_name = "silent"

    def bind(self, n: int, context) -> None:
        super().bind(n, context)
        self._targets = set(range(min(self.t, n)))

    def act(self, view: AdversaryView) -> AdversaryAction:
        new_corruptions = self._targets - view.corrupted
        return AdversaryAction(new_corruptions=new_corruptions, messages=[])
