"""ID-based committee partition (Section 3.2 of the paper).

Nodes group themselves into committees of uniform size ``s`` using their IDs:
nodes with IDs ``{1, ..., s}`` form the first committee, nodes with IDs
``{s+1, ..., 2s}`` the second, and so on.  Because the implementation uses
0-based ids, node ``v`` belongs to committee ``v // s``.  The partition is
common knowledge (all IDs are known to all nodes), so every node can compute
it locally without communication — a property the protocol relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.exceptions import ConfigurationError


def phase_of_round(round_index: int) -> tuple[int, int]:
    """Map a global 0-based round index to ``(phase, round_in_phase)``.

    Phases are 1-based and two rounds long, matching the paper's pseudocode.
    """
    return round_index // 2 + 1, round_index % 2 + 1


@dataclass(frozen=True)
class CommitteePartition:
    """Deterministic partition of ``n`` node ids into contiguous committees.

    Args:
        n: Number of nodes (ids ``0 .. n-1``).
        committee_size: Target committee size ``s``; the last committee may be
            smaller when ``s`` does not divide ``n``.
    """

    n: int
    committee_size: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if not 1 <= self.committee_size <= self.n:
            raise ConfigurationError(
                f"committee_size must be in [1, n]={self.n}, got {self.committee_size}"
            )

    @property
    def num_committees(self) -> int:
        """Number of (non-empty) committees."""
        return math.ceil(self.n / self.committee_size)

    def committee_of(self, node_id: int) -> int:
        """Return the committee index of ``node_id``."""
        if not 0 <= node_id < self.n:
            raise ConfigurationError(f"node_id {node_id} out of range for n={self.n}")
        return node_id // self.committee_size

    def members(self, committee_index: int) -> range:
        """Return the node ids in committee ``committee_index``."""
        if not 0 <= committee_index < self.num_committees:
            raise ConfigurationError(
                f"committee index {committee_index} out of range "
                f"(have {self.num_committees} committees)"
            )
        start = committee_index * self.committee_size
        return range(start, min(self.n, start + self.committee_size))

    def committee_for_phase(self, phase: int) -> int:
        """Committee used in (1-based) phase ``phase``.

        Phase ``i`` uses committee ``i - 1``; when the protocol runs more
        phases than there are committees (the Las Vegas variant of Section 3.2,
        or rounding effects in the committee-count formula), the schedule wraps
        around cyclically.
        """
        if phase < 1:
            raise ConfigurationError(f"phases are 1-based, got {phase}")
        return (phase - 1) % self.num_committees

    def members_for_phase(self, phase: int) -> range:
        """Node ids designated to flip coins in (1-based) phase ``phase``."""
        return self.members(self.committee_for_phase(phase))

    def byzantine_count(self, committee_index: int, corrupted: Iterable[int]) -> int:
        """Number of corrupted nodes inside committee ``committee_index``."""
        members = self.members(committee_index)
        return sum(1 for node_id in corrupted if node_id in members)

    def clean_committees(self, corrupted: Iterable[int], threshold: float) -> list[int]:
        """Committees whose Byzantine count is strictly below ``threshold``.

        The paper's analysis counts committees with fewer than ``sqrt(s)/2``
        Byzantine members (Lemma 5) — these are the committees whose phases
        are good with constant probability.
        """
        corrupted_set = set(corrupted)
        return [
            index
            for index in range(self.num_committees)
            if self.byzantine_count(index, corrupted_set) < threshold
        ]

    def __iter__(self) -> Iterator[range]:
        """Iterate over committees in index order."""
        for index in range(self.num_committees):
            yield self.members(index)
