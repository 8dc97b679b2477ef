"""Unit tests for the ID-based committee partition."""

from __future__ import annotations

import pytest

from repro.core.committee import CommitteePartition
from repro.exceptions import ConfigurationError


class TestPartitionStructure:
    def test_every_node_belongs_to_exactly_one_committee(self):
        partition = CommitteePartition(n=100, committee_size=7)
        seen: dict[int, int] = {}
        for index, members in enumerate(partition):
            for node in members:
                assert node not in seen
                seen[node] = index
        assert set(seen) == set(range(100))

    def test_committee_of_is_consistent_with_members(self):
        partition = CommitteePartition(n=50, committee_size=8)
        for node in range(50):
            index = partition.committee_of(node)
            assert node in partition.members(index)

    def test_contiguous_id_ranges(self):
        partition = CommitteePartition(n=20, committee_size=6)
        assert list(partition.members(0)) == [0, 1, 2, 3, 4, 5]
        assert list(partition.members(3)) == [18, 19]

    def test_num_committees(self):
        assert CommitteePartition(10, 5).num_committees == 2
        assert CommitteePartition(11, 5).num_committees == 3
        assert CommitteePartition(5, 5).num_committees == 1

    def test_single_committee_of_everyone(self):
        partition = CommitteePartition(n=9, committee_size=9)
        assert partition.num_committees == 1
        assert list(partition.members(0)) == list(range(9))

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            CommitteePartition(0, 1)
        with pytest.raises(ConfigurationError):
            CommitteePartition(5, 0)
        with pytest.raises(ConfigurationError):
            CommitteePartition(5, 6)
        with pytest.raises(ConfigurationError):
            CommitteePartition(5, 2).committee_of(9)
        with pytest.raises(ConfigurationError):
            CommitteePartition(5, 2).members(10)


class TestPhaseSchedule:
    def test_phase_schedule_is_cyclic(self):
        partition = CommitteePartition(n=12, committee_size=4)
        assert partition.committee_for_phase(1) == 0
        assert partition.committee_for_phase(3) == 2
        assert partition.committee_for_phase(4) == 0
        assert list(partition.members_for_phase(4)) == list(partition.members(0))

    def test_phase_must_be_one_based(self):
        with pytest.raises(ConfigurationError):
            CommitteePartition(12, 4).committee_for_phase(0)


class TestByzantineCounting:
    def test_byzantine_count(self):
        partition = CommitteePartition(n=12, committee_size=4)
        corrupted = {0, 1, 5, 11}
        assert partition.byzantine_count(0, corrupted) == 2
        assert partition.byzantine_count(1, corrupted) == 1
        assert partition.byzantine_count(2, corrupted) == 1

    def test_clean_committees_threshold(self):
        partition = CommitteePartition(n=12, committee_size=4)
        corrupted = {0, 1, 5}
        # threshold 2: committee 0 has 2 (not clean), committee 1 has 1, 2 has 0
        assert partition.clean_committees(corrupted, threshold=2) == [1, 2]
        assert partition.clean_committees(corrupted, threshold=0.5) == [2]
