"""Exactness of the vectorised per-trial Philox streams (:mod:`repro.simulator.draws`).

Every check runs a :class:`TrialStreams` against live reference generators
``trial_generator(seed, trial_offset + k)``: whatever mix of bulk share
draws, compaction and per-row generator draws consumes a row, it must see
exactly the draws its reference generator produces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.observability import Tracer, activate
from repro.simulator.draws import VECTOR_MIN_ROWS, TrialStreams, philox_blocks, trial_generator

#: Key words at the edges of the 64-bit range: the per-round key bump wraps.
EDGE_SEEDS = [0, 2**63, 2**64 - 1]

#: Trial offsets putting the batch's trial indices across 2**32 and at the
#: very top of the 64-bit counter range.
BIG = 2 * VECTOR_MIN_ROWS + 5
OFFSETS = [0, 2**32 - BIG // 2, 2**64 - BIG]


class _Reference:
    """Live reference generators, one per original row of a batch."""

    def __init__(self, seed: int, offset: int, trials: int) -> None:
        self.generators = [trial_generator(seed, offset + k) for k in range(trials)]
        self.rows = np.arange(trials)  # stream row -> original row

    def __getitem__(self, row: int) -> np.random.Generator:
        return self.generators[self.rows[row]]

    def take(self, keep: np.ndarray) -> None:
        self.rows = self.rows[keep]

    def shares(self, counts: np.ndarray) -> np.ndarray:
        draws = [self[row].integers(0, 2, size=int(count)) for row, count in enumerate(counts)]
        return np.concatenate([np.zeros(0, dtype=np.int64), *draws]) * 2 - 1


def _draw_paths(streams: TrialStreams, counts: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """``streams.draw_shares(counts)`` plus the path its span reported."""
    tracer = Tracer(run_id="draws")
    with activate(tracer):
        shares = streams.draw_shares(counts)
    paths = [e["meta"]["path"] for e in tracer.events() if e["name"] == "engine.draw.shares"]
    return shares, paths


def _check_generator_draws(generator: np.random.Generator, reference: np.random.Generator):
    assert np.array_equal(generator.bit_generator.random_raw(3),
                          reference.bit_generator.random_raw(3))
    assert generator.random() == reference.random()
    assert np.array_equal(generator.integers(0, 97, size=5), reference.integers(0, 97, size=5))
    assert np.array_equal(generator.binomial(11, 0.5, size=4), reference.binomial(11, 0.5, size=4))


class TestPhiloxBlocks:
    @pytest.mark.parametrize("seed", EDGE_SEEDS + [987654321])
    @pytest.mark.parametrize("trial", [0, 5, 2**32 - 1, 2**32, 2**64 - 1])
    def test_blocks_are_the_raw_stream(self, seed, trial):
        reference = trial_generator(seed, trial).bit_generator.random_raw(4 * 5)
        counters = np.arange(1, 6)
        blocks = philox_blocks(seed, np.full(5, trial, dtype=np.uint64), counters)
        assert np.array_equal(blocks.reshape(-1), reference)


class TestShareDraws:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("offset", OFFSETS)
    def test_vector_pass_matches_integers(self, seed, offset):
        streams, reference = TrialStreams(seed, offset, BIG), _Reference(seed, offset, BIG)
        counts = np.arange(BIG) % 23  # zero, odd, even; up to three Philox blocks
        for _ in range(3):  # later draws start on pending halves mid-block
            shares, paths = _draw_paths(streams, counts)
            assert paths == ["vector"]
            assert np.array_equal(shares, reference.shares(counts))
            counts = np.roll(counts, 7)

    def test_large_draws_run_as_several_passes(self):
        # ~340 K shares: more than one pass's worth, split over row chunks.
        seed, offset = 2**63, 2**32 - 40
        streams, reference = TrialStreams(seed, offset, BIG), _Reference(seed, offset, BIG)
        counts = 4000 + np.arange(BIG) % 3
        for _ in range(2):
            assert np.array_equal(streams.draw_shares(counts), reference.shares(counts))

    def test_below_the_crossover_rows_draw_through_generators(self):
        trials = VECTOR_MIN_ROWS - 1
        streams, reference = TrialStreams(5, 0, trials), _Reference(5, 0, trials)
        counts = np.full(trials, 3)
        shares, paths = _draw_paths(streams, counts)
        assert paths == ["generator"]
        assert np.array_equal(shares, reference.shares(counts))

    def test_materialised_rows_never_return_to_the_vector_pass(self):
        streams, reference = TrialStreams(9, 0, BIG), _Reference(9, 0, BIG)
        counts = np.full(BIG, 5)
        streams.draw_shares(counts)
        reference.shares(counts)
        for row in range(0, BIG, 3):  # gapped, each on a pending half
            _check_generator_draws(streams[row], reference[row])
        shares, paths = _draw_paths(streams, counts)
        assert paths == ["vector"]  # cursor rows in bulk, the rest per row
        assert np.array_equal(shares, reference.shares(counts))

    @pytest.mark.parametrize("trials", [VECTOR_MIN_ROWS // 2, BIG])
    @pytest.mark.parametrize("case", range(12))
    def test_random_interleavings(self, trials, case):
        rng = np.random.default_rng(case)
        seed = [*EDGE_SEEDS, int(rng.integers(0, 2**63))][case % 4]
        offset = OFFSETS[case % 3]
        streams, reference = TrialStreams(seed, offset, trials), _Reference(seed, offset, trials)
        for _ in range(8):
            action = rng.integers(0, 4)
            rows = len(streams)
            if action == 0 and rows > 1:
                keep = np.sort(rng.choice(rows, size=int(rng.integers(1, rows + 1)),
                                          replace=False))
                streams = streams.take(keep)
                reference.take(keep)
            elif action == 1:
                for row in rng.choice(rows, size=min(3, rows), replace=False).tolist():
                    _check_generator_draws(streams[row], reference[row])
            else:
                counts = rng.integers(0, 14, size=rows)
                counts[rng.random(rows) < 0.3] = 0  # gapped row sets
                assert np.array_equal(streams.draw_shares(counts), reference.shares(counts))
        for row in range(len(streams)):
            _check_generator_draws(streams[row], reference[row])


class TestMaterialisation:
    @pytest.mark.parametrize("drawn", [0, 1, 2, 3, 8, 9])
    def test_replay_lands_on_the_cursor(self, drawn):
        # `drawn` shares leave `drawn // 2` whole words behind the cursor and,
        # for odd counts, a pending high half the replay must buffer too.
        streams, reference = TrialStreams(3, 0, BIG), _Reference(3, 0, BIG)
        counts = np.full(BIG, drawn)
        streams.draw_shares(counts)
        reference.shares(counts)
        _check_generator_draws(streams[4], reference[4])
        assert np.array_equal(streams[4].integers(0, 2, size=7),
                              reference[4].integers(0, 2, size=7))

    def test_generator_rows_are_shared_objects(self):
        generators = [trial_generator(1, k) for k in range(3)]
        streams = TrialStreams.of(generators)
        assert len(streams) == 3 and streams[1] is generators[1]
        assert streams.take(np.array([2]))[0] is generators[2]
        streams.draw_shares(np.array([2, 0, 1]))
        assert np.array_equal(generators[0].integers(0, 2, size=3),
                              trial_generator(1, 0).integers(0, 2, size=5)[2:])


class TestKeyRanges:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed(self, seed):
        with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*64\)"):
            TrialStreams(seed, 0, 3)

    @pytest.mark.parametrize("offset,trials", [(-1, 3), (2**64 - 2, 3), (2**64, 0)])
    def test_out_of_range_trial_counters(self, offset, trials):
        with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*64\)"):
            TrialStreams(0, offset, trials)

    def test_the_last_counter_is_in_range(self):
        streams = TrialStreams(2**64 - 1, 2**64 - 1, 1)
        assert streams[0].random() == trial_generator(2**64 - 1, 2**64 - 1).random()
