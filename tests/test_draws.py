"""Exactness of the vectorised per-trial Philox streams (:mod:`repro.simulator.draws`).

Every check runs a :class:`TrialStreams` against live reference generators
``trial_generator(seed, trial_offset + k)``: whatever mix of bulk bit
draws, native loss planes, compaction and per-row generator draws consumes
a row, it must see exactly the draws its reference generator produces, and
a row materialised at its cursor must hold the reference's exact state.
The ``native_kernel`` fixture runs the bit draws under both kernels: the
compiled cursor draw, and the NumPy pass with its generator path.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import native
from repro.engine import run_sweep
from repro.exceptions import ConfigurationError
from repro.observability import Tracer, activate
from repro.simulator.draws import VECTOR_MIN_ROWS, TrialStreams, philox_blocks, trial_generator
from repro.topology.loss import sample_delivered, sample_delivered_words

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

    def bits(self, counts: np.ndarray) -> np.ndarray:
        draws = [self[row].integers(0, 2, size=int(count)) for row, count in enumerate(counts)]
        return np.concatenate([np.zeros(0, dtype=np.int64), *draws])


def _draw_paths(streams: TrialStreams, counts: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """``streams.draw_bits(counts)`` plus the path its span reported."""
    tracer = Tracer(run_id="draws")
    with activate(tracer):
        bits = streams.draw_bits(counts)
    assert bits.dtype == np.int8
    paths = [e["meta"]["path"] for e in tracer.events() if e["name"] == "engine.draw.bits"]
    return bits, paths


def _bulk_path(native_kernel: str) -> str:
    """The path of a bit draw over many cursor rows under ``native_kernel``."""
    return "native" if native_kernel == "native" else "vector"


def _same_state(a, b) -> bool:
    """Deep equality of two ``bit_generator.state`` dicts (Philox holds arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _check_generator_draws(generator: np.random.Generator, reference: np.random.Generator):
    assert _same_state(generator.bit_generator.state, reference.bit_generator.state)
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
    def test_bulk_draw_matches_integers(self, seed, offset, native_kernel):
        streams, reference = TrialStreams(seed, offset, BIG), _Reference(seed, offset, BIG)
        counts = np.arange(BIG) % 23  # zero, odd, even; up to three Philox blocks
        for _ in range(3):  # later draws start on pending halves mid-block
            bits, paths = _draw_paths(streams, counts)
            assert paths == [_bulk_path(native_kernel)]
            assert np.array_equal(bits, reference.bits(counts))
            counts = np.roll(counts, 7)

    def test_large_draws_run_as_several_passes(self, native_kernel):
        # ~340 K shares: more than one NumPy pass's worth, split over row chunks.
        seed, offset = 2**63, 2**32 - 40
        streams, reference = TrialStreams(seed, offset, BIG), _Reference(seed, offset, BIG)
        counts = 4000 + np.arange(BIG) % 3
        for _ in range(2):
            assert np.array_equal(streams.draw_bits(counts), reference.bits(counts))

    def test_below_the_crossover_only_numpy_draws_through_generators(self, native_kernel):
        trials = VECTOR_MIN_ROWS - 1
        streams, reference = TrialStreams(5, 0, trials), _Reference(5, 0, trials)
        counts = np.full(trials, 3)
        bits, paths = _draw_paths(streams, counts)
        assert paths == ["native" if native_kernel == "native" else "generator"]
        assert np.array_equal(bits, reference.bits(counts))
        # The native draw left every row a cursor, two words in behind a
        # pending half; the generator path materialised the rows.
        assert streams.claim_raw(0, 1) == (None if native_kernel == "numpy" else (5, 0, 2))

    def test_materialised_rows_never_return_to_the_bulk_draw(self, native_kernel):
        streams, reference = TrialStreams(9, 0, BIG), _Reference(9, 0, BIG)
        counts = np.full(BIG, 5)
        streams.draw_bits(counts)
        reference.bits(counts)
        for row in range(0, BIG, 3):  # gapped, each on a pending half
            _check_generator_draws(streams[row], reference[row])
        bits, paths = _draw_paths(streams, counts)
        assert paths == [_bulk_path(native_kernel)]  # cursor rows in bulk, the rest per row
        assert np.array_equal(bits, reference.bits(counts))

    @pytest.mark.parametrize("trials", [VECTOR_MIN_ROWS // 2, BIG])
    @pytest.mark.parametrize("case", range(12))
    def test_random_interleavings(self, trials, case, native_kernel):
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
                assert np.array_equal(streams.draw_bits(counts), reference.bits(counts))
        for row in range(len(streams)):
            _check_generator_draws(streams[row], reference[row])


class TestNativeDrawProperty:
    """Any interleaving of bit draws, compaction, raw claims and generator
    draws leaves every row exactly where its live reference generator is."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bits_and_final_states_match_the_references(self, native_kernel, data):
        seed = data.draw(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1), label="seed")
        offset = data.draw(st.sampled_from(OFFSETS), label="offset")
        trials = data.draw(st.integers(1, BIG), label="trials")
        streams, reference = TrialStreams(seed, offset, trials), _Reference(seed, offset, trials)
        actions = st.sampled_from(["bits", "bits", "bits", "take", "raw", "row"])
        for action in data.draw(st.lists(actions, min_size=1, max_size=10), label="actions"):
            rows = len(streams)
            if action == "bits":
                counts = np.array(data.draw(
                    st.lists(st.integers(0, 9), min_size=rows, max_size=rows), label="counts"
                ), dtype=np.int64)
                assert np.array_equal(streams.draw_bits(counts), reference.bits(counts))
            elif action == "take":
                keep = np.array(sorted(data.draw(
                    st.sets(st.integers(0, rows - 1), min_size=1), label="keep"
                )))
                streams = streams.take(keep)
                reference.take(keep)
            elif action == "raw":
                row = data.draw(st.integers(0, rows - 1), label="row")
                words = data.draw(st.integers(1, 9), label="words")
                if streams.claim_raw(row, words) is None:  # a generator owns the row
                    streams[row].bit_generator.random_raw(words)
                reference[row].bit_generator.random_raw(words)
            else:
                row = data.draw(st.integers(0, rows - 1), label="row")
                size = data.draw(st.integers(0, 5), label="size")
                assert np.array_equal(streams[row].integers(0, 2, size=size),
                                      reference[row].integers(0, 2, size=size))
        for row in range(len(streams)):
            assert _same_state(streams[row].bit_generator.state,
                               reference[row].bit_generator.state)


class TestMaterialisation:
    @pytest.mark.parametrize("drawn", [0, 1, 2, 3, 8, 9])
    def test_jump_lands_on_the_cursor(self, drawn, native_kernel):
        # `drawn` bits leave `drawn // 2` whole words behind the cursor and,
        # for odd counts, a pending high half the jump must restore too.
        streams, reference = TrialStreams(3, 0, BIG), _Reference(3, 0, BIG)
        counts = np.full(BIG, drawn)
        streams.draw_bits(counts)
        reference.bits(counts)
        _check_generator_draws(streams[4], reference[4])
        assert np.array_equal(streams[4].integers(0, 2, size=7),
                              reference[4].integers(0, 2, size=7))

    def test_materialising_far_into_the_stream_is_a_jump(self):
        # A replay would walk (and allocate) all 10**7 words; the jump does
        # not depend on the distance.
        streams = TrialStreams(3, 0, 5)
        assert streams.claim_raw(0, 10**7) == (3, 0, 0)
        for row in range(1, 5):
            streams.claim_raw(row, 10**7)
        seconds = []
        for row in range(5):
            start = time.perf_counter()
            generator = streams[row]
            seconds.append(time.perf_counter() - start)
            # Word 10**7 is lane 0 of block 10**7 // 4 + 1.
            expected = philox_blocks(3, np.full(2, row, dtype=np.uint64),
                                     np.array([10**7 // 4 + 1, 10**7 // 4 + 2]))
            assert np.array_equal(generator.bit_generator.random_raw(8), expected.reshape(-1))
        assert min(seconds) < 1e-3, seconds
        assert streams.claim_raw(0, 4) is None  # a generator owns its stream now

    def test_generator_rows_are_shared_objects(self):
        generators = [trial_generator(1, k) for k in range(3)]
        streams = TrialStreams.of(generators)
        assert len(streams) == 3 and streams[1] is generators[1]
        assert streams.take(np.array([2]))[0] is generators[2]
        streams.draw_bits(np.array([2, 0, 1]))
        assert np.array_equal(generators[0].integers(0, 2, size=3),
                              trial_generator(1, 0).integers(0, 2, size=5)[2:])


class TestLossPlanesOnCursors:
    """Loss planes drawn straight from cursor rows (the native kernel) or
    through materialised generators (the NumPy kernel): the same words, and
    the row lands where its reference generator does."""

    @pytest.mark.parametrize("packed", [True, False])
    def test_shares_plane_shares_then_generator_draws(self, native_kernel, packed, monkeypatch):
        sampler = sample_delivered_words if packed else sample_delivered
        streams, reference = TrialStreams(7, 2**32 - 3, BIG), _Reference(7, 2**32 - 3, BIG)
        # 1. An odd number of bits per row leaves a uint32 half pending.
        counts = 2 * (np.arange(BIG) % 5) + 1
        assert np.array_equal(streams.draw_bits(counts), reference.bits(counts))
        # 2. One n=65 plane (4225 words) on a gapped running set: each drawing
        #    row's next word lands mid-block, behind its pending half.
        running = np.arange(BIG) % 3 != 1
        drawn = sampler(None, 0.05, 65, streams, running)
        with monkeypatch.context() as patch:
            patch.setattr(native, "_handle", "the reference draws with NumPy")
            expected = sampler(None, 0.05, 65, reference, running)
        assert np.array_equal(drawn, expected)
        # 3. Bits again: none (the half stays pending), the pending half
        #    alone, or it plus fresh halves.  Native planes left every row a
        #    cursor, so the native draw takes them all; the NumPy kernel
        #    materialised the drawing rows.
        counts = np.arange(BIG) % 4
        bits, paths = _draw_paths(streams, counts)
        assert paths == ["native" if native_kernel == "native" else "generator"]
        assert np.array_equal(bits, reference.bits(counts))
        # 4. Materialise every row: exact state, then generator draws.
        for row in range(BIG):
            _check_generator_draws(streams[row], reference[row])
            assert np.array_equal(streams[row].integers(0, 2, size=7),
                                  reference[row].integers(0, 2, size=7))

    def test_a_sharded_lossy_sweep_builds_from_an_empty_cache(self, tmp_path, monkeypatch):
        if native.find_compiler() is None:
            pytest.skip("no C compiler on PATH to build the native draws")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "_handle", None)
        kwargs = dict(n=24, t=3, protocol="committee-ba", adversary="null", trials=6,
                      base_seed=5, loss=0.05, engine="vectorized")
        # Both workers build at once (neither inherits a loaded kernel), then
        # the parent loads the published library.
        sharded = run_sweep(**kwargs, workers=2)
        assert sharded.trials == run_sweep(**kwargs, workers=1).trials
        assert native.status()[0] == "native"
        built = sorted(path.name for path in (tmp_path / "repro").iterdir())
        assert len(built) == 1 and built[0].endswith(".so"), built  # no temporaries left


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
