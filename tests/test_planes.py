"""Tests for the two plane representations (:mod:`repro.simulator.planes`).

Five acceptance surfaces:

* **resolution**: ``resolve_backend`` names both representations, passes a
  backend instance through and rejects unknown names;
* **op equivalence**: the packed backend replays a scripted sequence
  covering the whole :class:`~repro.simulator.planes.base.Plane` contract
  against the numpy-bool reference, over ragged widths (1, 63, 64, 65, ...),
  all-True/all-False planes, both mask shapes the engine produces, row
  compaction down to the empty batch, and the ``bools()`` /
  ``mark_bools_dirty`` hook boundary;
* **words**: ``words()`` is the plane in the ``pack_sender_words`` layout,
  tail bits zero, on both backends and across every representation
  boundary; and both backends count the same plane ops on a traced run,
  masked runs included;
* **bit identity end to end**: full ``run_sweep`` runs are field-for-field
  identical under both forced representations (clique, masked topology,
  lossy, and the sweep benchmark's smoke workloads against their pinned
  digests), which is what licenses the sweep store to ignore the
  representation in its cache keys;
* the **size rule**: ``PhaseEngine`` runs numpy-bool below
  :data:`~repro.simulator.phase_engine.PACKED_MIN_CELLS` cells and packed
  from it up, as its ``engine.setup`` span records.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import run_sweep
from repro.exceptions import ConfigurationError
from repro.observability import Tracer, activate
from repro.simulator.phase_engine import PACKED_MIN_CELLS
from repro.simulator.planes import (
    PackedBackend,
    PackedPlane,
    resolve_backend,
    unpack_words,
)
from repro.simulator.vectorized import run_vectorized_trials
from repro.topology import build_topology
from repro.topology.counting import pack_sender_words

#: Widths straddling the packed backend's 64-bit word boundary.
WIDTHS = (1, 5, 63, 64, 65, 100, 128)
BATCH = 7

#: Both representations are held to the same contract (numpy itself runs as
#: the trivial case).
BACKENDS = ("numpy", "packed")


class TestResolveBackend:
    def test_names_both_representations(self):
        assert resolve_backend().name == "numpy"
        assert resolve_backend("numpy").name == "numpy"
        assert resolve_backend("packed").name == "packed"
        instance = PackedBackend()
        assert resolve_backend(instance) is instance

    @pytest.mark.parametrize("choice", ["warp", "", 3])
    def test_resolve_backend_rejects_unknown_names(self, choice):
        with pytest.raises(ConfigurationError, match="unknown plane backend"):
            resolve_backend(choice)


class TestPacking:
    @pytest.mark.parametrize("n", WIDTHS)
    def test_pack_unpack_round_trip(self, n):
        rng = np.random.default_rng(n)
        array = rng.random((BATCH, n)) < 0.5
        words = pack_sender_words(array, n)
        assert words.dtype == np.uint64
        assert words.shape == (BATCH, max(1, -(-n // 64)))
        np.testing.assert_array_equal(unpack_words(words, n), array)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_tail_bits_are_zero(self, n):
        words = pack_sender_words(np.ones((BATCH, n), dtype=bool), n)
        counts = np.bitwise_count(words).sum(axis=1)
        np.testing.assert_array_equal(counts, np.full(BATCH, n))

    def test_packed_popcount_never_over_counts_after_broadcast_masks(self):
        # (B, 1) masks broadcast as all-ones words whose tail bits must not
        # leak into stored planes.
        n = 70
        plane = PackedPlane(n, bools=np.ones((BATCH, n), dtype=bool))
        plane.set_where(plane.and_mask(np.ones((BATCH, 1), dtype=bool)))
        np.testing.assert_array_equal(plane.popcount(), np.full(BATCH, n))


def _fill(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random((BATCH, n)) < 0.5
    if kind == "true":
        return np.ones((BATCH, n), dtype=bool)
    return np.zeros((BATCH, n), dtype=bool)


class TestOpEquivalence:
    """Replay one scripted op sequence on a backend and the reference."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("kind", ("random", "true", "false"))
    def test_full_contract_matches_reference(self, backend_name, n, kind):
        reference = resolve_backend("numpy")
        backend = resolve_backend(backend_name)
        base = _fill(kind, n, seed=3 * n)
        other_arr = _fill("random", n, seed=3 * n + 1)
        third_arr = _fill("random", n, seed=3 * n + 2)

        ref = reference.from_bools(base.copy())
        ours = backend.from_bools(base.copy())
        ref_other = reference.from_bools(other_arr.copy())
        our_other = backend.from_bools(other_arr.copy())
        ref_third = reference.from_bools(third_arr.copy())
        our_third = backend.from_bools(third_arr.copy())

        def check(label):
            np.testing.assert_array_equal(
                ours.bools(), ref.bools(),
                err_msg=f"{backend_name}: {label} diverged (n={n}, {kind})",
            )

        # Exact tallies, and the AND compositions the engine tallies.
        np.testing.assert_array_equal(ours.popcount(), ref.popcount())
        np.testing.assert_array_equal(
            ours.and_plane(our_other).popcount(), ref.and_plane(ref_other).popcount()
        )
        np.testing.assert_array_equal(
            ours.and_plane(our_other.and_plane(our_third)).popcount(),
            ref.and_plane(ref_other.and_plane(ref_third)).popcount(),
        )
        np.testing.assert_array_equal(
            ours.and_plane(our_other).words(), ref.and_plane(ref_other).words()
        )
        assert ours.popcount().dtype == np.int64

        # Temporaries.
        np.testing.assert_array_equal(
            ours.and_plane(our_other).bools(), ref.and_plane(ref_other).bools()
        )
        rng = np.random.default_rng(99)
        masks = [
            np.ones((BATCH, 1), dtype=bool),
            (rng.random((BATCH, 1)) < 0.5),
            (rng.random((BATCH, n)) < 0.5),
        ]
        for i, mask in enumerate(masks):
            np.testing.assert_array_equal(
                ours.and_mask(mask).bools(),
                ref.and_mask(mask).bools(),
                err_msg=f"{backend_name}: and_mask[{i}] diverged (n={n}, {kind})",
            )

        # In-place updates, interleaved so staleness bugs would compound.
        for i, mask in enumerate(masks):
            ours.blend_mask(mask, our_other)
            ref.blend_mask(mask, ref_other)
            check(f"blend_mask[{i}]")
        ours.blend_plane(our_other, our_third)
        ref.blend_plane(ref_other, ref_third)
        check("blend_plane")
        ours.set_where(our_other)
        ref.set_where(ref_other)
        check("set_where")
        ours.clear_where(our_third)
        ref.clear_where(ref_third)
        check("clear_where")

        # Hook boundary: mutate the bool view in place, declare it dirty,
        # and require the next word op to see the mutation.
        view = ours.bools()
        view[:, 0] = ~view[:, 0]
        ours.mark_bools_dirty()
        ref_view = ref.bools()
        ref_view[:, 0] = ~ref_view[:, 0]
        ref.mark_bools_dirty()
        np.testing.assert_array_equal(ours.popcount(), ref.popcount())
        ours.set_where(our_other)
        ref.set_where(ref_other)
        check("post-dirty set_where")

        # Compaction, down to the empty batch.
        for keep in (np.array([0, 2, 5]), np.array([], dtype=np.intp)):
            taken, ref_taken = ours.take(keep), ref.take(keep)
            np.testing.assert_array_equal(taken.bools(), ref_taken.bools())
            np.testing.assert_array_equal(taken.popcount(), ref_taken.popcount())

        ours.fill_false()
        ref.fill_false()
        check("fill_false")


class TestWords:
    """``words()`` is the plane in the one word layout the channels read."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("n", (1, 63, 64, 65, 130))
    @pytest.mark.parametrize("batch", (BATCH, 0))
    def test_words_pack_the_plane_across_every_boundary(self, backend_name, n, batch):
        backend = resolve_backend(backend_name)
        rng = np.random.default_rng(n)
        plane = backend.from_bools(rng.random((batch, n)) < 0.5)
        every = backend.from_bools(np.ones((batch, n), dtype=bool))

        def check(label):
            # Words first, so a packed plane hands over what its word ops left.
            words = plane.words()
            bools = plane.bools()
            assert words.dtype == np.uint64, label
            np.testing.assert_array_equal(
                words, pack_sender_words(bools, n), err_msg=f"{backend_name}: {label}"
            )
            # Zero tail bits: the words count exactly the plane's True cells.
            np.testing.assert_array_equal(
                np.bitwise_count(words).sum(axis=1), bools.sum(axis=1),
                err_msg=f"{backend_name}: {label} tail",
            )

        check("fresh")
        view = plane.bools()
        view[:, 0] = ~view[:, 0]
        plane.mark_bools_dirty()
        check("bools() edit")
        plane.blend_mask(rng.random((batch, n)) < 0.5, every)
        check("blend_mask (B, n)")
        # An all-ones broadcast word carries tail ones; they must not land.
        plane.blend_mask(np.ones((batch, 1), dtype=bool), every)
        check("blend_mask (B, 1)")
        plane = plane.take(np.arange(batch)[::2])
        check("take")


class TestOpCountParity:
    """Both backends run, and count, the same plane ops on every run."""

    @pytest.mark.parametrize(
        "network",
        [{}, {"topology": "erdos-renyi"}, {"loss": 0.05}],
        ids=["clique", "erdos-renyi", "lossy-clique"],
    )
    def test_traced_runs_count_the_same_plane_ops(self, network):
        counts = {}
        for backend_name, counter in (("numpy", "plane.bool_ops"), ("packed", "plane.word_ops")):
            tracer = Tracer(run_id=f"parity-{backend_name}")
            with activate(tracer):
                run_sweep(
                    48, 6, protocol="committee-ba", adversary="coin-attack",
                    inputs="split", trials=6, base_seed=3, engine="vectorized",
                    backend=backend_name, **network,
                )
            counts[backend_name] = tracer.counter_value(counter)
        assert counts["numpy"] == counts["packed"] > 0


#: Configurations spanning both engine schedules (las-vegas and bounded),
#: every hook the kernels exercise (static and adaptive corruption, round-1
#: planes, rushing round-2 share attacks), and both baseline wrappers.
SWEEP_CASES = (
    ("committee-ba-las-vegas", "coin-attack"),
    ("committee-ba", "equivocate"),
    ("committee-ba", "coin-attack"),
    ("rabin", "random-noise"),
    ("ben-or", "crash"),
)


#: The sweep benchmark's smoke-size ``run_sweep`` workloads, whose base-seed-0
#: digests ``sweepbench/digests.json`` pins.  At benchmark size they pick the
#: packed planes by size, so the benchmark's own packed check then compares
#: packed with packed; forcing each representation here keeps both pinned.
SMOKE_WORKLOADS = {
    "clique-attack": dict(adversary="coin-attack", n=64, t=8, trials=8),
    "lossy": dict(adversary="null", loss=0.05, n=96, t=12, trials=4),
    "many-trials": dict(adversary="null", n=16, t=2, trials=200),
}

#: The per-trial fields the benchmark digests cover, in trial order.
DIGEST_FIELDS = ("rounds", "phases", "agreement", "validity", "decision", "messages")

DIGESTS = Path(__file__).resolve().parents[1] / "sweepbench" / "digests.json"


class TestEndToEndBitIdentity:
    @pytest.mark.parametrize("backend_name", ["packed"])
    @pytest.mark.parametrize(("protocol", "adversary"), SWEEP_CASES)
    def test_run_sweep_is_bit_identical(self, backend_name, protocol, adversary):
        kwargs = dict(
            protocol=protocol, adversary=adversary, inputs="split",
            trials=6, base_seed=11, engine="vectorized", allow_timeout=True,
        )
        reference = run_sweep(40, 5, backend="numpy", **kwargs)
        ours = run_sweep(40, 5, backend=backend_name, **kwargs)
        assert ours.trials == reference.trials

    def test_masked_and_lossy_runs_honour_the_packed_request(self):
        # Off-clique and lossy runs route their tallies through the
        # backend-aware channels of repro.topology.counting: a packed request
        # runs AND+popcount word tallies end to end and must be bit-identical
        # to the numpy reference (tests/test_masked_backends.py covers the
        # full generator x loss grid; this is the smoke pin).
        ring = build_topology("ring", 24)
        for extra in ({"adjacency": ring}, {"loss": 0.02}):
            kwargs = dict(
                protocol="committee-ba", adversary="static", inputs="split",
                trials=4, seed=9, **extra,
            )
            reference = run_vectorized_trials(24, 2, backend="numpy", **kwargs)
            packed = run_vectorized_trials(24, 2, backend="packed", **kwargs)
            assert packed == reference

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("workload", sorted(SMOKE_WORKLOADS))
    def test_sweep_benchmark_smoke_workloads_match_their_pins(self, workload, backend_name):
        result = run_sweep(
            protocol="committee-ba", inputs="split", base_seed=0, backend=backend_name,
            **SMOKE_WORKLOADS[workload],
        )
        rows = [[getattr(trial, name) for name in DIGEST_FIELDS] for trial in result.trials]
        text = json.dumps(rows, separators=(",", ":"))
        pin = json.loads(DIGESTS.read_text())["smoke"][workload]
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pin


class TestSizeRule:
    def test_batch_cells_pick_the_representation(self):
        n = 64
        at = -(-PACKED_MIN_CELLS // n)
        assert (at - 1) * n < PACKED_MIN_CELLS <= at * n
        setups, rows = {}, {}
        for trials in (at - 1, at):
            tracer = Tracer(run_id=f"size-rule-{trials}")
            with activate(tracer):
                result = run_sweep(
                    n, 8, protocol="committee-ba", adversary="coin-attack",
                    trials=trials, base_seed=5, engine="vectorized",
                )
            (setup,) = [e for e in tracer.events() if e["name"] == "engine.setup"]
            setups[trials] = setup["meta"]
            rows[trials] = result.trials
        assert setups[at - 1]["backend"] == "numpy"
        assert setups[at]["backend"] == "packed"
        assert [setups[trials]["batch"] for trials in setups] == [at - 1, at]
        # Trial k draws from Philox key (5, k) in either batch.
        assert rows[at][: at - 1] == rows[at - 1]
