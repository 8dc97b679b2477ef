"""Tests for the selectable plane backends (:mod:`repro.simulator.planes`).

Four acceptance surfaces:

* the **registry**: built-in backends present, explicit > env > default
  resolution, unknown names and duplicate registrations rejected;
* **op equivalence**: every registered backend replays a scripted sequence
  covering the whole :class:`~repro.simulator.planes.base.Plane` contract
  against the numpy-bool reference, over ragged widths (1, 63, 64, 65, ...),
  all-True/all-False planes, every mask shape the engine produces, row
  compaction down to the empty batch, and the ``bools()`` /
  ``mark_bools_dirty`` hook boundary;
* **bit identity end to end**: full ``run_sweep`` runs are field-for-field
  identical under every backend (clique, masked topology, lossy), which is
  what licenses the sweep store to ignore the backend in its cache keys —
  asserted directly by a cross-backend cache-hit test;
* the **CLI seam**: ``repro trials --backend packed`` round-trips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.engine import run_sweep
from repro.exceptions import ConfigurationError
from repro.simulator import planes as planes_module
from repro.simulator.planes import (
    DEFAULT_BACKEND,
    ENV_VAR,
    PackedPlane,
    PlaneBackend,
    available_backends,
    get_backend,
    pack_bools,
    register_backend,
    resolve_backend,
    unpack_words,
)
from repro.simulator.vectorized import run_vectorized_trials
from repro.sweeps import ResultsStore, SweepSpec, run_spec
from repro.topology import build_topology

#: Widths straddling the packed backend's 64-bit word boundary.
WIDTHS = (1, 5, 63, 64, 65, 100, 128)
BATCH = 7

#: Every backend the registry knows at collection time is held to the same
#: contract (numpy itself runs as the trivial case).
BACKENDS = available_backends()


class TestRegistry:
    def test_builtin_backends_are_registered(self):
        names = available_backends()
        assert "numpy" in names
        assert "packed" in names
        assert DEFAULT_BACKEND == "numpy"

    def test_get_backend_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError, match="unknown plane backend"):
            get_backend("warp")

    def test_resolution_order_explicit_env_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend().name == "numpy"
        monkeypatch.setenv(ENV_VAR, "packed")
        assert resolve_backend().name == "packed"
        # Explicit choice outranks the environment.
        assert resolve_backend("numpy").name == "numpy"
        # A backend instance passes straight through.
        instance = get_backend("packed")
        assert resolve_backend(instance) is instance
        monkeypatch.setenv(ENV_VAR, "warp")
        with pytest.raises(ConfigurationError, match="unknown plane backend"):
            resolve_backend()
        # Blank env falls back to the default rather than erroring.
        monkeypatch.setenv(ENV_VAR, "  ")
        assert resolve_backend().name == DEFAULT_BACKEND

    def test_duplicate_registration_requires_replace(self):
        class Dummy(PlaneBackend):
            name = "test-dummy"

            def from_bools(self, array):  # pragma: no cover - never called
                raise NotImplementedError

        try:
            register_backend(Dummy())
            assert "test-dummy" in available_backends()
            with pytest.raises(ConfigurationError, match="already registered"):
                register_backend(Dummy())
            register_backend(Dummy(), replace=True)
        finally:
            planes_module._REGISTRY.pop("test-dummy", None)


class TestPacking:
    @pytest.mark.parametrize("n", WIDTHS)
    def test_pack_unpack_round_trip(self, n):
        rng = np.random.default_rng(n)
        array = rng.random((BATCH, n)) < 0.5
        words = pack_bools(array, n)
        assert words.dtype == np.uint64
        assert words.shape == (BATCH, max(1, -(-n // 64)))
        np.testing.assert_array_equal(unpack_words(words, n), array)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_tail_bits_are_zero(self, n):
        words = pack_bools(np.ones((BATCH, n), dtype=bool), n)
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
        reference = get_backend("numpy")
        backend = get_backend(backend_name)
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

        # Exact tallies.
        np.testing.assert_array_equal(ours.popcount(), ref.popcount())
        np.testing.assert_array_equal(
            ours.popcount_and(our_other), ref.popcount_and(ref_other)
        )
        np.testing.assert_array_equal(
            ours.popcount_and3(our_other, our_third),
            ref.popcount_and3(ref_other, ref_third),
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
            (rng.random(n) < 0.5),  # 1-D row mask (masked-topology shapes)
            np.True_,  # 0-d
            np.False_,
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
        # The engine only XORs subsets, so build one.
        ours.xor_where(ours.and_plane(our_other))
        ref.xor_where(ref.and_plane(ref_other))
        check("xor_where")

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


#: Configurations spanning both engine schedules (las-vegas and bounded),
#: every hook the kernels exercise (static and adaptive corruption, round-1
#: planes, rushing round-2 share attacks), and both baseline wrappers.
SWEEP_CASES = (
    ("committee-ba-las-vegas", "straddle"),
    ("committee-ba", "equivocate"),
    ("committee-ba", "coin-attack"),
    ("rabin", "random-noise"),
    ("ben-or", "crash"),
)


class TestEndToEndBitIdentity:
    @pytest.mark.parametrize("backend_name", [b for b in BACKENDS if b != "numpy"])
    @pytest.mark.parametrize(("protocol", "adversary"), SWEEP_CASES)
    def test_run_sweep_is_bit_identical(self, backend_name, protocol, adversary):
        kwargs = dict(
            protocol=protocol, adversary=adversary, inputs="split",
            trials=6, base_seed=11, engine="vectorized", allow_timeout=True,
        )
        reference = run_sweep(40, 5, backend="numpy", **kwargs)
        ours = run_sweep(40, 5, backend=backend_name, **kwargs)
        assert ours.trials == reference.trials

    def test_env_var_selects_the_backend_at_run_time(self, monkeypatch):
        kwargs = dict(
            protocol="committee-ba-las-vegas", adversary="straddle",
            inputs="split", trials=4, seed=7,
        )
        monkeypatch.delenv(ENV_VAR, raising=False)
        reference = run_vectorized_trials(40, 5, **kwargs)
        monkeypatch.setenv(ENV_VAR, "packed")
        packed = run_vectorized_trials(40, 5, **kwargs)
        assert packed == reference

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
            reference = run_vectorized_trials(24, 2, **kwargs)
            packed = run_vectorized_trials(24, 2, backend="packed", **kwargs)
            assert packed == reference


class TestSweepStoreCaching:
    def test_backend_choice_never_splits_the_cache(self, tmp_path):
        spec = SweepSpec(
            name="backend-cache",
            protocols=("committee-ba",),
            adversaries=("null", "static"),
            n_values=(17,),
            t_specs=("quarter",),
            trials=2,
            seed_policy="by-point",
            base_seed=50,
        )
        store = ResultsStore(tmp_path / "store")
        first = run_spec(spec, store=store, backend="numpy")
        assert first.computed == first.total
        # The same points under the packed backend are pure cache hits:
        # point_key has no backend component because backends are
        # bit-identical by contract.
        second = run_spec(spec, store=store, backend="packed")
        assert second.computed == 0
        assert second.cached == second.total


class TestCli:
    def test_trials_backend_flag_round_trips(self, capsys):
        code = main(["trials", "--n", "16", "--t", "3", "--trials", "3",
                     "--seed", "5"])
        assert code == 0
        reference = capsys.readouterr().out
        code = main(["trials", "--n", "16", "--t", "3", "--trials", "3",
                     "--seed", "5", "--backend", "packed"])
        assert code == 0
        assert capsys.readouterr().out == reference

    def test_trials_backend_flag_rejects_unknown_names(self, capsys):
        with pytest.raises(SystemExit):
            main(["trials", "--n", "16", "--t", "3", "--backend", "warp"])

    def test_engines_command_lists_backends(self, capsys):
        assert main(["engines"]) == 0
        output = capsys.readouterr().out
        assert "plane backends available:" in output
        assert "numpy" in output
        assert "packed" in output
