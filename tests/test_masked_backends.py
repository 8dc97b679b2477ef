"""Cross-backend bit identity on the masked / lossy communication path.

PR 10 lifted the numpy pin: masked-topology and lossy runs now route their
per-recipient tallies through backend-aware channels
(:mod:`repro.topology.counting`), so the packed backend's AND+popcount word
tallies must reproduce the float32-sgemm reference *bit for bit* — the
delivered-edge Philox draws are sampled outside the backends, and every
tally is an exact integer either way.  Acceptance surfaces:

* **engine identity**: ``run_vectorized_trials`` under ``backend="packed"``
  matches ``"numpy"`` field-for-field over *every* topology generator
  crossed with loss in {0.0, 0.05, 0.3};
* **sharded identity**: a masked lossy ``vectorized-mp`` sweep matches the
  single-process numpy reference trial-for-trial — also when the parent
  started its loss-draw thread pool before forking the workers, which must
  then draw inline instead of waiting on the inherited, threadless pool;
* **store keys**: a masked/lossy sweep point computed under one backend is
  a pure cache hit under the other (``point_key`` has no backend field);
* **kernel identity**: the phase-king baseline kernel accepts the backend
  kwarg and is bit-identical across backends off-clique and under loss;
* **word layout**: :func:`~repro.topology.counting.pack_sender_words` is
  byte-identical to the simulator's :func:`~repro.simulator.planes.pack_bools`
  (the two packers must never drift — packed planes are fed straight into
  topology channels);
* **tally unit behaviour**: :class:`~repro.topology.counting.MaskedCounter`
  and the packed :class:`~repro.topology.counting.AdjacencyCounter` strategy
  match the dense reference on ragged widths and signed (±1 share) planes.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines.kernels.phase_king import run_phase_king_trials
from repro.engine import run_sweep
from repro.simulator.planes import pack_bools
from repro.simulator.vectorized import run_vectorized_trials
from repro.sweeps import ResultsStore, SweepSpec, run_spec
from repro.topology import TOPOLOGIES, build_topology
from repro.topology.counting import (
    AdjacencyCounter,
    MaskedCounter,
    pack_sender_words,
    word_width,
)

#: Every registered generator — the masked path must hold on all of them.
ALL_TOPOLOGIES = tuple(sorted(TOPOLOGIES))

#: Loss grid: the loss-free static-counter path, a light-loss path, and a
#: heavy-loss path where per-round delivered masks dominate.
LOSSES = (0.0, 0.05, 0.3)


class TestEngineBitIdentity:
    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
    def test_packed_matches_numpy_on_every_generator(self, topology, loss):
        adjacency = None if topology == "clique" else build_topology(topology, 24)
        kwargs = dict(
            adversary="static", inputs="split", trials=4, seed=13,
            adjacency=adjacency, loss=loss,
        )
        reference = run_vectorized_trials(24, 2, backend="numpy", **kwargs)
        packed = run_vectorized_trials(24, 2, backend="packed", **kwargs)
        assert packed.results == reference.results

    def test_sharded_masked_lossy_sweep_matches_serial_numpy(self):
        kwargs = dict(
            protocol="committee-ba", adversary="equivocate", inputs="split",
            trials=6, base_seed=21, topology="erdos-renyi", loss=0.05,
            allow_timeout=True,
        )
        serial = run_sweep(26, 3, engine="vectorized", backend="numpy", **kwargs)
        sharded = run_sweep(
            26, 3, engine="vectorized-mp", workers=2, backend="packed", **kwargs
        )
        assert sharded.engine == "vectorized-mp"
        assert [s.__dict__ for s in sharded.trials] == [
            s.__dict__ for s in serial.trials
        ]

    def test_forked_workers_draw_inline_after_the_parent_started_its_pool(self):
        # A pool inherited through fork has no threads behind it: a worker
        # that submitted loss draws to it would wait forever.  Run the
        # sweeps in a child interpreter in its own session, so a hang is
        # killed together with its pool workers.
        script = textwrap.dedent("""
            from repro.engine import run_sweep
            from repro.topology import loss

            loss._workers = max(loss._workers, 2)
            kwargs = dict(protocol="committee-ba", adversary="null", inputs="split",
                          trials=6, base_seed=5, loss=0.05)
            serial = run_sweep(40, 4, engine="vectorized", **kwargs)
            assert loss._pool is not None, "the in-process sweep started no pool"
            sharded = run_sweep(40, 4, engine="vectorized-mp", workers=2, **kwargs)
            assert sharded.engine == "vectorized-mp"
            assert [s.__dict__ for s in sharded.trials] == [
                s.__dict__ for s in serial.trials
            ]
            print("identical")
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.Popen(
            [sys.executable, "-c", script], env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("the vectorized-mp sweep hung after the draw pool started")
        assert child.returncode == 0, err
        assert out.split() == ["identical"]


class TestStoreKeysIgnoreTheBackend:
    def test_masked_lossy_points_cache_hit_across_backends(self, tmp_path):
        spec = SweepSpec(
            name="masked-backend-cache",
            protocols=("committee-ba",),
            adversaries=("static",),
            n_values=(20,),
            t_specs=("quarter",),
            topologies=("ring", "erdos-renyi"),
            losses=(0.0, 0.1),
            trials=2,
            seed_policy="by-point",
            base_seed=60,
        )
        store = ResultsStore(tmp_path / "store")
        first = run_spec(spec, store=store, backend="packed")
        assert first.computed == first.total
        second = run_spec(spec, store=store, backend="numpy")
        assert second.computed == 0
        assert second.cached == second.total


class TestPhaseKingKernelBackends:
    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("topology", ("ring", "erdos-renyi", "grid"))
    def test_backend_kwarg_is_bit_identical(self, topology, loss):
        adjacency = build_topology(topology, 21)
        kwargs = dict(
            adversary="equivocate", inputs="split",
            trials=4, seed=31, adjacency=adjacency, loss=loss,
        )
        reference = run_phase_king_trials(21, 5, backend="numpy", **kwargs)
        packed = run_phase_king_trials(21, 5, backend="packed", **kwargs)
        assert packed.results == reference.results


class TestWordLayout:
    @pytest.mark.parametrize("n", (1, 63, 64, 65, 100, 128))
    def test_pack_sender_words_is_byte_identical_to_pack_bools(self, n):
        # counting.pack_sender_words duplicates the simulator's layout so
        # the topology layer carries no import dependency on the planes
        # package; this pin is what licenses feeding PackedPlane words
        # straight into topology channels.
        array = np.random.default_rng(n).random((5, n)) < 0.5
        ours = pack_sender_words(array, n)
        theirs = pack_bools(array, n)
        assert ours.dtype == theirs.dtype == np.uint64
        assert ours.shape == theirs.shape == (5, word_width(n))
        np.testing.assert_array_equal(ours, theirs)


class TestTallyUnits:
    @pytest.mark.parametrize("n", (7, 64, 70, 130))
    def test_masked_counter_matches_bool_einsum_on_ragged_widths(self, n):
        rng = np.random.default_rng(n)
        batch = 5
        incoming = rng.random((batch, n, n)) < 0.6  # kept[b, j, i] layout
        words = np.zeros((batch, n, word_width(n)), dtype=np.uint64)
        for b in range(batch):
            words[b] = pack_sender_words(incoming[b].T.copy(), n)
        sent = rng.random((batch, n)) < 0.5
        expected = np.einsum(
            "bj,bji->bi", sent.astype(np.int64), incoming.astype(np.int64)
        )
        counter = MaskedCounter(words, n)
        got = counter.counts(pack_sender_words(sent, n))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n", (70, 128))
    def test_packed_adjacency_strategy_matches_dense(self, n):
        rng = np.random.default_rng(2 * n)
        adjacency = rng.random((n, n)) < 0.5
        np.fill_diagonal(adjacency, True)
        adjacency &= adjacency.T
        dense = AdjacencyCounter(adjacency, packed=False)
        packed = AdjacencyCounter(adjacency, packed=True)
        assert not dense.wants_words
        assert packed.wants_words
        sent = rng.random((5, n)) < 0.5
        np.testing.assert_array_equal(
            packed.receive_counts(sent), dense.receive_counts(sent)
        )
        np.testing.assert_array_equal(
            packed.receive_counts_words(pack_sender_words(sent, n)),
            dense.receive_counts(sent),
        )
        np.testing.assert_array_equal(
            packed.delivered_edges_words(pack_sender_words(sent, n)),
            dense.delivered_edges(sent),
        )
        shares = rng.integers(-1, 2, size=(5, n)).astype(np.int8)
        np.testing.assert_array_equal(
            packed.signed_counts(shares), dense.signed_counts(shares)
        )
