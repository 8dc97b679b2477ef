"""Bit identity on the masked / lossy communication path.

Masked-topology and lossy runs tally their per-recipient counts through the
word channels of :mod:`repro.topology.counting` on every plane backend:
segment sums at the density extremes, AND+popcount over packed uint64 words
everywhere else.  The delivered-edge Philox draws are sampled outside the
backends and every tally is an exact integer.  Acceptance surfaces:

* **pinned digests**: per-trial results of four protocols on the masked
  planes (topology x loss x a null and an adaptive adversary) match digests
  recorded from the float32 sgemm tallies the word channels replaced;
* **engine identity**: ``run_vectorized_trials`` under ``backend="packed"``
  matches ``"numpy"`` field-for-field over *every* topology generator
  crossed with loss in {0.0, 0.05, 0.3};
* **sharded identity**: a masked lossy sweep sharded over two workers matches
  the single-process numpy reference trial-for-trial — also when the parent
  started its loss-draw thread pool before forking the workers, which must
  then draw inline instead of waiting on the inherited, threadless pool;
* **tally unit behaviour**: :class:`~repro.topology.counting.MaskedCounter`,
  the mid-density :class:`~repro.topology.counting.AdjacencyCounter`
  strategy and :class:`~repro.topology.counting.PackedDeliveredChannel`
  match int64 references on ragged widths and signed (±1 share) planes.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine import run_sweep
from repro.simulator.vectorized import run_vectorized_trials
from repro.topology import TOPOLOGIES, build_topology
from repro.topology.counting import (
    AdjacencyCounter,
    MaskedCounter,
    PackedDeliveredChannel,
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
        assert packed == reference

    def test_sharded_masked_lossy_sweep_matches_serial_numpy(self, traced_sweep):
        kwargs = dict(
            protocol="committee-ba", adversary="equivocate", inputs="split",
            trials=6, base_seed=21, topology="erdos-renyi", loss=0.05,
            allow_timeout=True,
        )
        serial = run_sweep(26, 3, engine="vectorized", backend="numpy", **kwargs)
        sharded, workers = traced_sweep(
            26, 3, engine="vectorized", workers=2, backend="packed", **kwargs
        )
        assert workers == 2
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
            from repro.observability import Tracer, activate
            from repro.topology import loss

            loss._workers = max(loss._workers, 2)
            kwargs = dict(protocol="committee-ba", adversary="null", inputs="split",
                          trials=6, base_seed=5, loss=0.05)
            serial = run_sweep(40, 4, engine="vectorized", **kwargs)
            assert loss._pool is not None, "the in-process sweep started no pool"
            tracer = Tracer(run_id="fork")
            with activate(tracer):
                sharded = run_sweep(40, 4, engine="vectorized", workers=2, **kwargs)
            (span,) = [e for e in tracer.events() if e["name"] == "sweep.vectorized"]
            assert span["meta"]["workers"] == 2
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
            pytest.fail("the sharded sweep hung after the draw pool started")
        assert child.returncode == 0, err
        assert out.split() == ["identical"]


#: The pinned configurations: four protocols on the masked planes (the
#: PhaseEngine committee, dealer and private coins, and the phase-king
#: kernel), a null and an adaptive adversary, the clique, a sparse and a
#: mid-density topology, and the loss-free and two lossy rounds.
PINNED_PROTOCOLS = ("committee-ba", "rabin", "ben-or", "phase-king")
PINNED_ADVERSARIES = ("null", "committee-targeting")
PINNED_TOPOLOGIES = ("clique", "ring", "erdos-renyi")

#: The per-trial fields each digest covers, in trial order.
PINNED_FIELDS = ("rounds", "phases", "agreement", "validity", "decision", "messages", "bits")

#: SHA-256 of the JSON list of per-trial ``PINNED_FIELDS`` rows, recorded
#: while the default ``numpy`` backend still contracted mid-density masks
#: and lossy rounds with float32 sgemm over float32 delivered buffers — so
#: they pin the word tallies that replaced it to the results it gave.
PINNED_DIGESTS = {
    ("committee-ba", "null"): {
        "clique/0.0": "e0c24724d8566dcb67f1918371130332daf994fe6808ff6f60245dc29125d604",
        "clique/0.05": "7e022f068bb24c39d40113779fa788b930e233d4b47f4c83b4d82027ea001ecc",
        "clique/0.3": "7194fec67df906787fdf024fdcf427398bcc8c392882d48cafcc81e5da49fa8e",
        "ring/0.0": "c789affaf2d9fd1d674ee74b32becc7e7cb833e26d93a5ac1e23d6273d29db97",
        "ring/0.05": "451b1edf892eb3e3e7a3951f907da42cd8e366ac5e75e2506211c429aa56f83a",
        "ring/0.3": "0449979c05c38f08bd16434386eba2fc578d91f787bf5adec7e95a8705536d69",
        "erdos-renyi/0.0": "e6f1d401245ed53b132ac1df468f13a4f870353b24d02c0084f9147cc68c6bf9",
        "erdos-renyi/0.05": "b3607ea81dd190dde58dc38629dcba22f36d12bd2383663e69a0a738e9833ec7",
        "erdos-renyi/0.3": "8f79432f43d46adc8e2c893d080120f8caf2eb69bae9113827e7b6a73ef20ead",
    },
    ("committee-ba", "committee-targeting"): {
        "clique/0.0": "f6d9a49d9b741a52926f2904e541a912961df12105770eecb2e5bec55f8805b9",
        "clique/0.05": "f027da9c18a08bdf98eca3d8558da0df5df5fe1f9d33293d1eff25691e8a448d",
        "clique/0.3": "8de7400e47f503fefd08617eed000ae91a630a8a27a1593e3611b5bf72392f2b",
        "ring/0.0": "c04f4f233043dee1212bc3f57969a325a7af6a4d68afb43c80b09171aad86148",
        "ring/0.05": "20e52c00113c0dfb79a30d0bd036c63f075389a68b0ed13183cd3d1cbb923d11",
        "ring/0.3": "759a8629553c08add12d834bd31a08ba4ef715aa18d5f4462a60cc5f9b6fd5df",
        "erdos-renyi/0.0": "8cf9fa032ff0b2666a7f4ef197e4d52afff2e4b46fdb0e64490aab71facdf4ac",
        "erdos-renyi/0.05": "12c05c7db977b89d871c9073644ba863ab37f3b4a9d9511950668a58d99416cb",
        "erdos-renyi/0.3": "b662c2bda657cc056e5fa8adfcf6e1d3b7c55f277e18fe9b136c541f69b2ce5d",
    },
    ("rabin", "null"): {
        "clique/0.0": "24b1018c7392ff4b19f4ceec427deddbce926b0ceefe38af9a4b1c0fa9c192da",
        "clique/0.05": "204c0947fad689a5928b512108af6bc70c937c2bfd0d910ecea7f05463ed44ac",
        "clique/0.3": "4353004bb1d2b692671c879afee6519a8833a414d693bc01889013f3d6740be7",
        "ring/0.0": "5f080c206043d12f0a97d06303b06578193279a4ebb84b54362e2a6a20f568ea",
        "ring/0.05": "7ea31a75b1fab2061da0a11054b8a09a0888094203130367b5c4a458d402e00d",
        "ring/0.3": "376ca664bf57e76be6eb6773cb11d346cb3900bd7106ec7405ce60d375f04867",
        "erdos-renyi/0.0": "0e7566d90c4ca210aacd5ca07d44a5e5c66361550ecd70a75c7194df6ecd539a",
        "erdos-renyi/0.05": "986e86c2c5cc7a9eea651091a2442a943ae3d9f46b75cb13b2240a596701bc4a",
        "erdos-renyi/0.3": "1764cba7262b278107bb219e3a8da5056126835075f2ffac006af2c13a5a2df4",
    },
    ("rabin", "committee-targeting"): {
        "clique/0.0": "9604c9f797d6dce2df207dcd26b87073799e1c8619c7161a2100c2633a268a59",
        "clique/0.05": "225bec5098a1bb952e00054007641405b386c7441e1560989af17d07ae9baa5a",
        "clique/0.3": "84046b623ea0f3d9f75a4ee420bfdaa3fb2707cb66daa03d2d574f2f44a14186",
        "ring/0.0": "900b318f5d55d3edcddb453671655a1233fd174c510e54c736aa9758dd5c3982",
        "ring/0.05": "a2102010b2882b508ffa14d5c944b370a7aa022a3802663ff43affa96c0b5353",
        "ring/0.3": "ea1e82c1c4a19f002d9787cffa64e30d8369c6d33b57c356554f1fac64e95a90",
        "erdos-renyi/0.0": "b7cc74bc618faef4214a51c709dfe4ebb0866a240b611d1a51fc837fa057c602",
        "erdos-renyi/0.05": "0fea139cd57ac7fd2aeeda477b88c679a73f4ec62499ea86dd6d2ab31e34c22b",
        "erdos-renyi/0.3": "8b8c7b2d7c30f79ac0e9266c13b031340d596612f8548a8a856b6f907f3600e5",
    },
    ("ben-or", "null"): {
        "clique/0.0": "d9fc7db4b2e28af39559c3267e8626695c63eb44fc427d5fa06de5afbf8e5e0b",
        "clique/0.05": "7069d121d4b1819a82f352d8759b842a3ef2a9eb7ca625bd39cd11a7f6bd8d5a",
        "clique/0.3": "649532d573d06b8a4b1417e9d0109859f51c8085c81e050e09e4488fb205f9e9",
        "ring/0.0": "7a9d526b64a4ed59e25dbe9863f049d41697469b2a2981b2b1796846ff02557f",
        "ring/0.05": "cb9ec121820a684e78a79a0e952b52447a479d92c71304b5c189262ade8f9fd5",
        "ring/0.3": "5e2768d0a42507f47fdca06af42bcb2f9c1c97a746d0c6ec4d72290170a37435",
        "erdos-renyi/0.0": "16a426c9d0b12b28a6450a25b8442e7a50432fb8a1a4d5afc22bac9e72b0d98d",
        "erdos-renyi/0.05": "8dc241e977c2fa82d8394352466f135e22cf0e7313e6618237e20ff6b8971f33",
        "erdos-renyi/0.3": "eebd106885f476149efb1b6fda1a72b87e3706f4420e10c8436b8444d6448822",
    },
    ("ben-or", "committee-targeting"): {
        "clique/0.0": "527d4b7d3c04c7cd058f543069722b58900e065f6a70fd227a8f596ee074b5a4",
        "clique/0.05": "47c5a85ab1b4c0c47b8e5b9c5eccf4f239610b5d41cea1f80838a9041a96e6f7",
        "clique/0.3": "e0bbd7d80de0025b3614c2a957039f053aafed013f6f0d3c0f120c685a81096b",
        "ring/0.0": "fd16902f7e20df9e3bcd0917dce5be33fce15402b30f7266ef4b9b776441d728",
        "ring/0.05": "b974ffb9b8d3455720b221be4c02955290f152a91059637e486b96a7389f5b3f",
        "ring/0.3": "07d528161a5d3a9c77a9edba2b1aeb287a37fb0085cd0c798288d7fd19c671ac",
        "erdos-renyi/0.0": "a0cbc3c95528352f3743a0ca1d54e985fd405e70cccce89c73e5236f153129ee",
        "erdos-renyi/0.05": "bfde8e01f1e08d03a2e24f867c3e53a94a9c7a4bf38b56cfa720aa9a9771ac51",
        "erdos-renyi/0.3": "f61121e8308236b255e4f87a62cc89b1647450b4279ca512242a293ef908512d",
    },
    ("phase-king", "null"): {
        "clique/0.0": "609dd51f8ca152b8105d1866a10c49ea0e5ed416e2f173f95444047502504381",
        "clique/0.05": "c2c3c64b922d3b3120c3a8b5833b5078f5ee17272f01f181e35a3016eb8050e7",
        "clique/0.3": "1d5af0d2f176b818a446ebd6a254f049e7c52711ff65ff943b913f078c56af12",
        "ring/0.0": "106867376c04d4b90db1b8820d60c26278f3e52540490fe1a5faa8843c894c98",
        "ring/0.05": "4770496c59a083c7483bbe28f45b4149f096f2df4a8408343da1e64f82757156",
        "ring/0.3": "c32aac73b4ff8f6a868b72b241472262007a83af0f012ee3a1aff836ef6ad9ac",
        "erdos-renyi/0.0": "a1cb76f0448d0c26d8bf52617f629bb222e10bf5b57b69c8012a951855c1ffeb",
        "erdos-renyi/0.05": "1bd50bb0261c408d351e9ecf29dad8289b693fd612206f7d5a32da3541206f2a",
        "erdos-renyi/0.3": "3a3ece9939afa496ce5ee2dd5018f33b91ce952a4ab78549a9a0b65f78774b3d",
    },
    ("phase-king", "committee-targeting"): {
        "clique/0.0": "51347d9ccdc519aa827a2edce57dfda9c6e2c1da53a4edb57706f0b6dfc15dc5",
        "clique/0.05": "11bf4155b3d0479180f87287f327d7b1d228c8361c2c6c9ecd4dda5d0a76cd40",
        "clique/0.3": "5efe3d757ecd52897861709807bf282e49fa21770ec789d27f29e06c902c01aa",
        "ring/0.0": "c193116674136e43c0839f56e717b2ef41890524b7ec3b1b202b14501cf28ac5",
        "ring/0.05": "ec03cae4e6694a0eed0fe94fcb2c4bb81fdceb462fd697097e6139a50784d2ca",
        "ring/0.3": "d21978af8ddb2f33a312a3d981497100db567fb8f2317bf7d323f253c06f7316",
        "erdos-renyi/0.0": "30a8ada12d2f9fb0ed3c0aae851f9a930591e0022a02a7ecac4c11a4ff4f34f5",
        "erdos-renyi/0.05": "2aaaf46d53881507ea0acfe1fb27d115a6395b995188f5b0244b67ac219a50f1",
        "erdos-renyi/0.3": "5c5c219a6b86bf335845af9d8b958f76df8c32481d09f0b7e295e97505e703df",
    },
}


def _pinned_digest(protocol: str, adversary: str, topology: str, loss: float) -> str:
    # Ben-Or's private coin rarely reaches its quorum at this size, so its
    # trials run to the round cap: a low cap keeps them short.
    result = run_sweep(
        16, 3, protocol=protocol, adversary=adversary, inputs="split", trials=4,
        base_seed=29, engine="vectorized", topology=topology, loss=loss,
        allow_timeout=True, max_rounds=40 if protocol == "ben-or" else None,
    )
    assert result.engine == "vectorized"
    rows = [[getattr(trial, name) for name in PINNED_FIELDS] for trial in result.trials]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


class TestPinnedDigests:
    @pytest.mark.parametrize("adversary", PINNED_ADVERSARIES)
    @pytest.mark.parametrize("protocol", PINNED_PROTOCOLS)
    def test_masked_and_lossy_results_match_the_pinned_digests(self, protocol, adversary,
                                                               native_kernel):
        got = {
            f"{topology}/{loss}": _pinned_digest(protocol, adversary, topology, loss)
            for topology in PINNED_TOPOLOGIES
            for loss in LOSSES
        }
        assert got == PINNED_DIGESTS[protocol, adversary]


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
    def test_mid_density_adjacency_strategy_matches_int64_references(self, n):
        rng = np.random.default_rng(2 * n)
        adjacency = rng.random((n, n)) < 0.5
        np.fill_diagonal(adjacency, True)
        adjacency &= adjacency.T
        counter = AdjacencyCounter(adjacency)
        assert counter.strategy == "packed"
        assert counter.wants_words
        reference = adjacency.astype(np.int64)
        sent = rng.random((5, n)) < 0.5
        expected = sent.astype(np.int64) @ reference
        np.testing.assert_array_equal(counter.receive_counts(sent), expected)
        words = pack_sender_words(sent, n)
        np.testing.assert_array_equal(counter.receive_counts_words(words), expected)
        np.testing.assert_array_equal(counter.delivered_edges_words(words), expected.sum(axis=1))
        np.testing.assert_array_equal(counter.delivered_edges(sent), expected.sum(axis=1))
        shares = rng.integers(-1, 2, size=(5, n)).astype(np.int8)
        np.testing.assert_array_equal(
            counter.signed_counts(shares), shares.astype(np.int64) @ reference
        )

    @pytest.mark.parametrize("n", (7, 64, 70, 130))
    def test_delivered_channel_matches_int64_einsum(self, n):
        rng = np.random.default_rng(3 * n)
        batch = 5
        kept = rng.random((batch, n, n)) < 0.6  # kept[b, j, i]: j reaches i
        words = np.zeros((batch, n, word_width(n)), dtype=np.uint64)
        for b in range(batch):
            words[b] = pack_sender_words(kept[b].T.copy(), n)
        channel = PackedDeliveredChannel(words, n)
        kept64 = kept.astype(np.int64)
        sent = rng.random((batch, n)) < 0.5
        expected = np.einsum("bj,bji->bi", sent.astype(np.int64), kept64)
        np.testing.assert_array_equal(channel.receive_counts(sent), expected)
        edges = np.einsum("bj,bji->b", sent.astype(np.int64), kept64)
        np.testing.assert_array_equal(channel.delivered_edges(sent), edges)
        np.testing.assert_array_equal(
            channel.delivered_edges_words(pack_sender_words(sent, n)), edges
        )
        shares = rng.integers(-1, 2, size=(batch, n)).astype(np.int8)
        shares[:, : n // 2] = 0  # a committee slice: leading words send nothing
        np.testing.assert_array_equal(
            channel.signed_counts(shares),
            np.einsum("bj,bji->bi", shares.astype(np.int64), kept64),
        )
