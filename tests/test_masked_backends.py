"""Bit identity on the masked / lossy communication path.

Masked-topology and lossy runs tally their per-recipient counts through the
word channels of :mod:`repro.topology.counting` on every plane backend:
AND+popcount over packed uint64 words.
The delivered-edge Philox draws are sampled outside the backends, as packed
words, and every tally is an exact integer.  Acceptance surfaces:

* **pinned digests**: per-trial results of four protocols on the masked
  planes (topology x loss x a null and an adaptive adversary) match digests
  recorded from the float32 sgemm tallies the word channels replaced; a
  second set (the coin attack and the equivocator on sparse grid and star
  masks, split and random inputs) matches digests recorded while sparse
  masks were tallied as segment sums and random input rows were drawn
  through per-trial generators;
* **engine identity**: ``run_vectorized_trials`` under ``backend="packed"``
  matches ``"numpy"`` field-for-field over *every* topology generator
  crossed with loss in {0.0, 0.05, 0.3};
* **sharded identity**: a masked lossy sweep sharded over two workers matches
  the single-process numpy reference trial-for-trial — also when the parent
  started its loss-draw thread pool before forking the workers, which must
  then draw inline instead of waiting on the inherited, threadless pool;
* **tally unit behaviour**: the lossy round's
  :class:`~repro.topology.counting.PackedDeliveredChannel` matches int64
  references on ragged widths and signed (±1 share) planes, through its
  word tally (every channel against every mask and both backends:
  ``tests/test_topology.py::TestChannelContract``).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.topology.loss as loss_module
from repro.adversary.kernels import committee_targeting, crash, straddle
from repro.baselines.kernels.phase_king import run_phase_king_trials
from repro.core.parameters import ProtocolParameters
from repro.engine import run_sweep
from repro.simulator.vectorized import run_vectorized_trials
from repro.topology import TOPOLOGIES, build_topology
from repro.topology.counting import (
    AdjacencyCounter,
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

    @pytest.mark.parametrize("backend", ["numpy", "packed"])
    @pytest.mark.parametrize("protocol,adversary", [
        ("committee-ba-las-vegas", "coin-attack"),
        ("committee-ba-las-vegas", "crash"),
        ("committee-ba", "random-noise"),
        ("phase-king", "equivocate"),
    ])
    def test_the_word_channel_on_the_complete_graph_is_the_clique(
        self, monkeypatch, protocol, adversary, backend
    ):
        # An all-True mask runs the clique channel.  Forced onto the
        # fixed-mask word channel instead, the (B, n) per-recipient
        # tallies, delivered edges and share sums must change nothing.
        n, t = 48, 6
        kwargs = dict(adversary=adversary, inputs="split", trials=5, seed=29)
        if protocol == "phase-king":
            run = run_phase_king_trials
        else:
            run = partial(run_vectorized_trials, protocol=protocol, backend=backend)
        clique = run(n, t, **kwargs)
        monkeypatch.setattr(
            loss_module, "CliqueChannel",
            lambda n: AdjacencyCounter(np.ones((n, n), dtype=bool)),
        )
        assert run(n, t, **kwargs) == clique

    @pytest.mark.parametrize("adversary", ["coin-attack", "crash", "committee-targeting"])
    @pytest.mark.parametrize("network", [{"adjacency": "star"}, {"loss": 0.3}])
    def test_the_coin_line_keeps_the_adjustment_dtype_off_the_clique(
        self, monkeypatch, adversary, network
    ):
        # A recipient's share sum, plus the kernel's adjustment, stays within
        # the adjustment's dtype (int8 for this committee of 64): rows equal
        # those of the same run with every adjustment widened to int64.
        n, t = 128, 16
        if "adjacency" in network:
            network = {"adjacency": build_topology(network["adjacency"], n)}
        kwargs = dict(
            protocol="committee-ba-las-vegas", adversary=adversary, inputs="split",
            trials=4, seed=5, alpha=0.2, **network,
        )
        assert ProtocolParameters.derive(n, t, 0.2).committee_size == 64
        narrow = run_vectorized_trials(n, t, **kwargs)
        for module in (straddle, crash, committee_targeting):
            monkeypatch.setattr(module, "share_adjustment_dtype", lambda size: np.dtype(np.int64))
        assert run_vectorized_trials(n, t, **kwargs) == narrow

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
        assert sharded.trials == serial.trials

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
            assert sharded.trials == serial.trials
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


#: Entries added while sparse loss-free masks were still tallied as segment
#: sums and random input rows were drawn through per-trial generators: the
#: coin attack and the equivocator, the grid and star masks at a size where
#: both were sparse enough for segment sums (n=40), and both input
#: patterns.  Recorded at that commit, so they pin the word tallies and the
#: cursor-drawn inputs that replaced them.
PINNED_SPARSE_ADVERSARIES = ("coin-attack", "equivocate")
PINNED_SPARSE_NETWORKS = (
    ("clique", 0.0), ("grid", 0.0), ("grid", 0.05), ("star", 0.0), ("star", 0.05),
)
PINNED_INPUTS = ("split", "random")
PINNED_SPARSE_DIGESTS = {
    ("committee-ba", "coin-attack"): {
        "clique/0.0/split": "3170a2c07ac9a896d4dc5a7d58d8d04171ccf041fc395aa19f022cd84c3ff702",
        "clique/0.0/random": "656c0c9bddc80449a43c8e49b421ba9a864cb8dcd089ee151a8802bd1e486f42",
        "grid/0.0/split": "79121f1ff877be10c43ece9a2acb7cf3f23991737cb84cac8163b54099200a1b",
        "grid/0.0/random": "24c53d36642a71a41fc23c19aa736b0fa8dcc357b1ece102bf68d2827f4dc743",
        "grid/0.05/split": "0b628f42d24f02c0a59988f7f552cedd65aacaf3884b28d4e96f077151321115",
        "grid/0.05/random": "9dbd19489854bd03590b6613b0e676971495a947e62e92aa38d8212f5bb6c4cc",
        "star/0.0/split": "1c8749d9d08788611ad56dd37e4e509ec1cc6a7bc91af1064980f1cdf7c1b413",
        "star/0.0/random": "f72611b40fdf320a87167c87b381f81ff55f9da8450e6ad81f12abad278dbb4c",
        "star/0.05/split": "0c2533abd28a5a940f221529115c47aabb1c1242ee86c75b7535a39a8adf68aa",
        "star/0.05/random": "08a6fcb6bc40edae9f89e50629942bc9475df2b1c588ad36a72f9b9ebba3e18f",
    },
    ("committee-ba", "equivocate"): {
        "clique/0.0/split": "7a1f6a80dfa96cc1f411dfec8d85c5011c9d571f872503cc2def5ff1e25077cc",
        "clique/0.0/random": "f802bbe713da264fbef925fdd2202b5f65f2a40058171d9352858f4abeb465e6",
        "grid/0.0/split": "255367c3c58cecddfbb8a24c808376fd76f0c494b787a69fc5c8ac6a99dcfb56",
        "grid/0.0/random": "aedc32e2ab23f1609b343bd535820cca49a6bf19cb1acaf953a224a0ab291279",
        "grid/0.05/split": "61bb96cfb79198ca49f84d9d57c48ac8a222a04042f2c3c6e8bedc524cb44f36",
        "grid/0.05/random": "da9e6e0b858f2f3c311483e6d9655c75acf940f3e61344dc50003ac92ffcba8a",
        "star/0.0/split": "ff08c68bad2c4f49e08a72dcf0b7c5dccb9ad1885dc9287a2a51750fa487523a",
        "star/0.0/random": "b63da205bdc11ce3850565a237375bddb868857413554abc7f38cd52086cd183",
        "star/0.05/split": "d2bbf02cbd48315618d1c362cfcd1ec89253a89e0f1d5607ccf8c0f4c4f849ff",
        "star/0.05/random": "d439b35b199401fb1bd3f409f422300a0cbb10551a2e790b4f866f2015b158a6",
    },
    ("rabin", "coin-attack"): {
        "clique/0.0/split": "2e7adcb28ed8c59a188cbca09b2d5f1abd19518ceb14070261578d9b3e30cf8c",
        "clique/0.0/random": "8546b72b50333438839727518728d4e7b93111a2648cc98d8b4d8074e26dfb1f",
        "grid/0.0/split": "dd0629edba426bd995f775ff68d160e955541d3f6b3b8d2c6b011aa05e21a3ae",
        "grid/0.0/random": "2f35fe67cfce22bf8fe499be3733c84ce741b2a63fe6f1852160a336159ed876",
        "grid/0.05/split": "f4e14c7e50d1c103a442223e5496335d564e91312c580492405a986fa80b0a9a",
        "grid/0.05/random": "0dfe96e4030150c562aaf8d0bb305e4df7ec819692d0013bf0d5ec90b80671f9",
        "star/0.0/split": "a2de3411cd21b95000f0ce068519bcec219508cad5a94c4da7f10df492fcf495",
        "star/0.0/random": "7c7857a4ed5a607f7b43e0e6e50bd0bd5fa723afd83d8f378cbfbea58ef5855d",
        "star/0.05/split": "1db7df3a2b29efdce4c628c1fd9fb679af9e883fc46286de2e2730a1bd5770c2",
        "star/0.05/random": "293482d8a26f2a847cdff7f702b6f8287d629b89f7b144657a7930b72d5a0acd",
    },
    ("rabin", "equivocate"): {
        "clique/0.0/split": "ed5fe4c2bde8fdc22b8391fc5bfb0a63afa2d2c877c94e4cd24052a9132a82bb",
        "clique/0.0/random": "ed5fe4c2bde8fdc22b8391fc5bfb0a63afa2d2c877c94e4cd24052a9132a82bb",
        "grid/0.0/split": "bfb20140bbce576496a3b6492991302140d0eb57b061c1604f3404ae3eeddc4a",
        "grid/0.0/random": "bfb20140bbce576496a3b6492991302140d0eb57b061c1604f3404ae3eeddc4a",
        "grid/0.05/split": "5b115649157a2916f99ce952ba5fa784e4f7b7dea25f6cf8474ebb45195c45b0",
        "grid/0.05/random": "3c8a25f8f4bf1b2acaaa5af99b2a0c3bb685a66cc2923fd3f506a54752ca412f",
        "star/0.0/split": "f43429edfe45475ad7bb1469023f2dc1908cbb2dce4d6480ad66ac7724eb1e23",
        "star/0.0/random": "f43429edfe45475ad7bb1469023f2dc1908cbb2dce4d6480ad66ac7724eb1e23",
        "star/0.05/split": "538b4c39e53c3b144aa24d817cbd8d97df81604e03878edb2200cb20ca1c78f9",
        "star/0.05/random": "c5fa8407301f5c4bc5808a4150ed28d04d71204569e66991ceb6b05cdd595b0a",
    },
    ("ben-or", "coin-attack"): {
        "clique/0.0/split": "10972c09b3c40a37956905dacc1512c929668d4aeaea2499d1863c956b244952",
        "clique/0.0/random": "7bdbaa0322acfcbba43933258365af181ec66ae3477a8f91d997b55fe13c1915",
        "grid/0.0/split": "571ec93e3b5adc00582edc8705fec3a06a72fb09d77ea4254ee9cf7767bc4d5c",
        "grid/0.0/random": "8ffc5e349b817205be569e469a8f914eeff146aeb2ddc9e75b4390765b7586f5",
        "grid/0.05/split": "cf52c972a18b7fde21677281d3a37cefdf5453d8ca98d67702ad55eee0aa86b2",
        "grid/0.05/random": "fb9bc810a0a36a7f2c9afc954dec8bbd5f59e07485e1606c1651e9028a208584",
        "star/0.0/split": "9a711f68033cc043f544cc8d6061991059b56f326beec54d2f9be0a54ef6da74",
        "star/0.0/random": "5a55c40e29b506b2d0958723e618dfa51b8ec3375e5b705cd2cb754bc4d95293",
        "star/0.05/split": "f046bdb14b6024b5b881de5305364804b08464a1da6582c03675e4bdef5fd86b",
        "star/0.05/random": "3c0ec6ed03270aadac39911ee3f5163945737afb00d64fbe1735963e21f031bd",
    },
    ("ben-or", "equivocate"): {
        "clique/0.0/split": "405d4e7b39e117d14a864ad90c91b861f7a063f0843804c2056fcfbad0668b5d",
        "clique/0.0/random": "405d4e7b39e117d14a864ad90c91b861f7a063f0843804c2056fcfbad0668b5d",
        "grid/0.0/split": "e0a84090b323877d1a72a6f137a30d7d7714fc704914e872c7978f3173678228",
        "grid/0.0/random": "e0a84090b323877d1a72a6f137a30d7d7714fc704914e872c7978f3173678228",
        "grid/0.05/split": "fbbd9ff63d56390bd2f731f89a09c94736f3dd26b886a513d7a54415288f4550",
        "grid/0.05/random": "2423f1db5f69fd0dc5e3f3e63fd84a2548c34efb58a1f688e98b27e80a5bf838",
        "star/0.0/split": "85f5ae7f36928b038e8bd7c1e38aadf8500de871cc91e67bb5ab3807e3b2bec9",
        "star/0.0/random": "85f5ae7f36928b038e8bd7c1e38aadf8500de871cc91e67bb5ab3807e3b2bec9",
        "star/0.05/split": "40f4e3537197c2eb787463bb6038ca2f241b0b3d2886eb54d2ec43f6f2a5ae45",
        "star/0.05/random": "68df60c65ab02ce4f084548a39183cab0dc368f47a19caa4e219d3814ba9c881",
    },
    ("phase-king", "coin-attack"): {
        "clique/0.0/split": "743a60c754b92b0aa346bcf4ec8f406e7d34ae0df4cf7e8b19c51419b07774ca",
        "clique/0.0/random": "743a60c754b92b0aa346bcf4ec8f406e7d34ae0df4cf7e8b19c51419b07774ca",
        "grid/0.0/split": "80671930f6496a762856714f6df2cd45aa6d6c10ba3ed5ec9d8d3a22272c8996",
        "grid/0.0/random": "c18406be27e02e000575362add34622aaa9c4a25fc4f73de1258e643c876cb6d",
        "grid/0.05/split": "2291b83c722b9f578c688125088b97a6f6895d75e08b158754c221543bf00546",
        "grid/0.05/random": "0099964282b2e580aca22333b9c459d3461f6c4b2916a00dedb2dcf71efda0e7",
        "star/0.0/split": "6c3b37c0d2237023928ac3fc608c1459806798b943524296aba1d31420e9bdd9",
        "star/0.0/random": "6c3b37c0d2237023928ac3fc608c1459806798b943524296aba1d31420e9bdd9",
        "star/0.05/split": "ec062abb7d4f4b2dafa57302ab4b68c41ee6569dac6ce131121b804e7b77fb31",
        "star/0.05/random": "c5e7f1b092c54db9f63d7a6f7a346cb62fdd290aa542d4fa4b89e770ce9b57f4",
    },
    ("phase-king", "equivocate"): {
        "clique/0.0/split": "cdd32bffa61709fb3ab71578e46359b8e5a64ece78cc018287dad2de83bd1b47",
        "clique/0.0/random": "e29371bc72b45543a208c647bc54cd529f2e40ad2372429cbc754892f3f55b0d",
        "grid/0.0/split": "b134f3770685d8351bf8cf58233ef31528844effc5e9d00345bc7bed50197c33",
        "grid/0.0/random": "c3f861975600789d34d7185fcf62ff750ae369981c75b05d23861e28e99e4feb",
        "grid/0.05/split": "1e651e0e4d27d62f3515a5b89ddefa3e1e83c291121773050888993a6e4b39bc",
        "grid/0.05/random": "612acd5a30225ccd9cf2929f09a1f90a5b826db504774553ad6091b6d969f5f2",
        "star/0.0/split": "cf46bb55f5b01642bdc0ace01f486e53f12673ce9faf781657767f71bc8808da",
        "star/0.0/random": "673a5f3994e2f03fce2c158e73f0a8a0ed93f71e868b441ec91f5c41211bbcaf",
        "star/0.05/split": "c78b2ef42bad6ea1a478111bcd53d8ad7b4465f3247f2f8a8347e9629ae0d1e1",
        "star/0.05/random": "53b82bdacd191ccceb58dcb64dfc8b96328532d30b3ab48014cfd3647abe162d",
    },
}


def _pinned_digest(protocol: str, adversary: str, topology: str, loss: float,
                   n: int = 16, t: int = 3, inputs: str = "split") -> str:
    # Ben-Or's private coin rarely reaches its quorum at this size, so its
    # trials run to the round cap: a low cap keeps them short.
    result = run_sweep(
        n, t, protocol=protocol, adversary=adversary, inputs=inputs, trials=4,
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

    @pytest.mark.parametrize("adversary", PINNED_SPARSE_ADVERSARIES)
    @pytest.mark.parametrize("protocol", PINNED_PROTOCOLS)
    def test_sparse_masks_and_random_inputs_match_the_pinned_digests(
        self, protocol, adversary, native_kernel
    ):
        got = {
            f"{topology}/{loss}/{inputs}": _pinned_digest(
                protocol, adversary, topology, loss, n=40, t=5, inputs=inputs
            )
            for topology, loss in PINNED_SPARSE_NETWORKS
            for inputs in PINNED_INPUTS
        }
        assert got == PINNED_SPARSE_DIGESTS[protocol, adversary]


class TestTallyUnits:
    @pytest.mark.parametrize("n", (7, 64, 70, 130))
    def test_word_tally_matches_bool_einsum_on_ragged_widths(self, n):
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
        channel = PackedDeliveredChannel(words, n)
        got = channel.receive_counts_words(pack_sender_words(sent, n))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

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
        counts = channel.receive_counts_words(pack_sender_words(sent, n))
        np.testing.assert_array_equal(counts, expected)
        edges = np.einsum("bj,bji->b", sent.astype(np.int64), kept64)
        np.testing.assert_array_equal(channel.delivered_edges(counts), edges)
        shares = rng.integers(-1, 2, size=(batch, n)).astype(np.int8)
        shares[:, : n // 2] = 0  # a committee slice: leading words send nothing
        np.testing.assert_array_equal(
            channel.signed_counts(shares[:, n // 2 :], n // 2, shares.sum(axis=1)),
            np.einsum("bj,bji->bi", shares.astype(np.int64), kept64),
        )
