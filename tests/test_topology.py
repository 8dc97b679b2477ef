"""Unit tests for the topology generators and the per-edge loss model.

The generators feed the masked communication planes of the vectorised
engine and the object scheduler's drop sets, so the invariants checked here
(symmetry, the mandatory True diagonal, connectivity, determinism) are
exactly the ones `validate_adjacency` enforces and the engines rely on.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.topology.loss as loss_module
from repro.exceptions import ConfigurationError
from repro.observability import Tracer, activate
from repro.simulator.draws import TrialStreams
from repro.topology import (
    DEFAULT_TOPOLOGY,
    AdjacencyCounter,
    TOPOLOGIES,
    build_topology,
    chain,
    clique,
    degrees,
    erdos_renyi,
    grid2d,
    is_connected,
    markdown_topology_catalogue,
    ring,
    sample_delivered,
    sample_drops,
    star,
    topology_catalogue_table,
    tree,
    validate_adjacency,
    validate_loss,
)
from repro.topology.counting import pack_sender_words, word_width
from repro.topology.loss import sample_delivered_words


class TestGeneratorInvariants:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 25, 48])
    def test_shape_symmetry_and_diagonal(self, name, n):
        adjacency = build_topology(name, n)
        assert adjacency.shape == (n, n)
        assert adjacency.dtype == np.bool_
        assert np.array_equal(adjacency, adjacency.T)
        assert adjacency.diagonal().all()

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("n", [2, 7, 25, 48])
    def test_every_named_topology_is_connected_at_test_sizes(self, name, n):
        # erdos-renyi does not *guarantee* connectivity, but at density 0.5
        # and these sizes it is (and the catalogue column would flag a
        # regression at n=25).
        assert is_connected(build_topology(name, n))

    def test_default_topology_is_the_clique(self):
        assert DEFAULT_TOPOLOGY == "clique"
        assert build_topology("clique", 9).all()

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            build_topology("torus", 9)

    @pytest.mark.parametrize("builder", [clique, chain, ring, star, grid2d, tree])
    def test_builders_reject_empty_networks(self, builder):
        with pytest.raises(ConfigurationError, match="at least one node"):
            builder(0)


class TestGeneratorStructure:
    def test_clique_degrees(self):
        assert (degrees(clique(10)) == 9).all()

    def test_chain_degrees_and_endpoints(self):
        degs = degrees(chain(10))
        assert degs[0] == 1 and degs[-1] == 1
        assert (degs[1:-1] == 2).all()

    def test_ring_closes_the_chain(self):
        adjacency = ring(10)
        assert adjacency[0, 9] and adjacency[9, 0]
        assert (degrees(adjacency) == 2).all()

    def test_small_rings_have_no_duplicate_edge(self):
        # n=2: the closing edge would duplicate the chain edge.
        assert np.array_equal(ring(2), chain(2))

    def test_star_hub_and_leaves(self):
        degs = degrees(star(10))
        assert degs[0] == 9
        assert (degs[1:] == 1).all()

    def test_grid_degree_range(self):
        degs = degrees(grid2d(25))  # exact 5x5 grid
        assert degs.min() == 2 and degs.max() == 4
        # partial last row stays within the 2..4 band too
        degs = degrees(grid2d(23))
        assert degs.min() >= 1 and degs.max() <= 4

    def test_tree_is_a_heap(self):
        adjacency = tree(15)  # full binary tree of depth 3
        degs = degrees(adjacency)
        assert degs[0] == 2  # root
        assert (degs[7:] == 1).all()  # leaves
        assert adjacency[3, 7] and adjacency[3, 8]  # node 3's children

    def test_erdos_renyi_is_deterministic_per_key(self):
        a = erdos_renyi(30, density=0.5, seed=0)
        b = erdos_renyi(30, density=0.5, seed=0)
        assert np.array_equal(a, b)
        c = erdos_renyi(30, density=0.5, seed=1)
        assert not np.array_equal(a, c)

    def test_erdos_renyi_density_extremes(self):
        assert np.array_equal(erdos_renyi(12, density=0.0), np.eye(12, dtype=bool))
        assert erdos_renyi(12, density=1.0).all()
        with pytest.raises(ConfigurationError, match="density"):
            erdos_renyi(12, density=1.5)


class TestValidateAdjacency:
    def test_accepts_and_casts_to_bool(self):
        out = validate_adjacency(np.ones((4, 4), dtype=np.int64), 4)
        assert out.dtype == np.bool_ and out.all()

    def test_rejects_wrong_shape(self):
        with pytest.raises(ConfigurationError, match="shape"):
            validate_adjacency(np.ones((3, 4), dtype=bool), 4)

    def test_rejects_asymmetric(self):
        bad = np.eye(4, dtype=bool)
        bad[0, 1] = True
        with pytest.raises(ConfigurationError, match="symmetric"):
            validate_adjacency(bad, 4)

    def test_rejects_false_diagonal(self):
        bad = np.ones((4, 4), dtype=bool)
        bad[2, 2] = False
        with pytest.raises(ConfigurationError, match="diagonal"):
            validate_adjacency(bad, 4)


class TestLossModel:
    def test_validate_loss_bounds(self):
        assert validate_loss(0.0) == 0.0
        assert validate_loss(0.25) == 0.25
        for bad in (-0.1, 1.0, 2.0):
            with pytest.raises(ConfigurationError, match="loss"):
                validate_loss(bad)

    def test_sample_delivered_respects_adjacency_and_diagonal(self):
        adjacency = ring(8)
        rngs = [np.random.default_rng(k) for k in range(3)]
        running = np.array([True, False, True])
        delivered = sample_delivered(adjacency, 0.4, 8, rngs, running)
        assert delivered.shape == (3, 8, 8)
        # non-running trials carry no traffic
        assert not delivered[1].any()
        for b in (0, 2):
            assert (delivered[b] <= adjacency).all()  # never off-graph
            assert delivered[b].diagonal().all()  # self-delivery never fails

    def test_sample_delivered_draws_only_from_running_generators(self):
        adjacency = clique(6)
        running = np.array([True, False])
        rngs = [np.random.default_rng(7), np.random.default_rng(9)]
        sample_delivered(adjacency, 0.3, 6, rngs, running)
        # trial 1 was skipped: its generator must be untouched
        fresh = np.random.default_rng(9)
        assert rngs[1].random() == fresh.random()

    def test_sample_drops_is_the_complement_view(self):
        adjacency = star(6)
        drops = sample_drops(adjacency, 0.0, 6, None)
        # exactly the directed non-edges, no self-pairs
        expected = {
            (j, i)
            for j in range(6)
            for i in range(6)
            if j != i and not adjacency[j, i]
        }
        assert drops == expected

    def test_sample_drops_consumes_rng_only_when_lossy(self):
        rng = np.random.default_rng(5)
        sample_drops(ring(6), 0.0, 6, None)  # no rng needed at loss=0
        before = rng.bit_generator.state
        sample_drops(ring(6), 0.5, 6, rng)
        assert rng.bit_generator.state != before

    def test_lossy_clique_drops_are_plausible(self):
        rng = np.random.default_rng(123)
        total = sum(len(sample_drops(None, 0.5, 20, rng)) for _ in range(50))
        # 20*19 directed pairs, p=0.5, 50 rounds -> mean 9500
        assert 8500 < total < 10500


def _serial_reference(adjacency, loss, n, rngs, running):
    """The historical serial draw loop: ``random(out=)`` then ``>= loss``."""
    delivered = np.zeros((len(running), n, n), dtype=bool)
    draw = np.empty((n, n), dtype=np.float64)
    for b in np.flatnonzero(running):
        rngs[b].random(out=draw)
        kept = draw >= loss
        if adjacency is not None:
            kept &= adjacency
        np.fill_diagonal(kept, True)
        delivered[b] = kept
    return delivered


def _same_state(a, b):
    """Deep equality of two ``bit_generator.state`` dicts (Philox holds arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _packed(delivered):
    """``(B, n, n)`` sender-major booleans as recipient-major words."""
    n = delivered.shape[1]
    return np.stack([pack_sender_words(kept.T.copy(), n) for kept in delivered])


#: Trials 1, 4 and 5 are finished: the running mask has gaps.
RUNNING = np.array([True, False, True, True, False, False, True, True, True])


class TestLossDrawKernel:
    """Both samplers against the historical serial loop, bit for bit.

    Both kernels (the ``native_kernel`` fixture runs each test under the
    native and the NumPy kernel) compare raw 64-bit outputs against an
    integer threshold on a thread pool; the reference draws floats one trial
    after another.  Three draw threads split the six running trials into
    uneven chunks on any machine, and a tiny switch interval makes the
    threads interleave as often as the interpreter allows.
    """

    @pytest.fixture(autouse=True)
    def three_draw_threads(self, monkeypatch):
        monkeypatch.setattr(loss_module, "_workers", 3)
        monkeypatch.setattr(loss_module, "_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _generators(bit_generator):
        rngs = [np.random.Generator(bit_generator(seed)) for seed in range(len(RUNNING))]
        for size, rng in enumerate(rngs):
            # Odd sizes leave a buffered uint32 half pending in the generator.
            rng.integers(0, 2, size=size)
        return rngs

    @pytest.mark.parametrize("adjacency_name", [None, "ring"])
    @pytest.mark.parametrize("n", [1, 7, 64, 65, 200])
    @pytest.mark.parametrize("loss", [2.0**-53, 0.05, 0.3, 0.5, 1.0 - 2.0**-53])
    @pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64])
    def test_samplers_match_the_serial_loop(self, bit_generator, loss, n, adjacency_name,
                                            native_kernel):
        adjacency = None if adjacency_name is None else build_topology(adjacency_name, n)
        reference_rngs = self._generators(bit_generator)
        expected = _serial_reference(adjacency, loss, n, reference_rngs, RUNNING)

        rngs = self._generators(bit_generator)
        assert np.array_equal(sample_delivered(adjacency, loss, n, rngs, RUNNING), expected)
        assert all(_same_state(a.bit_generator.state, b.bit_generator.state)
                   for a, b in zip(rngs, reference_rngs))

        rngs = self._generators(bit_generator)
        out = np.ones((len(RUNNING), n, n), dtype=bool)
        assert sample_delivered(adjacency, loss, n, rngs, RUNNING, out=out) is out
        assert np.array_equal(out, expected)

        rngs = self._generators(bit_generator)
        words = sample_delivered_words(adjacency, loss, n, rngs, RUNNING)
        # Row i of the words packs the senders that reach recipient i.
        assert np.array_equal(words, _packed(expected))
        assert all(_same_state(a.bit_generator.state, b.bit_generator.state)
                   for a, b in zip(rngs, reference_rngs))

    @pytest.mark.parametrize("rows", ["cursors", "generators"])
    def test_the_boolean_sampler_is_the_unpacked_words(self, rows, native_kernel):
        # sample_delivered draws the words of sample_delivered_words and
        # unpacks them sender-major: equal streams give equal matrices and
        # leave the streams in equal states.
        n = 70
        if rows == "cursors":
            streams = [TrialStreams(9, 4, len(RUNNING)) for _ in range(2)]
        else:
            streams = [TrialStreams.of(self._generators(np.random.Philox)) for _ in range(2)]
        for stream in streams:
            stream.draw_bits(np.arange(len(RUNNING)) % 3)  # leave halves pending
        delivered = sample_delivered(ring(n), 0.2, n, streams[0], RUNNING)
        words = sample_delivered_words(ring(n), 0.2, n, streams[1], RUNNING)
        assert np.array_equal(_packed(delivered), words)
        assert not delivered[~RUNNING].any()
        counts = np.full(len(RUNNING), 5)
        assert np.array_equal(streams[0].draw_bits(counts), streams[1].draw_bits(counts))
        for row in range(len(RUNNING)):
            assert _same_state(streams[0][row].bit_generator.state,
                               streams[1][row].bit_generator.state)

    def test_raw_threshold_equals_the_float_test_at_its_boundary(self):
        # Random draws almost never land next to the threshold, so probe
        # the raw outputs around it directly, as random() converts them.
        losses = [2.0**-53, 0.05, 0.3, 0.5, 1.0 / 3.0, 1.0 - 2.0**-53]
        losses += list(np.random.default_rng(0).random(200))
        for loss in losses:
            threshold = int(loss_module._raw_threshold(loss))
            offsets = (-4096, -2049, -2048, -2047, -1, 0, 1, 2047, 2048, 2049)
            raws = np.array(
                [threshold + d for d in offsets if 0 <= threshold + d < 2**64]
                + [0, 2**64 - 1],
                dtype=np.uint64,
            )
            as_random = (raws >> np.uint64(11)).astype(np.float64) * 2.0**-53
            assert np.array_equal(raws >= loss_module._raw_threshold(loss),
                                  as_random >= loss), loss

    def test_a_generator_shared_between_trials_is_drawn_inline_in_trial_order(self, native_kernel):
        shared = np.random.Generator(np.random.Philox(4))
        reference = np.random.Generator(np.random.Philox(4))
        expected = _serial_reference(None, 0.3, 9, [reference] * 5, np.ones(5, bool))
        assert np.array_equal(sample_delivered(None, 0.3, 9, [shared] * 5, np.ones(5, bool)),
                              expected)
        assert _same_state(shared.bit_generator.state, reference.bit_generator.state)
        # Threads would race for the shared stream; the kernel never used any.
        assert loss_module._pool is None

    def test_one_running_trial_draws_inline(self, native_kernel):
        sample_delivered(None, 0.3, 9, self._generators(np.random.Philox), np.eye(9, dtype=bool)[0])
        assert loss_module._pool is None

    @pytest.mark.parametrize("case", ["philox", "pcg64", "high counter", "padded rows"])
    def test_the_span_names_the_kernel_that_drew(self, case, native_kernel):
        # Philox rows draw with the kernel in use.  PCG64 streams, a Philox
        # counter past its low word and an output the native kernel cannot
        # write in place (rows padded past their words, so not C-contiguous)
        # draw through NumPy under either, with the same words.
        n, running = 33, RUNNING
        if case in ("philox", "pcg64"):
            bit_generator = np.random.Philox if case == "philox" else np.random.PCG64
            rngs, reference = self._generators(bit_generator), self._generators(bit_generator)
        else:
            # A counter about to carry into its second word, or already there.
            counters = [np.array([2**64 - 3, 0, 0, 0] if k % 2 else [5, 1, 0, 0],
                                 dtype=np.uint64) if case == "high counter" else None
                        for k in range(len(running))]
            rngs, reference = ([np.random.Generator(np.random.Philox(k, counter=counter))
                                for k, counter in enumerate(counters)] for _ in range(2))
        expected = _serial_reference(None, 0.3, n, reference, running)
        padded = np.zeros((len(running), n, word_width(n) + 1), dtype=np.uint64)
        tracer = Tracer(run_id="fallback")
        with activate(tracer):
            drawn = sample_delivered_words(
                None, 0.3, n, rngs, running,
                out=padded[:, :, :-1] if case == "padded rows" else None,
            )
        assert np.array_equal(drawn, _packed(expected))
        assert not padded[:, :, -1].any()
        assert all(_same_state(a.bit_generator.state, b.bit_generator.state)
                   for a, b in zip(rngs, reference))
        (span,) = [e for e in tracer.events() if e["name"] == "engine.draw.loss"]
        assert span["meta"] == {
            "running": 6, "kernel": native_kernel if case == "philox" else "numpy"
        }

    def test_mt19937_is_rejected(self):
        # MT19937 builds random() from two 32-bit outputs, so no raw-output
        # threshold reproduces it.
        rngs = [np.random.Generator(np.random.MT19937(1))]
        with pytest.raises(ConfigurationError, match="Philox and PCG64"):
            sample_delivered(None, 0.1, 4, rngs, np.ones(1, dtype=bool))
        with pytest.raises(ConfigurationError, match="MT19937"):
            sample_delivered_words(None, 0.1, 4, rngs, np.ones(1, dtype=bool))


class TestAdjacencyCounter:
    """The masked-plane tally engine: every strategy must agree, exactly,
    with the dense integer reference ``plane @ A``."""

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 48])
    def test_counts_match_the_dense_reference(self, name, n):
        adjacency = build_topology(name, n)
        counter = AdjacencyCounter(adjacency)
        reference = adjacency.astype(np.int64)
        rng = np.random.default_rng(n)
        plane = rng.integers(0, 2, size=(7, n)).astype(bool)
        counts = counter.receive_counts_words(pack_sender_words(plane, n))
        assert counts.dtype == np.int64
        assert np.array_equal(
            np.broadcast_to(counts, (7, n)), plane.astype(np.int64) @ reference
        )
        senders = rng.integers(0, 2, size=(7, n)).astype(bool)
        assert np.array_equal(
            counter.delivered_edges_words(pack_sender_words(senders, n)),
            senders.astype(np.int64) @ adjacency.sum(axis=1),
        )

    @pytest.mark.parametrize("name,strategy", [
        ("clique", "complete"),
        ("ring", "packed"),
        ("chain", "packed"),
        ("star", "packed"),
        ("grid", "packed"),
        ("tree", "packed"),
        ("erdos-renyi", "packed"),
    ])
    def test_only_the_complete_graph_skips_the_word_tally(self, name, strategy):
        assert AdjacencyCounter(build_topology(name, 48)).strategy == strategy

    def test_complete_graph_returns_a_broadcastable_column(self):
        counter = AdjacencyCounter(np.ones((9, 9), dtype=bool))
        plane = np.eye(9, dtype=bool)[:4]
        counts = counter.receive_counts_words(pack_sender_words(plane, 9))
        assert counts.shape == (4, 1)
        assert (counts == 1).all()

    @pytest.mark.parametrize("n,density", [(10, None), (100, 0.97), (130, 0.9)])
    def test_near_clique_takes_the_word_tally(self, n, density):
        # All-True minus one edge (density None), or a random near-complete
        # mask: only the complete graph has a row-total shortcut; every other
        # dense mask is a word tally.
        rng = np.random.default_rng(3)
        if density is None:
            adjacency = np.ones((n, n), dtype=bool)
            adjacency[0, 1] = adjacency[1, 0] = False
        else:
            upper = np.triu(rng.random((n, n)) < density, 1)
            adjacency = upper | upper.T | np.eye(n, dtype=bool)
        counter = AdjacencyCounter(adjacency)
        assert counter.strategy == "packed"
        reference = adjacency.astype(np.int64)
        plane = rng.integers(0, 2, size=(5, n)).astype(bool)
        assert np.array_equal(
            counter.receive_counts_words(pack_sender_words(plane, n)),
            plane.astype(np.int64) @ reference,
        )
        shares = (rng.integers(0, 2, size=(5, n)) * 2 - 1).astype(np.int8)
        assert np.array_equal(
            counter.signed_counts(shares), shares.astype(np.int64) @ reference
        )

    @pytest.mark.parametrize("name,n,strategy", [
        ("clique", 12, "complete"),
        ("ring", 48, "packed"),
        ("ring", 12, "packed"),
    ])
    def test_signed_share_planes_are_counted_exactly(self, name, n, strategy):
        # Coin shares are ±1 values, not booleans: signed_counts, not the
        # packed sender words, tallies them on every strategy.
        adjacency = build_topology(name, n)
        counter = AdjacencyCounter(adjacency)
        assert counter.strategy == strategy
        rng = np.random.default_rng(7)
        shares = (rng.integers(0, 2, size=(6, n)) * 2 - 1).astype(np.int8)
        assert np.array_equal(
            np.broadcast_to(counter.signed_counts(shares), (6, n)),
            shares.astype(np.int64) @ adjacency.astype(np.int64),
        )


class TestCatalogue:
    def test_table_has_one_row_per_topology_in_registry_order(self):
        rows = topology_catalogue_table()
        assert [row["name"] for row in rows] == list(TOPOLOGIES)

    def test_markdown_block_is_marked(self):
        block = markdown_topology_catalogue()
        assert block.startswith("<!-- topologies:catalogue:begin -->\n")
        assert block.endswith("<!-- topologies:catalogue:end -->")
