"""Tests for the batched adversary plane kernels (`repro.adversary.kernels`).

Four layers: statistical cross-validation of each kernel against the object
simulator at small ``n`` (agreement/validity rates and round counts — the
kernels consume randomness differently from the object nodes' private
streams, so bit-identity is not the contract), registry-consistency checks
that the engine dispatch can never fast-path a `(protocol, adversary)` pair
without a registered adversary kernel, unit and property tests of the shared
plane primitives the kernels are built on, and pinned rows of the kernels
whose coin-share adjustment planes narrow with the committee size.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.kernels import (
    ADVERSARY_PLANE_KERNELS,
    build_adversary_kernel,
)
from repro.adversary.kernels.base import (
    KernelContext,
    share_adjustment_dtype,
    value_assigned,
)
from repro.core.parameters import ProtocolParameters
from repro.core.runner import (
    ADVERSARIES,
    PROTOCOLS,
    AgreementExperiment,
    TrialsResult,
    run_trials,
)
from repro.engine import (
    PROTOCOL_KERNELS,
    run_sweep,
    select_engine,
)
from repro.exceptions import ConfigurationError
from repro.simulator.bitplanes import first_k_true, lower_half_split, row_popcount
from repro.simulator.draws import TrialStreams
from repro.simulator.planes import resolve_backend
from repro.simulator.vectorized import run_vectorized_trials

PLANE_ADVERSARIES = sorted(ADVERSARY_PLANE_KERNELS)


def _sweep(n, t, **kwargs):
    """``run_vectorized_trials``' rows with the statistics ``run_sweep`` reports."""
    return TrialsResult(AgreementExperiment(n=n, t=t), run_vectorized_trials(n, t, **kwargs))


class TestCrossValidation:
    """Each plane kernel against the object simulator at small n."""

    @pytest.mark.parametrize("adversary", PLANE_ADVERSARIES)
    @pytest.mark.parametrize("protocol", ["committee-ba-las-vegas",
                                          "chor-coan-las-vegas"])
    def test_statistically_consistent_with_object_simulator(self, adversary, protocol):
        n, t, trials = 48, 8, 12
        vec = _sweep(n, t, adversary=adversary, inputs="split",
                     trials=trials, seed=5, protocol=protocol)
        obj = run_trials(
            AgreementExperiment(n=n, t=t, protocol=protocol,
                                adversary=adversary, inputs="split"),
            num_trials=trials, base_seed=5,
        )
        assert vec.agreement_rate == obj.agreement_rate == 1.0
        assert vec.validity_rate == obj.validity_rate == 1.0
        assert vec.mean_phases == pytest.approx(obj.mean_phases, rel=0.6, abs=4.0)
        assert vec.mean_corrupted == pytest.approx(obj.mean_corrupted, rel=0.5, abs=3.0)

    @pytest.mark.parametrize("adversary", PLANE_ADVERSARIES)
    def test_consistent_near_the_resilience_boundary(self, adversary):
        # t close to n/3 — the regime E6's oracle rows exercise.
        n, t, trials = 60, 19, 10
        vec = _sweep(n, t, adversary=adversary, inputs="split",
                     trials=trials, seed=11, protocol="committee-ba-las-vegas")
        obj = run_trials(
            AgreementExperiment(n=n, t=t, protocol="committee-ba-las-vegas",
                                adversary=adversary, inputs="split"),
            num_trials=trials, base_seed=11,
        )
        assert vec.agreement_rate == obj.agreement_rate == 1.0
        assert vec.validity_rate == obj.validity_rate == 1.0
        assert vec.mean_phases == pytest.approx(obj.mean_phases, rel=0.6, abs=4.0)

    @pytest.mark.parametrize("adversary", PLANE_ADVERSARIES)
    @pytest.mark.parametrize("inputs", ["unanimous-0", "unanimous-1"])
    def test_unanimous_inputs_decide_immediately_and_validly(self, adversary, inputs):
        aggregate = _sweep(48, 8, adversary=adversary, inputs=inputs, trials=8, seed=2)
        assert aggregate.agreement_rate == 1.0
        assert aggregate.validity_rate == 1.0
        assert aggregate.mean_phases <= 3.0
        expected = 0 if inputs == "unanimous-0" else 1
        assert all(result.decision == expected for result in aggregate.trials)

    def test_static_corruption_count_and_bounded_variant(self):
        rows = run_vectorized_trials(48, 8, adversary="static", inputs="split",
                                     trials=6, seed=4, protocol="committee-ba")
        assert all(result.corrupted == 8 for result in rows)
        assert all(result.phases <= 8 * 10 for result in rows)

    def test_equivocate_recruits_at_most_one_mouthpiece_per_phase(self):
        rows = run_vectorized_trials(48, 8, adversary="equivocate",
                                     inputs="split", trials=8, seed=6)
        for result in rows:
            assert result.corrupted <= min(result.phases, 8)

    def test_committee_targeting_delays_less_than_the_rushing_straddle(self):
        # Non-rushing: the straddle lands only when |S| < f, so the same
        # budget buys fewer spoiled phases than the rushing coin attack.
        targeting = _sweep(96, 18, adversary="committee-targeting",
                           inputs="split", trials=10, seed=7)
        rushing = _sweep(96, 18, adversary="coin-attack", inputs="split", trials=10, seed=7)
        assert targeting.mean_phases <= rushing.mean_phases + 1.0


class TestRegistryConsistency:
    """Dispatch can never fast-path an unregistered (protocol, adversary) pair."""

    def test_every_fast_path_pair_has_a_registered_behaviour(self):
        for protocol in PROTOCOLS:
            for adversary in ADVERSARIES:
                chosen = select_engine(protocol, adversary, engine="auto")
                fast = adversary in PROTOCOL_KERNELS[protocol].adversaries
                assert fast == (chosen == "vectorized"), (protocol, adversary)

    def test_committee_family_now_covers_every_registered_adversary(self):
        for protocol in ("committee-ba", "committee-ba-las-vegas",
                         "chor-coan", "chor-coan-las-vegas"):
            for adversary in ADVERSARIES:
                assert select_engine(protocol, adversary) == "vectorized"

    def test_one_adversary_vocabulary_from_the_cli_to_the_kernels(self):
        # The plane kernels are keyed by the runner's strategy names, and
        # every fast-path adversary of a protocol kernel is one of them.
        assert set(ADVERSARY_PLANE_KERNELS) == set(ADVERSARIES)
        for spec in PROTOCOL_KERNELS.values():
            assert spec.inapplicable <= spec.adversaries <= set(ADVERSARY_PLANE_KERNELS)

    def test_unknown_behaviour_rejected_by_the_kernel_factory(self):
        params = ProtocolParameters.derive(48, 8)
        with pytest.raises(ConfigurationError):
            build_adversary_kernel("jam-everything", n=48, t=8, params=params)

    @pytest.mark.parametrize("adversary", PLANE_ADVERSARIES)
    def test_run_sweep_reports_the_vectorized_engine(self, adversary):
        sweep = run_sweep(64, 12, protocol="committee-ba-las-vegas",
                          adversary=adversary, trials=4, base_seed=3)
        assert sweep.engine == "vectorized"
        assert sweep.agreement_rate == 1.0


#: Plane widths at, just past and just short of a uint64 word boundary.
WORD_EDGE_WIDTHS = [w for w in range(1, 301) if w % 64 in (0, 1, 63)]


@st.composite
def _recipient_planes(draw):
    """A ``(B, n)`` boolean plane mixing empty, full, single-True and random
    rows, plus a per-row ``k`` in ``[0, n + 1]``."""
    n = draw(st.one_of(st.sampled_from(WORD_EDGE_WIDTHS), st.integers(1, 300)))
    kinds = draw(st.lists(
        st.sampled_from(["empty", "full", "single", "random"]), min_size=1, max_size=6,
    ))
    rows = []
    for kind in kinds:
        row = np.full(n, kind == "full")
        if kind == "single":
            row[draw(st.integers(0, n - 1))] = True
        elif kind == "random":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            row = rng.random(n) < draw(st.floats(0.0, 1.0))
        rows.append(row)
    k = np.array([draw(st.integers(0, n + 1)) for _ in kinds])
    return np.array(rows), k


class TestPlanePrimitives:
    """Unit tests for the shared bit-plane helpers in simulator.bitplanes."""

    def test_first_k_true_selects_lowest_index_cells(self):
        mask = np.array([[0, 1, 1, 0, 1, 1],
                         [1, 1, 0, 0, 0, 1],
                         [0, 0, 0, 0, 0, 0]], dtype=bool)
        picked = first_k_true(mask, np.array([2, 5, 3]))
        expected = np.array([[0, 1, 1, 0, 0, 0],
                             [1, 1, 0, 0, 0, 1],
                             [0, 0, 0, 0, 0, 0]], dtype=bool)
        assert np.array_equal(picked, expected)

    def test_first_k_true_with_zero_k_is_empty(self):
        mask = np.ones((2, 9), dtype=bool)
        assert not first_k_true(mask, np.zeros(2, dtype=np.int64)).any()

    @settings(max_examples=150, deadline=None)
    @given(planes=_recipient_planes())
    def test_lower_half_split_matches_naive_ranking(self, planes):
        recipients, _ = planes
        lower, half = lower_half_split(recipients)
        assert lower.dtype == bool and lower.shape == recipients.shape
        assert half.dtype == np.int32
        for row, cells in enumerate(recipients):
            ids = np.flatnonzero(cells)
            assert np.array_equal(np.flatnonzero(lower[row]), ids[: len(ids) // 2])
            assert half[row] == len(ids) // 2

    @settings(max_examples=150, deadline=None)
    @given(planes=_recipient_planes())
    def test_first_k_true_matches_naive_ranking(self, planes):
        mask, k = planes
        picked = first_k_true(mask, k)
        assert picked.dtype == bool and picked.shape == mask.shape
        for row, cells in enumerate(mask):
            ids = np.flatnonzero(cells)
            assert np.array_equal(np.flatnonzero(picked[row]), ids[: k[row]])

    def test_row_popcount_matches_count_nonzero(self):
        rng = np.random.default_rng(1)
        mask = rng.random((8, 100)) < 0.3
        assert np.array_equal(row_popcount(mask), np.count_nonzero(mask, axis=1))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_value_assigned_is_the_four_threshold_or(self, data):
        # t >= n/3 included: there n - t < t + 1, so the quorum is the
        # lower of the two thresholds.
        n = data.draw(st.integers(1, 300))
        t = data.draw(st.integers(0, n))
        tallies = st.lists(st.integers(0, n + 1), min_size=6, max_size=6)
        d1 = np.array(data.draw(tallies), dtype=np.int64)
        d0 = np.array(data.draw(tallies), dtype=np.int64)
        expected = (d1 >= n - t) | (d0 >= n - t) | (d1 >= t + 1) | (d0 >= t + 1)
        assert np.array_equal(value_assigned(d1, d0, n, t), expected)
        planes = value_assigned(d1.reshape(2, 3), d0.reshape(2, 3), n, t)
        assert np.array_equal(planes, expected.reshape(2, 3))


class TestUpFrontCorruption:
    """``AdversaryKernel.setup``: the closed-form kernels' invariant."""

    @pytest.mark.parametrize("backend", ["numpy", "packed"])
    @pytest.mark.parametrize(("n", "t"), [(13, 0), (13, 3), (64, 21), (130, 43)])
    @pytest.mark.parametrize("adversary", PLANE_ADVERSARIES)
    def test_setup_corrupts_exactly_the_initial_columns(self, adversary, n, t, backend):
        # EIG and sampling-majority read initial_corrupted_columns instead of
        # running setup, so both must name the same nodes.
        batch = 3
        ops = resolve_backend(backend)
        active = ops.from_bools(np.ones((batch, n), dtype=bool))
        corrupted = ops.from_bools(np.zeros((batch, n), dtype=bool))
        can_update = ops.from_bools(np.ones((batch, n), dtype=bool))
        budget = np.full(batch, t, dtype=np.int64)
        ctx = KernelContext(
            0, 0, active, corrupted, can_update, budget,
            np.zeros(batch, dtype=np.int64), np.ones(batch, dtype=bool),
            TrialStreams(1, 0, batch),
        )
        kernel = build_adversary_kernel(
            adversary, n=n, t=t, params=ProtocolParameters.derive(n, t)
        )
        kernel.setup(ctx)
        columns = kernel.initial_corrupted_columns(n, t)
        count = np.count_nonzero(columns)
        assert np.array_equal(corrupted.bools(), np.tile(columns, (batch, 1)))
        assert np.array_equal(active.bools(), np.tile(~columns, (batch, 1)))
        # The word form agrees once the hook's bool edits are repacked.
        assert corrupted.popcount().tolist() == [count] * batch
        assert active.popcount().tolist() == [n - count] * batch
        assert budget.tolist() == [t - count] * batch


#: committee-ba's rows under the four kernels that return a coin-share
#: adjustment plane, pinned before those planes narrowed to
#: ``share_adjustment_dtype``: a committee of 6 (n=512, t=64; int8 planes) and
#: one of 200 (n=600, t=2; int16), split and random inputs, 16 trials from base
#: seed 41 at trial offset 5.  SHA-256 of the JSON list of every
#: ``TrialSummary`` field, identical on both plane backends.
PINNED_ADJUSTMENT_DIGESTS = {
    (512, 64): {
        "coin-attack": "70c655dd2a6e55dd0e7e47a87ab96df51c2b2754e9396e08a2e0fd4daa60bd98",
        "committee-targeting": "8d5c45de4201e6db368d9631f353347ed79d9a05801731fbac80998db2e918da",
        "crash": "3eb18b928455d276e7a9917db617086b9fab8aa7f44489301235fc6e6381a927",
        "random-noise": "44e1927a57c4892161dc23f3f93d353db41410cf91450cb32c84029200f9f039",
    },
    (600, 2): {
        "coin-attack": "3afb7b5b55326fa381356c639cda67f0e01316c9bfaad5c6b61e0e1e7889eea2",
        "committee-targeting": "b2598b30058a48e6bf3964fac4275279f524e543234bef6ff88bf78e3b64d87c",
        "crash": "ffc2302711d9666d38dab3ac2a4a9bb80d401cdad1688fd64eeeae4a33fbd22f",
        "random-noise": "77a0a990e71b4bdef58ae401916f2f1c972ea4371d4ca759fbc0bcbc31285dd5",
    },
}

#: The lossy coin-attack point (n=256, t=32, loss 0.05, 4 trials; otherwise
#: as above): its coin adds the adjustment plane to per-recipient share sums.
PINNED_LOSSY_ADJUSTMENT_DIGEST = "2d6c6c27bb736673cddebc153605e09f694f952f7aa767060fa7a24384d86288"

#: Committee size and adjustment dtype of each pinned size.
ADJUSTMENT_GEOMETRY = {(512, 64): (6, np.int8), (600, 2): (200, np.int16)}


def _adjustment_rows_digest(n, t, adversary, backend, loss=0.0, trials=16):
    rows = []
    for inputs in ("split", "random"):
        result = run_sweep(
            n, t, protocol="committee-ba", adversary=adversary, inputs=inputs,
            trials=trials, base_seed=41, trial_offset=5, engine="vectorized",
            backend=backend, loss=loss, allow_timeout=True,
        )
        assert result.engine == "vectorized"
        rows.extend(tuple(row) for row in result.trials)
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


class TestShareAdjustmentPlanes:
    @pytest.mark.parametrize(("size", "dtype"), [(126, np.int8), (127, np.int8), (128, np.int16)])
    def test_dtype_widens_past_a_committee_of_127(self, size, dtype):
        assert share_adjustment_dtype(size) == dtype

    @pytest.mark.parametrize("backend", ["numpy", "packed"])
    @pytest.mark.parametrize(("n", "t"), sorted(PINNED_ADJUSTMENT_DIGESTS))
    @pytest.mark.parametrize(
        "adversary", ["coin-attack", "committee-targeting", "crash", "random-noise"]
    )
    def test_rows_match_the_pins_across_the_dtype_boundary(
        self, adversary, n, t, backend, monkeypatch
    ):
        committee_size, dtype = ADJUSTMENT_GEOMETRY[(n, t)]
        assert ProtocolParameters.derive(n, t).committee_size == committee_size
        kernel_class = ADVERSARY_PLANE_KERNELS[adversary]
        seen = set()

        def round2(self, ctx, *args):
            effect = original(self, ctx, *args)
            if np.ndim(effect.shares):
                seen.add(effect.shares.dtype)
            return effect

        original = kernel_class.round2
        monkeypatch.setattr(kernel_class, "round2", round2)
        digest = _adjustment_rows_digest(n, t, adversary, backend)
        assert digest == PINNED_ADJUSTMENT_DIGESTS[(n, t)][adversary]
        assert seen == {np.dtype(dtype)}

    @pytest.mark.parametrize("backend", ["numpy", "packed"])
    def test_lossy_coin_attack_matches_its_pin(self, backend):
        digest = _adjustment_rows_digest(256, 32, "coin-attack", backend, loss=0.05, trials=4)
        assert digest == PINNED_LOSSY_ADJUSTMENT_DIGEST


#: Every adversary kernel's rows through the hook surface, pinned before
#: that surface narrowed to three planes: committee-ba and
#: chor-coan-las-vegas on the clique and on a ring at loss 0.05, and phase
#: king on the clique, each with split and random inputs (n=16, t=3, 4
#: trials from base seed 31).  One SHA-256 per pair over the JSON list of
#: every ``TrialSummary`` field, identical on both plane backends and both
#: draw kernels.
SURFACE_N, SURFACE_T = 16, 3
SURFACE_NETWORKS = {
    "committee-ba": (("clique", 0.0), ("ring", 0.05)),
    "chor-coan-las-vegas": (("clique", 0.0), ("ring", 0.05)),
    "phase-king": (("clique", 0.0),),
}
PINNED_SURFACE_DIGESTS = {
    "committee-ba": {
        "coin-attack": "67311cce41863638a60f29087ab096023eef25c5b5eb290baa830952b88de535",
        "committee-targeting": "c9d816f0f106be95792e0c4a182d2b02ab7fbaf3cde03fe18e62cd5d127144ad",
        "crash": "4b1aa08a107cc78cbda7212ffb4d4e5cefefa8b20e2a5dbde3d81f02dc5efb8a",
        "equivocate": "380585ff3f0f0b0f53f327614d8486ee58802e50fd6fb9df0379851124bbac78",
        "null": "44eea97040086bf106e344113b05423b4d23ea1ba3f3973729979dfc4038fdfd",
        "random-noise": "12e19f43527a32079040ed4b328533f76b5c1c30dcc57eba657b13615cde7ade",
        "silent": "5969fac3c00a0e82a3ebd15fec26f1dc91f8db6f6d533e6fae29340492e312f4",
        "static": "51359513adbf48c83c9afb2346678a0450f57f648e8fad88efe52b3d0f79e8a2",
    },
    "chor-coan-las-vegas": {
        "coin-attack": "db6321e6bc4b3c08588b192a1c1a4914c46534d24c8e5006249c4419d0cb2418",
        "committee-targeting": "9337a0238ce8f98f1b8c9bab3b7069c8fe3bb0370c2ce2ad5953690c1ecd7934",
        "crash": "66f839d9949e7294e07fd4c8e13a7d574fc7ab0ff3c2aeee91d4c9d760455b30",
        "equivocate": "741bc9db9b9f42555eccb9ed0cefa88b9f57fd0ecd7b79a12ab1fc2822899fea",
        "null": "aa8b8696cebc917bd77cb4c021c9876c3c46de1aa0de22389050cd00ba9ecd9e",
        "random-noise": "0c4d00e72793d61c1c1f77c7c37856264e2e2517d40eb715d8a82d99d731ad07",
        "silent": "f6f68faa09d126809b8effb00807b30c31cf0f80236f5045274a1382af8a4171",
        "static": "a27b74dc2c66fa3c3651821e50ce5959a267dcf801c858549bc886bc7e841ac2",
    },
    "phase-king": {
        "coin-attack": "d8f2ca202f7f2be0aa2c393b89cfcda71f9d78626305485caed2c2098622a094",
        "committee-targeting": "7a69fde113865d44b48431f3d056ce67561ecfaf9e66cba5540e70a24d3c84bc",
        "crash": "d8f2ca202f7f2be0aa2c393b89cfcda71f9d78626305485caed2c2098622a094",
        "equivocate": "ed41a308f0f2069b6fbfa3e6d10f675193f9a008b2fa232eb0058e19b5b26518",
        "null": "d8f2ca202f7f2be0aa2c393b89cfcda71f9d78626305485caed2c2098622a094",
        "random-noise": "3dba71f258c278ac1766e9bebf1db4610ff48a27df917cf70f0e58c891102259",
        "silent": "027d101b774a4bcebc41724b1b27426ea5aa08d8bb45e1a85581849ce6397140",
        "static": "53e09eb85bca6e16a2428e819f29232670c7b25377bc88c07cbfb1191a7a196c",
    },
}


def _surface_digest(protocol, adversary, backend=None):
    rows = []
    for topology, loss in SURFACE_NETWORKS[protocol]:
        for inputs in ("split", "random"):
            result = run_sweep(
                SURFACE_N, SURFACE_T, protocol=protocol, adversary=adversary,
                inputs=inputs, trials=4, base_seed=31, engine="vectorized",
                topology=topology, loss=loss, backend=backend, allow_timeout=True,
            )
            assert result.engine == "vectorized"
            rows.extend(tuple(row) for row in result.trials)
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


class TestPinnedKernelSurface:
    """Every kernel's set-up, counts and splits, pinned on both backends."""

    @pytest.mark.parametrize("backend", ["numpy", "packed"])
    @pytest.mark.parametrize("protocol", ["committee-ba", "chor-coan-las-vegas"])
    def test_phase_engine_rows_match_the_pins(self, protocol, backend, native_kernel):
        got = {
            adversary: _surface_digest(protocol, adversary, backend)
            for adversary in PLANE_ADVERSARIES
        }
        assert got == PINNED_SURFACE_DIGESTS[protocol]

    def test_phase_king_rows_match_the_pins(self, native_kernel):
        got = {
            adversary: _surface_digest("phase-king", adversary)
            for adversary in PLANE_ADVERSARIES
        }
        assert got == PINNED_SURFACE_DIGESTS["phase-king"]
