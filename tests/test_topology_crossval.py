"""Cross-validation of the masked communication planes against the object
simulator, and the bit-identity guards that pin the masked path to the
historical clique semantics.

The contract matches `docs/topologies.md`:

* **exact** — phase-king and Rabin under the randomness-free behaviours
  (`null`, `silent`) at `loss=0` are bit-identical to the object simulator
  on every topology (the only randomness is Rabin's public dealer stream,
  which the kernel replays);
* **statistical** — the committee family consumes randomness in a
  different order than the object nodes' private streams, so off-clique
  runs are cross-checked on rates and phase structure;
* **bit-identity guards** — an all-True adjacency (the masked path on a
  clique-equal graph) must reproduce the unmasked default bit for bit, and
  an explicit `topology="clique", loss=0` through the API must be
  indistinguishable from not passing the axis at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.runner import AgreementExperiment
from repro.engine import run_sweep
from repro.simulator.vectorized import run_vectorized_trials

TOPOLOGIES_UNDER_TEST = ("chain", "ring", "star")


def _sweep(protocol, adversary, n, t, *, engine, topology="clique", loss=0.0,
           trials=4, seed=11, allow_timeout=False):
    experiment = AgreementExperiment(
        n=n, t=t, protocol=protocol, adversary=adversary, inputs="split",
        topology=topology, loss=loss, allow_timeout=allow_timeout,
    )
    return run_sweep(experiment=experiment, trials=trials, base_seed=seed,
                     engine=engine)


def _assert_identical(vec_trials, obj_trials):
    assert len(vec_trials) == len(obj_trials)
    for vec, obj in zip(vec_trials, obj_trials):
        assert vec.rounds == obj.rounds
        assert vec.phases == obj.phases
        assert vec.agreement == obj.agreement
        assert vec.validity == obj.validity
        assert vec.decision == obj.decision
        assert vec.messages == obj.messages
        assert vec.bits == obj.bits
        assert vec.timed_out == obj.timed_out


class TestExactOffCliqueKernels:
    """Masked phase-king / Rabin vs the object simulator, field by field."""

    @pytest.mark.parametrize("topology", TOPOLOGIES_UNDER_TEST)
    @pytest.mark.parametrize("adversary", ["null", "silent"])
    @pytest.mark.parametrize("n,t", [(13, 3), (21, 5)])
    def test_phase_king_bit_identical(self, topology, adversary, n, t):
        vec = _sweep("phase-king", adversary, n, t,
                     engine="vectorized", topology=topology)
        obj = _sweep("phase-king", adversary, n, t,
                     engine="object", topology=topology)
        _assert_identical(vec.trials, obj.trials)

    @pytest.mark.parametrize("topology", TOPOLOGIES_UNDER_TEST)
    @pytest.mark.parametrize("adversary", ["null", "silent"])
    @pytest.mark.parametrize("n,t", [(12, 2), (25, 6)])
    def test_rabin_bit_identical(self, topology, adversary, n, t):
        vec = _sweep("rabin", adversary, n, t,
                     engine="vectorized", topology=topology,
                     allow_timeout=True)
        obj = _sweep("rabin", adversary, n, t,
                     engine="object", topology=topology,
                     allow_timeout=True)
        _assert_identical(vec.trials, obj.trials)

    def test_auto_dispatches_off_clique_to_the_masked_kernel(self):
        result = _sweep("phase-king", "null", 13, 3,
                        engine="auto", topology="ring")
        assert result.engine == "vectorized"


class TestStatisticalOffCliqueCommitteeFamily:
    """The committee family off-clique: structure-level agreement between
    engines (fixed seeds, so these assertions are deterministic)."""

    @pytest.mark.parametrize("protocol", ["committee-ba", "chor-coan"])
    def test_ring_livelock_matches_between_engines(self, protocol):
        trials = 30
        vec = _sweep(protocol, "null", 16, 1, engine="vectorized",
                     topology="ring", trials=trials, allow_timeout=True)
        obj = _sweep(protocol, "null", 16, 1, engine="object",
                     topology="ring", trials=trials, allow_timeout=True)
        # Both engines must see the same phenomenon: the degree-2 ring makes
        # the n-t quorum unreachable, so agreement collapses to
        # coin-coincidence level (~0.25 measured on both engines).
        clique = _sweep(protocol, "null", 16, 1, engine="vectorized",
                        trials=trials)
        assert clique.agreement_rate == 1.0
        for result in (vec, obj):
            assert result.validity_rate == 1.0
            assert result.agreement_rate < 0.6
        assert abs(vec.agreement_rate - obj.agreement_rate) <= 0.35

    def test_lossy_clique_degrades_on_both_engines(self):
        # At n=24, t=2 the decide quorum n-t=22 sits right at the expected
        # lossy in-tally (~22.9 at loss=0.05), so some trials decide early
        # and others fall into the coin case — graceful degradation on both
        # engines (0.70 / 0.60 measured), unlike the sparse-graph collapse.
        trials = 20
        vec = _sweep("committee-ba", "null", 24, 2, engine="vectorized",
                     loss=0.05, trials=trials, allow_timeout=True)
        obj = _sweep("committee-ba", "null", 24, 2, engine="object",
                     loss=0.05, trials=trials, allow_timeout=True)
        lossless = _sweep("committee-ba", "null", 24, 2,
                          engine="vectorized", trials=trials)
        assert lossless.agreement_rate == 1.0
        for result in (vec, obj):
            assert 0.0 < result.agreement_rate < 1.0
        assert abs(vec.agreement_rate - obj.agreement_rate) <= 0.4


class TestBitIdentityGuards:
    def test_all_true_adjacency_is_bit_identical_to_unmasked(self):
        # The masked path on a clique-equal graph must reproduce the
        # historical global-tally path exactly — this pins the masked
        # arithmetic (matmul tallies, per-recipient thresholds, CONGEST
        # edge counting) to the unmasked semantics.
        base = run_vectorized_trials(
            24, 2, protocol="committee-ba-las-vegas", adversary="coin-attack",
            trials=12, seed=5,
        )
        masked = run_vectorized_trials(
            24, 2, protocol="committee-ba-las-vegas", adversary="coin-attack",
            trials=12, seed=5, adjacency=np.ones((24, 24), dtype=bool),
        )
        _assert_identical(masked, base)

    def test_explicit_clique_loss_zero_is_bit_identical_through_run_sweep(self):
        default = run_sweep(24, 2, protocol="committee-ba", adversary="static",
                            inputs="split", trials=6, base_seed=3)
        explicit = run_sweep(24, 2, protocol="committee-ba", adversary="static",
                            inputs="split", trials=6, base_seed=3,
                            topology="clique", loss=0.0)
        assert explicit.engine == default.engine == "vectorized"
        _assert_identical(explicit.trials, default.trials)

    def test_masked_lossy_run_is_deterministic_per_seed(self):
        kwargs = dict(protocol="committee-ba", adversary="null",
                      inputs="split", trials=8, base_seed=9,
                      topology="ring", loss=0.02, allow_timeout=True)
        first = run_sweep(16, 1, **kwargs)
        second = run_sweep(16, 1, **kwargs)
        _assert_identical(first.trials, second.trials)
