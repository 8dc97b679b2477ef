"""Tests for the unified sweep dispatch (`repro.engine`)."""

from __future__ import annotations

from functools import partial

import pytest

from repro.adversary.kernels import ADVERSARY_PROFILES
from repro.core.parameters import ProtocolParameters
from repro.core.runner import (
    PROTOCOLS,
    AgreementExperiment,
    TrialsResult,
    TrialSummary,
    run_trials,
)
from repro.engine import (
    ENGINES,
    PROTOCOL_KERNELS,
    dispatch_table,
    kernel_support_table,
    run_sweep,
    select_engine,
    vectorizable,
)
from repro.exceptions import ConfigurationError
from repro.simulator.vectorized import run_vectorized_trials
from repro.topology import build_topology

#: One case per registered kernel, at a small n it accepts, plus the
#: committee engine's adversary and masked/lossy cases: (protocol,
#: adversary, n, t, inputs, seed, trials, split point, kernel kwargs).
KERNEL_CASES = [
    pytest.param("committee-ba", "silent", 20, 2, "split", 4, 10, 5,
                 {"adjacency": build_topology("grid", 20), "loss": 0.05},
                 id="committee-ba-silent-grid-lossy"),
    pytest.param("committee-ba-las-vegas", "coin-attack", 48, 10, "split", 13, 8, 5, {},
                 id="committee-ba-las-vegas-coin-attack"),
    pytest.param("committee-ba-las-vegas", "equivocate", 48, 8, "split", 9, 6, 4, {},
                 id="committee-ba-las-vegas-equivocate"),
    pytest.param("committee-ba-las-vegas", "random-noise", 48, 8, "split", 9, 6, 4, {},
                 id="committee-ba-las-vegas-random-noise"),
    pytest.param("chor-coan", "committee-targeting", 40, 5, "random", 3, 6, 2, {},
                 id="chor-coan-committee-targeting"),
    pytest.param("chor-coan-las-vegas", "crash", 40, 5, "split", 5, 6, 3, {},
                 id="chor-coan-las-vegas-crash"),
    pytest.param("rabin", "coin-attack", 19, 3, "random", 11, 6, 2, {},
                 id="rabin-coin-attack"),
    pytest.param("ben-or", "null", 16, 2, "random", 1, 6, 3,
                 {"max_rounds": 40, "loss": 0.05}, id="ben-or-null-lossy"),
    pytest.param("phase-king", "committee-targeting", 13, 3, "random", 2, 6, 4,
                 {"loss": 0.05}, id="phase-king-committee-targeting-lossy"),
    pytest.param("eig", "static", 10, 2, "random", 0, 5, 2, {}, id="eig-static"),
    pytest.param("sampling-majority", "silent", 32, 1, "random", 5, 6, 3, {},
                 id="sampling-majority-silent"),
]


class TestSelectEngine:
    def test_auto_takes_fast_path_for_committee_family(self):
        # Since the adversary plane kernels landed, the committee family
        # vectorises every registered adversary strategy.
        for protocol in ("committee-ba", "committee-ba-las-vegas",
                         "chor-coan", "chor-coan-las-vegas"):
            for adversary in ("null", "coin-attack", "silent", "crash",
                              "random-noise", "static", "equivocate",
                              "committee-targeting"):
                assert select_engine(protocol, adversary) == "vectorized"

    def test_auto_takes_fast_path_for_baseline_kernels(self):
        assert select_engine("rabin", "coin-attack") == "vectorized"
        assert select_engine("rabin", "silent") == "vectorized"
        assert select_engine("ben-or", "silent") == "vectorized"
        assert select_engine("phase-king", "static") == "vectorized"
        assert select_engine("eig", "static") == "vectorized"
        assert select_engine("sampling-majority", "silent") == "vectorized"

    def test_auto_falls_back_to_object(self):
        # The one remaining unmodelled pair: the equivocator's staggered
        # corruption breaks EIG's fixed-honest-set tree recurrence.
        assert select_engine("eig", "equivocate") == "object"

    def test_inapplicable_pairs_dispatch_to_the_exact_null_behaviour(self):
        # Strategies with no lever on a protocol (no shares to straddle or
        # crash, no distinguished node to target) provably no-op in the
        # object simulator; the registry keeps them on the fast path, where
        # the kernel runs the failure-free null adversary for them.
        sizes = {"phase-king": (13, 3), "eig": (10, 2), "sampling-majority": (13, 3)}
        for protocol, adversary in (
            ("phase-king", "coin-attack"),
            ("phase-king", "crash"),
            ("eig", "coin-attack"),
            ("eig", "crash"),
            ("eig", "committee-targeting"),
            ("sampling-majority", "coin-attack"),
            ("sampling-majority", "crash"),
            ("sampling-majority", "committee-targeting"),
        ):
            assert select_engine(protocol, adversary) == "vectorized", (protocol, adversary)
            spec = PROTOCOL_KERNELS[protocol]
            assert adversary in spec.inapplicable, (protocol, adversary)
            n, t = sizes[protocol]
            null = run_sweep(n, t, protocol=protocol, adversary="null", trials=3)
            sweep = run_sweep(n, t, protocol=protocol, adversary=adversary, trials=3)
            assert sweep.trials == null.trials, (protocol, adversary)

    def test_one_registry_covers_every_protocol(self):
        # Every protocol has a kernel, so the tables never need a
        # missing-kernel row; an unknown name is simply not vectorizable.
        assert set(PROTOCOL_KERNELS) == set(PROTOCOLS)
        assert not vectorizable("warp", "null")

    def test_every_kernel_hook_can_change_a_derivation(self):
        # A hook no profile requires or levers on cannot change which
        # adversaries a kernel serves, so no kernel declares one.
        named = set().union(
            *(profile.required | profile.lever for profile in ADVERSARY_PROFILES)
        )
        for protocol, spec in PROTOCOL_KERNELS.items():
            assert spec.hooks <= named, (protocol, spec.hooks - named)

    def test_object_only_options_disable_the_fast_path(self):
        assert not vectorizable("committee-ba", "coin-attack", max_rounds=100)
        assert not vectorizable("rabin", "silent", max_rounds=100)
        # Ben-Or's kernel honours an explicit round cap (its runs are
        # censored), so a custom max_rounds stays on the fast path.
        assert vectorizable("ben-or", "silent", max_rounds=2000)
        # It runs whole two-round phases, so an odd cap (or one below a
        # phase) would be overshot: the object path honours it instead.
        assert not vectorizable("ben-or", "silent", max_rounds=2001)
        assert not vectorizable("ben-or", "null", max_rounds=1)
        assert not vectorizable("ben-or", "null", max_rounds=0)
        assert select_engine("ben-or", "null", max_rounds=3) == "object"
        with pytest.raises(ConfigurationError):
            select_engine("ben-or", "null", engine="vectorized", max_rounds=3)

    def test_forcing_vectorized_on_unsupported_config_raises(self):
        with pytest.raises(ConfigurationError):
            select_engine("eig", "equivocate", engine="vectorized")

    @pytest.mark.parametrize("name", ["warp", "vectorized-mp", "object-mp"])
    def test_unknown_engine_rejected(self, name):
        assert ENGINES == ("auto", "vectorized", "object")
        with pytest.raises(ConfigurationError):
            select_engine("committee-ba", "null", engine=name)

    def test_auto_escalates_to_processes_only_for_large_sweeps(self, monkeypatch):
        import repro.engine as engine_module

        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 8)
        assert engine_module._pool_size("object", 5, 32, None) == 1
        assert engine_module._pool_size("object", 200, 512, None) == 8
        assert engine_module._pool_size("object", 3, 2048, None) == 3
        # Vectorized sweeps stay in-process unless workers asks otherwise.
        assert engine_module._pool_size("vectorized", 200, 512, None) == 1

    @pytest.mark.parametrize("family", ["vectorized", "object"])
    def test_workers_alone_decides_the_pool_size(self, family):
        from repro.engine import _pool_size

        assert _pool_size(family, 5, 32, 4) == 4
        assert _pool_size(family, 3, 32, 4) == 3  # never more than trials
        assert _pool_size(family, 200, 512, 1) == 1


class TestRunSweep:
    def test_vectorized_sweep_matches_run_vectorized_trials(self):
        sweep = run_sweep(64, 12, protocol="committee-ba-las-vegas",
                          adversary="coin-attack", inputs="split",
                          trials=6, base_seed=3)
        assert isinstance(sweep, TrialsResult)
        assert sweep.engine == "vectorized"
        direct = run_vectorized_trials(64, 12, protocol="committee-ba-las-vegas",
                                       adversary="coin-attack", inputs="split",
                                       trials=6, seed=3)
        assert sweep.trials == direct

    def test_kernel_aliases_are_not_adversary_names(self):
        # One vocabulary from the CLI down to the kernels: the plane
        # kernels' old names for null and coin-attack are unknown everywhere,
        # so a forced engine reports the name, not a missing kernel.
        for engine in ("auto", "vectorized"):
            with pytest.raises(ConfigurationError, match="unknown adversary 'straddle'"):
                run_sweep(13, 3, adversary="straddle", trials=1, engine=engine)
        with pytest.raises(ConfigurationError, match="'none'"):
            run_vectorized_trials(13, 3, adversary="none", trials=1)

    @pytest.mark.parametrize("max_rounds", [1, 3])
    def test_odd_round_caps_are_never_overshot(self, max_rounds):
        sweep = run_sweep(13, 3, protocol="ben-or", adversary="null", trials=4,
                          allow_timeout=True, max_rounds=max_rounds)
        assert sweep.engine == "object"
        assert all(trial.rounds <= max_rounds for trial in sweep.trials)

    def test_object_sweep_matches_seeded_trials(self):
        experiment = AgreementExperiment(n=19, t=3, protocol="committee-ba",
                                         adversary="coin-attack", inputs="split")
        sweep = run_sweep(experiment=experiment, trials=4, base_seed=11,
                          engine="object")
        assert sweep.engine == "object"
        assert [trial.seed for trial in sweep.trials] == [11, 12, 13, 14]
        again = run_sweep(experiment=experiment, trials=4, base_seed=11,
                          engine="object")
        assert sweep.trials == again.trials

    def test_multiprocessing_executor_is_bit_identical_to_serial(self, traced_sweep):
        experiment = AgreementExperiment(n=19, t=3, protocol="committee-ba",
                                         adversary="coin-attack", inputs="split")
        serial, serial_workers = traced_sweep(experiment=experiment, trials=5,
                                              base_seed=5, engine="object", workers=1)
        parallel, workers = traced_sweep(experiment=experiment, trials=5,
                                         base_seed=5, engine="object", workers=2)
        assert (serial_workers, workers) == (1, 2)
        assert parallel.engine == serial.engine == "object"
        assert serial.trials == parallel.trials

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            run_sweep(19, 3, protocol="committee-ba", adversary="null",
                      trials=2, workers=workers)

    def test_run_trials_delegates_to_the_object_engine(self):
        experiment = AgreementExperiment(n=19, t=3, protocol="committee-ba",
                                         adversary="silent", inputs="split")
        result = run_trials(experiment, num_trials=3, base_seed=2)
        assert isinstance(result, TrialsResult)
        assert result.engine == "object"
        assert result.num_trials == 3

    def test_run_sweep_takes_no_committee_geometry_override(self):
        # A sweep's rows are determined by its AgreementExperiment; geometry
        # decoupled from t is run_vectorized_trials(params=)'s job.
        with pytest.raises(TypeError):
            run_sweep(64, 4, protocol="committee-ba-las-vegas",
                      adversary="coin-attack", trials=2,
                      params=ProtocolParameters.derive(64, 16))

    def test_argument_validation(self):
        experiment = AgreementExperiment(n=19, t=3)
        with pytest.raises(ConfigurationError):
            run_sweep(trials=3)
        with pytest.raises(ConfigurationError):
            run_sweep(19, 3, experiment=experiment, trials=3)
        with pytest.raises(ConfigurationError):
            run_sweep(19, 3, trials=0)

    @pytest.mark.parametrize("engine", ["auto", "object"])
    @pytest.mark.parametrize("loss", [-0.1, float("nan")])
    def test_invalid_loss_is_rejected_before_dispatch(self, loss, engine):
        with pytest.raises(ConfigurationError, match="loss must be a probability"):
            run_sweep(16, 3, loss=loss, trials=2, engine=engine)
        with pytest.raises(ConfigurationError, match="loss must be a probability"):
            experiment = AgreementExperiment(n=16, t=3, loss=loss)
            run_sweep(experiment=experiment, trials=2, engine=engine)

    @pytest.mark.parametrize("max_rounds,allow_timeout", [(0, False), (-2, True)])
    def test_round_caps_below_one_are_configuration_errors(self, max_rounds, allow_timeout):
        with pytest.raises(ConfigurationError, match="max_rounds must be >= 1"):
            run_sweep(13, 3, max_rounds=max_rounds, trials=1, allow_timeout=allow_timeout)

    def test_a_bad_configuration_fails_before_any_process_pool(self, monkeypatch):
        import repro.engine as engine_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigurationError, match="unknown adversary 'straddle'"):
            run_sweep(13, 3, adversary="straddle", trials=4, engine="auto", workers=2)
        with pytest.raises(ConfigurationError, match="max_rounds must be >= 1"):
            run_sweep(13, 3, max_rounds=0, trials=4, engine="object", workers=2)
        with pytest.raises(ConfigurationError, match="alpha must be a finite positive"):
            run_sweep(13, 3, alpha=float("nan"), trials=4, engine="auto", workers=2)

    @pytest.mark.parametrize("protocol,engine", [
        ("phase-king", "auto"), ("committee-ba", "object"),
    ])
    def test_unknown_backend_is_rejected_before_dispatch(self, protocol, engine):
        with pytest.raises(ConfigurationError, match="unknown plane backend 'warp'"):
            run_sweep(16, 3, protocol=protocol, adversary="null", trials=2,
                      engine=engine, backend="warp")

    @pytest.mark.parametrize("protocol,adversary,base_seed", [
        ("committee-ba", "coin-attack", -1),
        ("committee-ba", "null", 2**64),
        ("phase-king", "static", -1),
        ("ben-or", "null", -1),
        ("eig", "crash", 2**64),
        ("sampling-majority", "silent", -1),
    ])
    def test_out_of_range_seeds_are_configuration_errors(self, protocol, adversary, base_seed):
        # The fast kernels key trial k's Philox stream (base_seed, k), so the
        # seed must be a 64-bit key word; the object engines take any int.
        experiment = AgreementExperiment(n=13, t=2, protocol=protocol, adversary=adversary)
        with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*64\)"):
            run_sweep(experiment=experiment, trials=2, base_seed=base_seed,
                      engine="vectorized")


class TestKernelContract:
    """Every registered kernel's rows, and how they shard by trial offset."""

    def test_every_registered_kernel_has_a_case(self):
        assert {case.values[0] for case in KERNEL_CASES} == set(PROTOCOL_KERNELS)

    @pytest.mark.parametrize(
        "protocol,adversary,n,t,inputs,seed,trials,split,kwargs", KERNEL_CASES
    )
    def test_rows_carry_global_counters_and_split_calls_concatenate(
        self, protocol, adversary, n, t, inputs, seed, trials, split, kwargs
    ):
        run_trials = partial(
            PROTOCOL_KERNELS[protocol].run_trials, n, t,
            adversary=adversary, inputs=inputs, seed=seed, **kwargs,
        )
        whole = run_trials(trials=trials)
        head = run_trials(trials=split)
        tail = run_trials(trials=trials - split, trial_offset=split)
        assert all(type(row) is TrialSummary for row in whole)
        assert [row.seed for row in whole] == list(range(trials))
        assert [row.seed for row in tail] == list(range(split, trials))
        assert head + tail == whole

    @pytest.mark.parametrize(
        "protocol,adversary,n,t,inputs,seed,trials,split,kwargs",
        [case for case in KERNEL_CASES if PROTOCOL_KERNELS[case.values[0]].supports_backend],
    )
    def test_forced_plane_representations_return_equal_rows(
        self, protocol, adversary, n, t, inputs, seed, trials, split, kwargs
    ):
        run_trials = partial(
            PROTOCOL_KERNELS[protocol].run_trials, n, t, adversary=adversary,
            inputs=inputs, seed=seed, trials=trials, **kwargs,
        )
        assert run_trials(backend="packed") == run_trials(backend="numpy")


class TestDispatchTable:
    def test_covers_every_protocol_adversary_pair(self):
        rows = dispatch_table()
        assert len(rows) == 9 * 8  # PROTOCOLS x ADVERSARIES
        fast = [row for row in rows if row["auto engine"] == "vectorized"]
        # The hook-capability derivation closes the matrix: every pair is
        # fast except eig x equivocate (staggered corruption vs the fixed
        # honest set of the tree recurrence).
        assert len(fast) == 9 * 8 - 1
        for row in fast:
            spec = PROTOCOL_KERNELS[row["protocol"]]
            assert row["kernel"] == spec.name
            assert row["validation"] in ("exact", "statistical", "exact (no-op)")
        committee_rows = [row for row in fast if row["kernel"] == "committee"]
        assert len(committee_rows) == 4 * 8

    def test_fast_pair_floor_and_explicit_inapplicable_listing(self):
        # Acceptance bar of the PhaseEngine-unification issue: the dispatch
        # table reports at least 65 fast pairs, and every inapplicable pair
        # is listed explicitly (dispatching to the exact null behaviour).
        rows = dispatch_table()
        fast = [row for row in rows if row["auto engine"] == "vectorized"]
        assert len(fast) >= 65
        noop = {
            (row["protocol"], row["adversary"])
            for row in rows
            if row["validation"] == "exact (no-op)"
        }
        assert noop == {
            ("phase-king", "coin-attack"),
            ("phase-king", "crash"),
            ("eig", "coin-attack"),
            ("eig", "crash"),
            ("eig", "committee-targeting"),
            ("sampling-majority", "coin-attack"),
            ("sampling-majority", "crash"),
            ("sampling-majority", "committee-targeting"),
        }
        support = {row["protocol"]: row for row in kernel_support_table()}
        assert support["eig"]["inapplicable"] == "coin-attack, committee-targeting, crash"
        assert support["eig"]["object only"] == "equivocate"
        assert support["rabin"]["inapplicable"] == "-"

    def test_kernel_support_table_has_one_row_per_protocol(self):
        rows = kernel_support_table()
        assert len(rows) == 9
        by_protocol = {row["protocol"]: row for row in rows}
        assert by_protocol["rabin"]["kernel"] == "dealer-coin"
        assert by_protocol["ben-or"]["max_rounds"] == "yes"
        assert "static" in by_protocol["phase-king"]["vectorized adversaries"]
        assert "committee-targeting" in by_protocol["phase-king"]["vectorized adversaries"]
        assert "equivocate" in by_protocol["sampling-majority"]["vectorized adversaries"]
        assert "coin-attack" in by_protocol["committee-ba"]["vectorized adversaries"]
        # Acceptance bar of the adversary-kernel issue: the committee family
        # reports support for the adaptive per-recipient strategies.
        for adversary in ("equivocate", "committee-targeting"):
            assert adversary in by_protocol["committee-ba"]["vectorized adversaries"]
