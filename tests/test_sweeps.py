"""Tests for the sweep orchestration subsystem (:mod:`repro.sweeps`).

Covers the four acceptance surfaces: spec round-trip and content-hash
stability across dict ordering, store resume semantics (interrupt mid-sweep,
re-run, only pending points execute), shard-merge exactness of
``workers > 1`` runs, and the ``repro sweep`` CLI subcommands.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import sys
import threading

import pytest

from repro.cli import main
from repro.core.runner import AgreementExperiment, TrialsResult, TrialSummary
from repro.engine import run_sweep
from repro.exceptions import ConfigurationError
from repro.observability import Tracer, activate
from repro.sweeps import (
    SWEEP_LIBRARY,
    ResultsStore,
    SweepPoint,
    SweepSpec,
    adaptive_key,
    adaptive_record,
    adaptive_status,
    canonical_json,
    get_spec,
    markdown_library_table,
    point_key,
    resolve_t,
    result_from_record,
    run_adaptive,
    run_spec,
    spec_from_file,
    spec_keys,
    status_spec,
    sweep_record,
)
from repro.sweeps.executor import report_rows

#: A tiny all-vectorizable grid used throughout: 4 points, 2 trials each.
TINY = SweepSpec(
    name="tiny",
    protocols=("committee-ba", "phase-king"),
    adversaries=("null", "static"),
    n_values=(17,),
    t_specs=("quarter",),
    trials=2,
    seed_policy="by-point",
    base_seed=40,
)

#: TINY with a precision target, for the adaptive executor: a loose target
#: and an 8-trial ceiling keep it to a few 2-trial batches per point.
TINY_PRECISION = dataclasses.replace(
    TINY, name="tiny-precision", precision=0.4, max_trials=8
)


class TestSpec:
    def test_expansion_is_deterministic_and_ordered(self):
        points = TINY.expand()
        assert [(p.protocol, p.adversary) for p in points] == [
            ("committee-ba", "null"), ("committee-ba", "static"),
            ("phase-king", "null"), ("phase-king", "static"),
        ]
        assert [p.base_seed for p in points] == [40, 41, 42, 43]
        assert points == TINY.expand()

    def test_t_spec_resolution(self):
        assert resolve_t("third", 19) == 6
        assert resolve_t("quarter", 17) == 4
        assert resolve_t("tenth", 64) == 6
        assert resolve_t(5, 999) == 5
        with pytest.raises(ConfigurationError):
            resolve_t("half", 10)

    def test_seed_policies(self):
        by_t = SweepSpec(
            name="by-t", protocols=("committee-ba",), adversaries=("null",),
            n_values=(19,), t_specs=(2, 4), seed_policy="by-t", base_seed=1000,
        )
        assert [p.base_seed for p in by_t.expand()] == [1002, 1004]
        fixed = SweepSpec(
            name="fixed", protocols=("committee-ba",), adversaries=("null",),
            n_values=(19,), t_specs=(2, 4), seed_policy="fixed", base_seed=7,
        )
        assert [p.base_seed for p in fixed.expand()] == [7, 7]

    def test_round_trip_through_canonical_json(self):
        rebuilt = SweepSpec.from_mapping(json.loads(TINY.to_json()))
        assert rebuilt == TINY
        assert rebuilt.to_json() == TINY.to_json()

    def test_library_specs_round_trip_and_expand(self):
        for name, spec in SWEEP_LIBRARY.items():
            assert spec.name == name
            assert SweepSpec.from_mapping(json.loads(spec.to_json())) == spec
            assert len(spec.expand()) >= 4

    def test_validation_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(name="x", protocols=("warp",), adversaries=("null",),
                      n_values=(16,), t_specs=(3,))
        with pytest.raises(ConfigurationError):
            SweepSpec(name="x", protocols=("committee-ba",), adversaries=("nope",),
                      n_values=(16,), t_specs=(3,))
        with pytest.raises(ConfigurationError):
            SweepSpec(name="x", protocols=("committee-ba",), adversaries=("null",),
                      n_values=(16,), t_specs=(3,), inputs=("zebra",))
        with pytest.raises(ConfigurationError):
            SweepSpec(name="x", protocols=("committee-ba",), adversaries=("null",),
                      n_values=(16,), t_specs=(3,), seed_policy="lottery")
        with pytest.raises(ConfigurationError):
            SweepSpec(name="x", protocols=("committee-ba",), adversaries=("null",),
                      n_values=(16,), t_specs=(3,), engine="warp")

    def test_from_mapping_rejects_unknown_fields_and_axes(self):
        good = json.loads(TINY.to_json())
        bad = dict(good, typo=1)
        with pytest.raises(ConfigurationError):
            SweepSpec.from_mapping(bad)
        bad_axes = dict(good, axes=dict(good["axes"], zeta=[1]))
        with pytest.raises(ConfigurationError):
            SweepSpec.from_mapping(bad_axes)

    @pytest.mark.parametrize(
        ("spec_field", "point_field"),
        [
            ({"protocols": ("warp",)}, {"protocol": "warp"}),
            ({"adversaries": ("straddle",)}, {"adversary": "straddle"}),
            ({"inputs": ("zebra",)}, {"inputs": "zebra"}),
            ({"topologies": ("torus",)}, {"topology": "torus"}),
            ({"losses": (1.0,)}, {"loss": 1.0}),
            ({"max_rounds": 0}, {"max_rounds": 0}),
            ({"alphas": (float("nan"),)}, {"alpha": float("nan")}),
            ({"alphas": (0.0,)}, {"alpha": 0.0}),
        ],
    )
    def test_spec_and_point_reject_a_field_with_one_message(self, spec_field, point_field):
        point = dict(protocol="committee-ba", adversary="null", inputs="split",
                     n=16, t=3, trials=2, base_seed=0)
        spec = dict(name="x", protocols=("committee-ba",), adversaries=("null",),
                    n_values=(16,), t_specs=(3,))
        with pytest.raises(ConfigurationError) as point_error:
            SweepPoint(**{**point, **point_field})
        with pytest.raises(ConfigurationError) as spec_error:
            SweepSpec(**{**spec, **spec_field})
        assert str(spec_error.value) == str(point_error.value)

    def test_a_point_holds_every_run_configuration_field(self):
        # A run is its named fields, so every configuration run_sweep accepts
        # can be a stored sweep point.
        point_fields = {field.name for field in dataclasses.fields(SweepPoint)}
        run_fields = {field.name for field in dataclasses.fields(AgreementExperiment)}
        assert point_fields == run_fields | {"trials", "base_seed"}

    def test_point_validates_against_registries(self):
        with pytest.raises(ConfigurationError):
            SweepPoint(protocol="warp", adversary="null", inputs="split",
                       n=16, t=3, trials=2, base_seed=0)
        with pytest.raises(ConfigurationError):
            SweepPoint(protocol="committee-ba", adversary="null", inputs="split",
                       n=16, t=8, trials=2, base_seed=0)  # t >= n/3

    @pytest.mark.parametrize("base_seed", [-1, 2**64])
    def test_point_seeds_share_the_engines_domain(self, base_seed):
        with pytest.raises(ConfigurationError, match=r"seed must be in \[0, 2\*\*64\)"):
            SweepPoint(protocol="eig", adversary="null", inputs="split",
                       n=13, t=3, trials=2, base_seed=base_seed)

    def test_fast_path_only_filters_object_pairs(self):
        spec = SweepSpec(
            name="fast", protocols=("eig",),
            # equivocate is the one remaining object-only pair (staggered
            # corruption vs the fixed honest set of the tree recurrence).
            adversaries=("static", "equivocate"),
            n_values=(10,), t_specs=(2,), fast_path_only=True,
        )
        points = spec.expand()
        assert [p.adversary for p in points] == ["static"]

    def test_fast_path_only_keeps_the_newly_vectorized_pairs(self):
        spec = SweepSpec(
            name="fast", protocols=("phase-king",),
            adversaries=("coin-attack", "committee-targeting", "random-noise"),
            n_values=(17,), t_specs=("quarter",), fast_path_only=True,
        )
        points = spec.expand()
        assert [p.adversary for p in points] == [
            "coin-attack", "committee-targeting", "random-noise"
        ]

    def test_spec_file_loading_json_and_toml(self, tmp_path):
        json_path = tmp_path / "spec.json"
        json_path.write_text(TINY.to_json(), encoding="utf-8")
        assert spec_from_file(json_path) == TINY

        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(
            'name = "tiny-toml"\n'
            'trials = 2\n'
            "[axes]\n"
            'protocol = ["committee-ba"]\n'
            'adversary = ["null"]\n'
            'n = [17]\n'
            't = ["quarter"]\n'
            "[seed]\n"
            'policy = "by-point"\n'
            "base = 40\n",
            encoding="utf-8",
        )
        try:
            import tomllib  # noqa: F401
        except ModuleNotFoundError:
            with pytest.raises(ConfigurationError, match="tomllib"):
                spec_from_file(toml_path)
        else:
            spec = spec_from_file(toml_path)
            assert spec.name == "tiny-toml"
            assert spec.expand()[0].t == 4

        with pytest.raises(ConfigurationError):
            spec_from_file(tmp_path / "missing.json")
        (tmp_path / "spec.yaml").write_text("x", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            spec_from_file(tmp_path / "spec.yaml")


class TestContentKeys:
    def test_hash_is_stable_across_dict_ordering(self):
        point = TINY.expand()[0]
        shuffled = dict(reversed(list(point.canonical().items())))
        rebuilt = SweepPoint.from_mapping(shuffled)
        assert rebuilt == point
        assert point_key(rebuilt, "vectorized") == point_key(point, "vectorized")

    def test_key_separates_configurations_and_families(self):
        first, second = TINY.expand()[:2]
        assert point_key(first, "vectorized") != point_key(second, "vectorized")
        assert point_key(first, "vectorized") != point_key(first, "object")
        with pytest.raises(ConfigurationError):
            point_key(first, "vectorized-mp")  # keys are per family, not engine

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


#: What makes an older store a full cache hit, recorded before the uniform
#: and adaptive executors shared one loop: the keys of two ``smoke`` points
#: per family, ``(point_key, adaptive_key)``, and the SHA-256 of the sorted
#: JSON of a ``sweep_record`` and an ``adaptive_record`` of PINNED_ROWS.
PINNED_KEYS = {
    ("committee-ba/null/split/n=17/t=4/trials=2", "vectorized"): (
        "724c5cf05da3f2d6db4a882ecd335b897c7b26f0ead5749b89a3bfe45a81dca9",
        "436042dac06787a047878d7af0fe90b4a4957e5c02511697ebb63f3972f0958b",
    ),
    ("committee-ba/null/split/n=17/t=4/trials=2", "object"): (
        "77cf4bf3e8afc8c4af2462e450a60a7f05bccb0555420df3800a96e1c9220646",
        "f1e288a625ad10c6ffb51dcf74b7360e5c0c0920f9bd43956dc2d13374020952",
    ),
    ("phase-king/static/split/n=17/t=4/trials=2", "vectorized"): (
        "dabcdb0a4312400f8deeb7fd0e6addd5df3d269e85dde01e0870e48e82284ff0",
        "5f583a5c2a3a57f6dfb3763a807bed282537c03557cc232cf4d93226adcdd97f",
    ),
    ("phase-king/static/split/n=17/t=4/trials=2", "object"): (
        "943abf9f6d5ad863a71167cb12f355aaf967375a6ee3e74fad35f4fe850ee3a2",
        "da96b75ff31816c95651e21296bb87945a6e3153f03e0263df639f551934bd45",
    ),
}
PINNED_ROWS = (
    TrialSummary(seed=100, rounds=6, phases=3, agreement=True, validity=True,
                 decision=1, messages=5780, bits=40460, corrupted=0, timed_out=False),
    TrialSummary(seed=101, rounds=9, phases=4, agreement=True, validity=True,
                 decision=0, messages=8670, bits=60690, corrupted=2, timed_out=False),
    TrialSummary(seed=102, rounds=40, phases=20, agreement=False, validity=True,
                 decision=None, messages=38400, bits=268800, corrupted=4, timed_out=True),
)
PINNED_RECORD_DIGESTS = {
    "sweep-point": "1512dc974ddfe3bf03ec68cb44767a99d7ccb79be60ccdc7a8086f6bede8f70a",
    "adaptive-point": "d23c7580bf5945bd63bb586603dc557296ab1c255214e59a009c91f6e3a0a9ce",
}


class TestPinnedStoreLayout:
    def test_keys_of_smoke_points_are_pinned(self):
        points = get_spec("smoke").expand()
        got = {
            (point.label(), family): (point_key(point, family), adaptive_key(point, family))
            for point in (points[0], points[3])
            for family in ("vectorized", "object")
        }
        assert got == PINNED_KEYS

    def test_record_bytes_are_pinned(self, tmp_path):
        point = get_spec("smoke").expand()[0]
        result = TrialsResult(experiment=point.experiment(), trials=list(PINNED_ROWS),
                              engine="vectorized")
        records = {
            "sweep-point": sweep_record(point, result, "vectorized"),
            "adaptive-point": adaptive_record(
                point, result, "vectorized", precision=0.05, batch_size=16,
                max_trials=256, z=1.96,
            ),
        }
        store = ResultsStore(tmp_path / "store")
        got = {}
        for kind, record in records.items():
            assert record["kind"] == kind
            store.put(kind, record)
            # The store line is the record plus its key and a timestamp.
            (line,) = (tmp_path / "store" / f"shard-{kind[:2]}.jsonl").read_text().splitlines()
            stored = json.loads(line)
            assert stored.pop("key") == kind and stored.pop("recorded_at")
            assert stored == record
            text = json.dumps(record, sort_keys=True, separators=(",", ":"))
            got[kind] = hashlib.sha256(text.encode()).hexdigest()
        assert got == PINNED_RECORD_DIGESTS


class TestStore:
    def test_put_get_and_reload(self, tmp_path):
        point = TINY.expand()[0]
        result = run_sweep(experiment=point.experiment(), trials=point.trials,
                           base_seed=point.base_seed)
        store = ResultsStore(tmp_path / "store")
        key = point_key(point, result.engine)
        store.put(key, sweep_record(point, result, result.engine))
        assert key in store and len(store) == 1

        reloaded = ResultsStore(tmp_path / "store")
        assert key in reloaded
        cached = result_from_record(reloaded.get(key))
        assert cached.trials == result.trials
        assert cached.experiment == point.experiment()
        assert cached.summary() == result.summary()

    def test_append_only_trajectory_latest_wins(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        store.put("k1", {"kind": "experiment", "rows": [1]})
        store.put("k1", {"kind": "experiment", "rows": [1, 2]})
        assert len(store) == 1
        assert store.appended_lines == 2
        assert store.get("k1")["rows"] == [1, 2]
        reloaded = ResultsStore(tmp_path / "store")
        assert reloaded.get("k1")["rows"] == [1, 2]
        assert reloaded.appended_lines == 2

    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        store.put("aa11", {"kind": "experiment", "rows": []})
        shard = next((tmp_path / "store").glob("shard-*.jsonl"))
        with shard.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "bb22", "kind": "sweep-po')  # kill mid-write
        reloaded = ResultsStore(tmp_path / "store")
        assert "aa11" in reloaded and "bb22" not in reloaded

    def test_every_acknowledged_record_survives_a_torn_tail(self, tmp_path):
        # Fault injection: kill the append of aa02 at every byte offset
        # (from "not started" to "complete"), reopen, append aa03 — whose
        # put is acknowledged — then reopen twice more.
        root = tmp_path / "store"
        store = ResultsStore(root)
        store.put("aa01", {"kind": "experiment", "rows": [1]})
        store.put("aa02", {"kind": "experiment", "rows": [2]})
        shard = root / "shard-aa.jsonl"
        full = shard.read_bytes()
        start = full.rindex(b"\n", 0, len(full) - 1) + 1  # where aa02's line begins
        for cut in range(start, len(full) + 1):
            shard.write_bytes(full[:cut])
            ResultsStore(root).put("aa03", {"kind": "experiment", "rows": [cut]})
            for _ in range(2):
                reopened = ResultsStore(root)
                assert reopened.get("aa01")["rows"] == [1], cut
                assert reopened.get("aa03")["rows"] == [cut], cut
                # aa02 was acknowledged only if its append completed.
                assert ("aa02" in reopened) == (cut == len(full)), cut

    def test_writers_sharing_a_root_never_fail_an_acknowledged_put(self, tmp_path):
        # Four writers, each with its own store on one root, append after
        # every put; a tiny switch interval interleaves their appends as
        # often as the interpreter allows.
        root = tmp_path / "store"
        writers, puts = 4, 300
        errors: list[Exception] = []

        def write(writer: int) -> None:
            try:
                store = ResultsStore(root)
                for i in range(puts):
                    store.put(f"{i % 8:02x}-{writer}-{i}", {"kind": "experiment", "rows": [i]})
            except Exception as exc:  # surfaced in the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads), "a writer hung"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        reopened = ResultsStore(root)
        assert len(reopened) == writers * puts
        assert all(
            reopened.get(f"{i % 8:02x}-{w}-{i}")["rows"] == [i]
            for w in range(writers)
            for i in range(puts)
        )
        # Writers only append: nothing but shard files in the root.
        assert all(path.name.startswith("shard-") for path in root.iterdir())

    def test_the_root_holds_only_shards(self, tmp_path):
        root = tmp_path / "store"
        store = ResultsStore(root)
        run_spec(TINY, store=store)
        run_adaptive(TINY_PRECISION, store=store)
        files = sorted(root.iterdir())
        assert files and all(
            path.is_file() and path.name.startswith("shard-") and path.suffix == ".jsonl"
            for path in files
        )
        lines = sum(len(path.read_bytes().splitlines()) for path in files)
        assert lines == store.appended_lines > len(TINY.expand())


class TestExecutorResume:
    def test_run_caches_and_second_run_is_all_cached(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        first = run_spec(TINY, store=store)
        assert (first.computed, first.cached) == (4, 0)
        second = run_spec(TINY, store=store)
        assert (second.computed, second.cached) == (0, 4)
        assert [o.key for o in first.outcomes] == [o.key for o in second.outcomes]

    def test_interrupt_mid_sweep_then_resume_runs_only_pending(self, tmp_path):
        store = ResultsStore(tmp_path / "store")

        def bomb(outcome, index, total):
            if index == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_spec(TINY, store=store, progress=bomb)
        # Both points seen before the interrupt are durable...
        assert len(store) == 2
        # ...and a fresh process (fresh store instance) resumes exactly there.
        resumed = run_spec(TINY, store=ResultsStore(tmp_path / "store"))
        assert (resumed.computed, resumed.cached) == (2, 2)
        statuses = [outcome.status for outcome in resumed.outcomes]
        assert statuses == ["cached", "cached", "computed", "computed"]

    def test_limit_leaves_pending_points_for_later(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        partial = run_spec(TINY, store=store, limit=3)
        assert (partial.computed, partial.pending) == (3, 1)
        rest = run_spec(TINY, store=store)
        assert (rest.computed, rest.cached) == (1, 3)

    def test_negative_limit_is_rejected_and_zero_computes_nothing(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(ConfigurationError, match="limit must be >= 0"):
            run_spec(TINY, store=store, limit=-1)
        assert len(store) == 0
        idle = run_spec(TINY, store=store, limit=0)
        assert (idle.computed, idle.pending) == (0, 4)
        assert len(store) == 0

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected_before_anything_runs(self, tmp_path, workers):
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            run_spec(TINY, store=store, workers=workers)
        assert len(store) == 0

    def test_workers_shard_object_points_without_splitting_the_cache(self, tmp_path):
        spec = dataclasses.replace(TINY, engine="object")
        serial = ResultsStore(tmp_path / "serial")
        run_spec(spec, store=serial, workers=1)
        store = ResultsStore(tmp_path / "sharded")
        tracer = Tracer(run_id="pool")
        with activate(tracer):
            report = run_spec(spec, store=store, workers=2)
        assert report.computed == 4
        spans = [e for e in tracer.events() if e["name"] == "sweep.object"]
        assert [span["meta"]["workers"] for span in spans] == [2, 2, 2, 2]
        # Same keys and the same records (bar the timestamp) as in-process.
        assert sorted(store.keys()) == sorted(serial.keys())
        for key in store.keys():
            assert {**store.get(key), "recorded_at": None} == {
                **serial.get(key), "recorded_at": None
            }
        assert run_spec(spec, store=store).cached == 4

    def test_cached_results_equal_fresh_results(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        run_spec(TINY, store=store)
        for point, key in spec_keys(TINY):
            fresh = run_sweep(experiment=point.experiment(), trials=point.trials,
                              base_seed=point.base_seed)
            assert result_from_record(store.get(key)).trials == fresh.trials

    def test_status_and_report_rows(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        run_spec(TINY, store=store, limit=2)
        status = status_spec(TINY, store=store)
        assert (status.cached, status.pending) == (2, 2)
        rows = report_rows(TINY, store=store)
        assert len(rows) == 4
        assert sum(row["engine"] is not None for row in rows) == 2
        assert all(row["protocol"] for row in rows)

    def test_status_of_an_empty_store_executes_nothing(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("status executed a point")

        monkeypatch.setattr("repro.sweeps.executor.run_sweep", refuse)
        root = tmp_path / "store"
        store = ResultsStore(root)
        status = status_spec(TINY, store=store)
        assert [o.status for o in status.outcomes] == ["pending"] * 4
        assert (status.cache_hits, status.cache_misses) == (0, 4)
        coverage = adaptive_status(TINY_PRECISION, store=store)
        assert [e.status for e in coverage.estimates] == ["pending"] * 4
        assert coverage.computed_batches == 0
        assert store.appended_lines == 0 and not list(root.iterdir())


class TestShardMerge:
    def test_merge_is_exact_concatenation(self):
        experiment = AgreementExperiment(n=19, t=3, protocol="committee-ba",
                                         adversary="null", inputs="split")
        whole = run_sweep(experiment=experiment, trials=6, base_seed=3)
        # Split as the sharded executor would: contiguous offsets.
        parts = [
            TrialsResult(experiment=experiment, trials=whole.trials[:4]),
            TrialsResult(experiment=experiment, trials=whole.trials[4:]),
        ]
        merged = TrialsResult.merge(parts)
        assert merged.trials == whole.trials
        assert merged.summary() == whole.summary()

    def test_merge_rejects_mismatched_experiments_and_empty(self):
        a = AgreementExperiment(n=19, t=3, protocol="committee-ba",
                                adversary="null", inputs="split")
        b = AgreementExperiment(n=19, t=3, protocol="committee-ba",
                                adversary="silent", inputs="split")
        ra = run_sweep(experiment=a, trials=2, base_seed=0)
        rb = run_sweep(experiment=b, trials=2, base_seed=0)
        with pytest.raises(ConfigurationError):
            TrialsResult.merge([ra, rb])
        with pytest.raises(ConfigurationError):
            TrialsResult.merge([])

    @pytest.mark.parametrize(
        "protocol,adversary,n,t",
        [
            ("committee-ba-las-vegas", "coin-attack", 48, 10),
            ("phase-king", "static", 17, 4),
            ("rabin", "coin-attack", 25, 6),
            ("eig", "static", 13, 2),
        ],
    )
    def test_sharded_vectorized_bit_identical_to_in_process(
        self, traced_sweep, protocol, adversary, n, t
    ):
        kwargs = dict(protocol=protocol, adversary=adversary, inputs="split",
                      trials=7, base_seed=5)
        single = run_sweep(n, t, engine="vectorized", workers=1, **kwargs)
        sharded, workers = traced_sweep(n, t, engine="vectorized", workers=3, **kwargs)
        assert workers == 3
        assert sharded.engine == single.engine == "vectorized"
        assert sharded.trials == single.trials
        assert sharded.summary() == single.summary()

    def test_auto_with_workers_shards_the_vectorized_family(self, traced_sweep):
        kwargs = dict(protocol="committee-ba", adversary="null", trials=4, base_seed=1,
                      engine="auto")
        result, workers = traced_sweep(19, 3, workers=2, **kwargs)
        serial, serial_workers = traced_sweep(19, 3, **kwargs)
        assert (workers, serial_workers) == (2, 1)
        assert result.engine == serial.engine == "vectorized"
        assert serial.trials == result.trials


class TestSweepCli:
    def test_run_then_rerun_is_full_cache_hit(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", "smoke", "--store", store]) == 0
        first = capsys.readouterr().out
        assert "4 computed, 0 cached" in first
        assert main(["sweep", "run", "smoke", "--store", store]) == 0
        second = capsys.readouterr().out
        assert "0 computed, 4 cached" in second

    def test_limit_then_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", "smoke", "--store", store, "--limit", "2"]) == 0
        assert "2 computed, 0 cached, 2 pending" in capsys.readouterr().out
        assert main(["sweep", "run", "smoke", "--store", store]) == 0
        assert "2 computed, 2 cached, 0 pending" in capsys.readouterr().out

    def test_status_and_report(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "status", "smoke", "--store", store]) == 0
        assert "4 pending" in capsys.readouterr().out
        assert main(["sweep", "run", "smoke", "--store", store, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["sweep", "report", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "agreement_rate" in out and "committee-ba" in out
        assert "not in the store" not in out

    def test_expand_table_and_json(self, capsys):
        assert main(["sweep", "expand", "smoke"]) == 0
        table = capsys.readouterr().out
        assert "base_seed" in table and "phase-king" in table
        assert main(["sweep", "expand", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert SweepSpec.from_mapping(payload) == get_spec("smoke")

    def test_run_accepts_a_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(TINY.to_json(), encoding="utf-8")
        store = str(tmp_path / "store")
        assert main(["sweep", "run", str(spec_path), "--store", store]) == 0
        assert "sweep tiny: 4 points, 4 computed" in capsys.readouterr().out

    def test_a_negative_seed_fails_at_expansion_before_any_shard(self, tmp_path, capsys):
        # Expansion refuses the seed policy before the object-family eig
        # point can run and store a shard.
        spec_path = tmp_path / "negative.json"
        spec_path.write_text(json.dumps({
            "name": "negative", "trials": 2,
            "axes": {"protocol": ["eig", "committee-ba"], "adversary": ["equivocate"],
                     "inputs": ["split"], "n": [13], "t": [3]},
            "seed": {"policy": "by-point", "base": -2},
        }), encoding="utf-8")
        store = tmp_path / "store"
        assert main(["sweep", "run", str(spec_path), "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be in [0, 2**64)") and err.count("\n") == 1
        assert not list(store.glob("shard-*"))

    @pytest.mark.parametrize("command", ["run", "status", "report"])
    def test_engine_override_flag_exits_2_before_any_store_write(
        self, tmp_path, capsys, command
    ):
        # The store key depends on the result family, so the spec's `engine`
        # field is its only source: a per-invocation override made `run`
        # write keys that `status` and `report` then listed as pending.
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", command, "smoke", "--engine", "object", "--store", str(store)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine object" in capsys.readouterr().err
        assert not any(store.rglob("shard-*.jsonl"))

    def test_status_and_report_read_the_keys_an_object_spec_run_wrote(
        self, tmp_path, capsys
    ):
        spec_path = tmp_path / "tiny-object.json"
        spec_path.write_text(
            dataclasses.replace(TINY, engine="object").to_json(), encoding="utf-8"
        )
        store = str(tmp_path / "store")
        assert main(["sweep", "run", str(spec_path), "--store", store, "--quiet"]) == 0
        assert "4 computed, 0 cached, 0 pending (engine object" in capsys.readouterr().out
        assert main(["sweep", "status", str(spec_path), "--store", store]) == 0
        assert "0 computed, 4 cached, 0 pending" in capsys.readouterr().out
        assert main(["sweep", "report", str(spec_path), "--store", store]) == 0
        assert "not in the store" not in capsys.readouterr().out

    def test_unknown_spec_reference_fails_cleanly(self, capsys):
        assert main(["sweep", "run", "no-such-spec"]) == 2
        assert "unknown sweep spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,change",
        [
            ("n", {"axes": {**TINY.canonical()["axes"], "n": ["x"]}}),
            ("max_rounds", {"max_rounds": "40"}),
            ("max_rounds", {"max_rounds": 0}),
            ("trials", {"trials": 2.7}),
            ("alpha", {"axes": {**TINY.canonical()["axes"], "alpha": [True]}}),
            ("alpha", {"axes": {**TINY.canonical()["axes"], "alpha": [0]}}),
        ],
        ids=["n-string", "max_rounds-string", "max_rounds-zero", "trials-float",
             "alpha-bool", "alpha-zero"],
    )
    def test_malformed_spec_file_fails_cleanly(self, tmp_path, capsys, field, change):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({**TINY.canonical(), **change}), encoding="utf-8")
        store = tmp_path / "store"
        assert main(["sweep", "run", str(spec_path), "--store", str(store)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and re.search(rf"\b{field}\b", errors[0]), errors
        assert not store.exists()

    def test_library_listing_and_markdown_block(self, capsys):
        assert main(["sweep", "library"]) == 0
        out = capsys.readouterr().out
        for name in SWEEP_LIBRARY:
            assert name in out
        assert main(["sweep", "library", "--markdown"]) == 0
        assert markdown_library_table() in capsys.readouterr().out
