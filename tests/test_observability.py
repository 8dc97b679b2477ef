"""Tests for the telemetry subsystem (:mod:`repro.observability`).

Covers the acceptance surfaces of the tentpole: NullTracer no-op semantics,
JSONL schema round-trip and rejection, tracing on/off bit-identity across
engines/backends (including the child-trace merge of ``workers > 1`` runs),
deterministic span ordering under batch compaction, the stage/counter
aggregation maths, the store cache counters, and the ``repro trace`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.runner import AgreementExperiment, run_agreement
from repro.engine import run_sweep
from repro.metrics.collectors import collect_run_metrics
from repro.metrics.reporting import format_table
from repro.observability import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    activate,
    current_tracer,
    env_enabled,
    object_trace_events,
    read_trace,
    trace_events,
    validate_events,
    write_trace,
)
from repro.observability.report import counter_rows, stage_rows, trace_breakdown
from repro.simulator.draws import VECTOR_MIN_ROWS
from repro.sweeps import ResultsStore, SweepSpec, run_spec, spec_keys, status_spec


def _trial_rows(result):
    """The result fields that must be bit-identical with tracing on/off."""
    return [
        (t.seed, t.rounds, t.phases, t.agreement, t.validity,
         t.messages, t.bits, t.corrupted, t.timed_out)
        for t in result.trials
    ]


def _strip_timing(event):
    """A span event minus its clock fields (the only nondeterministic part)."""
    return {k: v for k, v in event.items() if k not in ("start_ns", "duration_ns")}


class TestNullTracer:
    def test_default_tracer_is_the_null_singleton(self):
        assert current_tracer() is NULL_TRACER
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.enabled is False

    def test_null_operations_record_nothing(self):
        with NULL_TRACER.span("anything", meta=1) as span:
            span.annotate(more=2)
            NULL_TRACER.count("plane.word_ops", 5)
        assert NULL_TRACER.counters == {}
        assert NULL_TRACER.counter_value("plane.word_ops") == 0

    def test_null_span_is_one_shared_object(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_activate_restores_previous_tracer(self):
        tracer = Tracer(run_id="t")
        with activate(tracer):
            assert current_tracer() is tracer
            with tracer.span("outer"):
                tracer.count("x")
        assert current_tracer() is NULL_TRACER
        assert tracer.counter_value("x") == 1

    def test_env_enabled_parses_the_usual_spellings(self):
        assert env_enabled({}) is False
        for off in ("", "0", "false", "No", "OFF"):
            assert env_enabled({"REPRO_TRACE": off}) is False
        for on in ("1", "true", "yes", "anything"):
            assert env_enabled({"REPRO_TRACE": on}) is True


class TestSchemaRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        tracer = Tracer(run_id="rt")
        with activate(tracer):
            with tracer.span("outer", label="x"):
                with tracer.span("inner"):
                    tracer.count("ops", 3)
        path = write_trace(tracer, tmp_path / "rt.jsonl")
        events = read_trace(path)
        assert events[0]["event"] == "trace" and events[0]["schema"] == 1
        assert events[0]["run_id"] == "rt"
        names = [e["name"] for e in events if e["event"] == "span"]
        # Inner closes (and records) first, but export order is by entry
        # sequence, so the outer span leads.
        assert names == ["outer", "inner"]
        counters = [e for e in events if e["event"] == "counter"]
        assert counters == [{"event": "counter", "name": "ops",
                             "value": 3, "shard": None}]
        # The file round-trips exactly through json (sorted keys per line).
        assert events == trace_events(tracer)

    def test_parent_and_seq_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.events()[0], tracer.events()[1]
        assert (inner["name"], outer["name"]) == ("inner", "outer")
        assert outer["parent"] is None and outer["seq"] == 0
        assert inner["parent"] == 0 and inner["seq"] == 1

    def test_validate_rejects_malformed_streams(self):
        header = {"event": "trace", "schema": 1, "run_id": "x"}
        span = {"event": "span", "name": "s", "seq": 0, "parent": None,
                "shard": None, "start_ns": 0, "duration_ns": 1}
        with pytest.raises(ValueError, match="empty"):
            validate_events([])
        with pytest.raises(ValueError, match="first event"):
            validate_events([span])
        with pytest.raises(ValueError, match="schema version"):
            validate_events([{**header, "schema": 99}])
        with pytest.raises(ValueError, match="unknown type"):
            validate_events([header, {"event": "mystery"}])
        with pytest.raises(ValueError, match="missing keys"):
            validate_events([header, {"event": "span", "name": "s"}])
        with pytest.raises(ValueError, match="not an int"):
            validate_events([header, {**span, "duration_ns": 1.5}])
        with pytest.raises(ValueError, match="duplicate trace header"):
            validate_events([header, header])

    def test_read_trace_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            read_trace(path)


class TestBitIdentity:
    """Tracing on vs off must not change a single bit of the results."""

    CASES = [
        # (protocol, adversary, backend, engine, n, t); EIG's tree bound
        # keeps that baseline at toy sizes.
        ("committee-ba", "coin-attack", "numpy", "vectorized", 32, 6),
        ("committee-ba", "coin-attack", "packed", "vectorized", 32, 6),
        ("phase-king", "static", "packed", "vectorized", 32, 6),
        ("eig", "crash", "numpy", "vectorized", 13, 2),
        ("sampling-majority", "silent", "packed", "vectorized", 32, 6),
        ("committee-ba", "null", None, "object", 32, 6),
    ]

    @pytest.mark.parametrize("protocol,adversary,backend,engine,n,t", CASES)
    def test_traced_equals_untraced(self, protocol, adversary, backend,
                                    engine, n, t):
        experiment = AgreementExperiment(n=n, t=t, protocol=protocol,
                                         adversary=adversary, inputs="split")
        kwargs = dict(experiment=experiment, trials=4, base_seed=11,
                      engine=engine, backend=backend)
        plain = run_sweep(**kwargs)
        tracer = Tracer(run_id="identity")
        with activate(tracer):
            traced = run_sweep(**kwargs)
        assert _trial_rows(traced) == _trial_rows(plain)
        assert traced.engine == plain.engine
        if engine == "vectorized":
            # The dispatch layer recorded the fast-path selection; the
            # committee protocols additionally run through the PhaseEngine's
            # instrumented stage loop (baseline kernels have their own loops).
            names = {e["name"] for e in tracer.events()}
            assert "sweep.vectorized" in names
            if protocol == "committee-ba":
                assert "engine.round1" in names and "engine.round2" in names

    @pytest.mark.parametrize("protocol,backend", [
        ("committee-ba", "numpy"),
        ("committee-ba", "packed"),
        ("phase-king", "packed"),
    ])
    def test_lossy_traced_equals_untraced(self, protocol, backend, native_kernel):
        experiment = AgreementExperiment(n=32, t=6, protocol=protocol,
                                         adversary="static", inputs="split",
                                         loss=0.05)
        kwargs = dict(experiment=experiment, trials=4, base_seed=11,
                      engine="vectorized", backend=backend)
        plain = run_sweep(**kwargs)
        tracer = Tracer(run_id="lossy-identity")
        with activate(tracer):
            traced = run_sweep(**kwargs)
        assert _trial_rows(traced) == _trial_rows(plain)
        # Every round's draw (both rounds, both kernel families) has its own
        # span, annotated with how many trials drew and which loss kernel
        # drew them.
        draws = [e for e in tracer.events() if e["name"] == "engine.draw.loss"]
        assert len(draws) >= 2
        assert all(1 <= e["meta"]["running"] <= 4 for e in draws)
        assert {e["meta"]["kernel"] for e in draws} == {native_kernel}
        shares = [e for e in tracer.events() if e["name"] == "engine.draw.bits"]
        if protocol == "phase-king":
            assert shares == []  # the king's value is no coin
            return
        # Native loss planes leave every row a cursor, so the native draw
        # takes the shares at any row count; the NumPy loss kernel has
        # turned the drawing rows into generators by then, so their shares
        # are drawn per row, below the crossover and above it.  (A phase
        # whose committee is all corrupt draws nothing, on no cursor row.)
        path = "native" if native_kernel == "native" else "generator"
        assert shares and all(e["meta"]["running"] <= 4 for e in shares)
        assert {e["meta"]["path"] for e in shares if e["meta"]["running"]} == {path}
        wide = dict(kwargs, trials=VECTOR_MIN_ROWS + 8)
        plain = run_sweep(**wide)
        tracer = Tracer(run_id="wide-identity")
        with activate(tracer):
            traced = run_sweep(**wide)
        assert _trial_rows(traced) == _trial_rows(plain)
        shares = [e for e in tracer.events() if e["name"] == "engine.draw.bits"]
        assert shares[0]["meta"]["path"] == path
        assert shares[0]["meta"]["running"] >= VECTOR_MIN_ROWS

    @pytest.mark.parametrize("engine", ["vectorized", "object"])
    def test_sharded_merge_is_bit_identical_and_ordered(self, engine):
        experiment = AgreementExperiment(n=32, t=6, protocol="committee-ba",
                                         adversary="coin-attack", inputs="split")
        kwargs = dict(experiment=experiment, trials=6, base_seed=7,
                      engine=engine, workers=2)
        plain = run_sweep(**kwargs)
        tracer = Tracer(run_id="mp")
        with activate(tracer):
            traced = run_sweep(**kwargs)
        assert _trial_rows(traced) == _trial_rows(plain)
        assert _trial_rows(traced) == _trial_rows(run_sweep(**dict(kwargs, workers=1)))
        events = tracer.events()
        shards = {e.get("shard") for e in events}
        assert shards >= {0, 1}  # child traces were absorbed
        # Every trial range ran under its own shard span, in range order.
        ranges = [(e["meta"]["offset"], e["meta"]["trials"])
                  for e in events if e["name"] == "sweep.shard"]
        assert [offset for offset, _ in ranges] == sorted(offset for offset, _ in ranges)
        assert sum(count for _, count in ranges) == 6
        # Deterministic merge order: parent (None -> -1) first, then shards
        # in index order, each in its own sequence order.
        keys = [(-1 if e.get("shard") is None else e["shard"],
                 e.get("seq", 0)) for e in events]
        assert keys == sorted(keys)
        if engine == "vectorized":
            # Worker plane counters folded into the parent totals.
            assert any(name.startswith("plane.") for name in tracer.counters)

    def test_store_keys_identical_with_tracing(self):
        spec = SweepSpec(name="keys", protocols=("committee-ba",),
                         adversaries=("null", "static"), n_values=(17,),
                         t_specs=("quarter",), trials=2, base_seed=9)
        plain = [key for _, key in spec_keys(spec)]
        with activate(Tracer(run_id="keys")):
            traced = [key for _, key in spec_keys(spec)]
        assert traced == plain

    def test_span_ordering_is_deterministic_under_compaction(self):
        # committee-ba under coin-attack decides trials at different phases,
        # which drives the engine's batch compaction; the traced event
        # sequence (minus clock fields) must be identical run-to-run.
        experiment = AgreementExperiment(n=48, t=8, protocol="committee-ba",
                                         adversary="coin-attack", inputs="split")
        streams = []
        for _ in range(2):
            tracer = Tracer(run_id="compaction")
            with activate(tracer):
                run_sweep(experiment=experiment, trials=6, base_seed=0,
                          engine="vectorized")
            streams.append([_strip_timing(e) for e in tracer.events()])
        assert streams[0] == streams[1]
        assert any(e["name"] == "engine.compaction" for e in streams[0])


class TestHookSpans:
    def test_kernel_hooks_nest_in_their_stage_spans(self):
        # Every PhaseEngine hook call is an engine.hook.<hook> span inside
        # the stage span of the same name, naming the kernel class, so the
        # trace report splits the straddle off engine.round2's self time.
        experiment = AgreementExperiment(n=64, t=8, protocol="committee-ba",
                                         adversary="coin-attack", inputs="split")
        tracer = Tracer(run_id="hooks")
        with activate(tracer):
            run_sweep(experiment=experiment, trials=8, base_seed=3,
                      engine="vectorized")
        events = tracer.events()
        spans = {e["seq"]: e for e in events if e["event"] == "span"}
        hooks = [e for e in spans.values() if e["name"].startswith("engine.hook.")]
        assert {e["name"] for e in hooks} == {
            "engine.hook.setup", "engine.hook.round1",
            "engine.hook.pre_coin", "engine.hook.round2",
        }
        for hook in hooks:
            stage = spans[hook["parent"]]["name"]
            assert stage == hook["name"].replace("engine.hook.", "engine.")
            assert hook["meta"] == {"kernel": "StraddleKernel"}
        stages = trace_breakdown(events)["stages"]
        assert stages["engine.hook.round2"]["calls"] == stages["engine.round2"]["calls"]
        assert stages["engine.round2"]["self_ns"] < stages["engine.round2"]["cum_ns"]


class TestDrawSpans:
    def test_random_input_rows_are_one_bit_draw_and_no_share_draw(self):
        # Phase king flips no coin: its one bit draw is the batch's random
        # input rows, at set-up inside the sweep span.
        experiment = AgreementExperiment(n=32, t=6, protocol="phase-king",
                                         adversary="null", inputs="random")
        tracer = Tracer(run_id="input-bits")
        with activate(tracer):
            run_sweep(experiment=experiment, trials=4, base_seed=7, engine="vectorized")
        spans = {e["seq"]: e for e in tracer.events() if e["event"] == "span"}
        (bits,) = [e for e in spans.values() if e["name"] == "engine.draw.bits"]
        assert spans[bits["parent"]]["name"] == "sweep.vectorized"
        assert bits["meta"]["running"] == 4
        assert not [e for e in spans.values() if e["name"] == "engine.draw.shares"]


class TestAggregation:
    def _events(self):
        header = {"event": "trace", "schema": 1, "run_id": "agg"}
        spans = [
            {"event": "span", "name": "root", "seq": 0, "parent": None,
             "shard": None, "start_ns": 0, "duration_ns": 100},
            {"event": "span", "name": "stage", "seq": 1, "parent": 0,
             "shard": None, "start_ns": 10, "duration_ns": 60},
            {"event": "span", "name": "stage", "seq": 2, "parent": 1,
             "shard": None, "start_ns": 20, "duration_ns": 15},
        ]
        counter = {"event": "counter", "name": "ops", "value": 7, "shard": None}
        return [header, *spans, counter]

    def test_self_and_cumulative_time(self):
        breakdown = trace_breakdown(self._events())
        assert breakdown["wall_ns"] == 100  # the single parent root span
        root = breakdown["stages"]["root"]
        assert root == {"calls": 1, "cum_ns": 100, "self_ns": 40}
        stage = breakdown["stages"]["stage"]
        # Two calls: the outer one excludes its nested child, the inner one
        # has no children -> cum 75, self (60 - 15) + 15 = 60.
        assert stage == {"calls": 2, "cum_ns": 75, "self_ns": 60}
        assert breakdown["counters"] == {"ops": 7}

    def test_stage_and_counter_rows(self):
        rows = stage_rows(self._events())
        assert [row["stage"] for row in rows] == ["root", "stage"]
        assert rows[0]["cum_share"] == 1.0
        assert counter_rows(self._events()) == [{"counter": "ops", "value": 7}]

    def test_worker_only_trace_uses_worker_roots_for_wall(self):
        header = {"event": "trace", "schema": 1, "run_id": "w"}
        span = {"event": "span", "name": "s", "seq": 0, "parent": None,
                "shard": 2, "start_ns": 0, "duration_ns": 50}
        assert trace_breakdown([header, span])["wall_ns"] == 50


class TestObjectTraceExport:
    def test_object_round_events_validate(self, tmp_path):
        result = run_agreement(n=19, t=4, seed=3, collect_trace=True)
        tracer = Tracer(run_id="object")
        for event in object_trace_events(result.trace):
            tracer.emit(event)
        path = write_trace(tracer, tmp_path / "object.jsonl")
        events = read_trace(path)
        rounds = [e for e in events if e["event"] == "object_round"]
        assert len(rounds) == len(result.trace.records)
        assert rounds[0]["round"] == result.trace.records[0].round_index
        summary = [e for e in events if e["event"] == "object_summary"]
        assert len(summary) == 1
        assert summary[0]["rounds"] == result.trace.summary()["rounds"]


class TestCacheCounters:
    def test_run_spec_counts_misses_then_hits(self, tmp_path):
        spec = SweepSpec(name="cache", protocols=("committee-ba",),
                         adversaries=("null",), n_values=(17,),
                         t_specs=("quarter",), trials=2, base_seed=1)
        store = ResultsStore(tmp_path / "store")
        first = run_spec(spec, store=store)
        assert (first.cache_hits, first.cache_misses) == (0, 1)
        second = run_spec(spec, store=store)
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert "store cache: 1 hits, 0 misses" in second.cache_line()
        status = status_spec(spec, store=store)
        assert (status.cache_hits, status.cache_misses) == (1, 0)

    def test_counters_feed_the_active_tracer(self, tmp_path):
        spec = SweepSpec(name="cache", protocols=("committee-ba",),
                         adversaries=("null",), n_values=(17,),
                         t_specs=("quarter",), trials=2, base_seed=1)
        store = ResultsStore(tmp_path / "store")
        tracer = Tracer(run_id="cache")
        with activate(tracer):
            run_spec(spec, store=store)
        assert tracer.counter_value("store.cache_miss") == 1
        assert tracer.counter_value("store.write") == 1
        assert any(e["name"] == "sweep.point" for e in tracer.events())


class TestPhasesFallback:
    def test_missing_phases_reports_none_and_renders_dash(self):
        result = run_agreement(n=16, t=3, adversary="null", seed=0)
        result.extra.pop("phases", None)
        row = collect_run_metrics(result)
        assert row["phases"] is None
        rendered = format_table([row])
        assert "-" in rendered.splitlines()[-1]

    def test_reported_phases_pass_through(self):
        result = run_agreement(n=16, t=3, adversary="null", seed=0)
        if "phases" not in result.extra:
            result.extra["phases"] = 5
        assert collect_run_metrics(result)["phases"] == result.extra["phases"]


class TestTraceCli:
    def test_trials_trace_flag_writes_and_reports(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        code = main(["trials", "--n", "16", "--t", "3", "--trials", "3",
                     "--seed", "5", "--trace"])
        output = capsys.readouterr().out
        assert code == 0
        assert "trace written: " in output
        path = output.rsplit("trace written: ", 1)[1].split(" (")[0]
        code = main(["trace", "report", path])
        report = capsys.readouterr().out
        assert code == 0
        assert "per-stage breakdown" in report
        assert "cli.trials" in report
        code = main(["trace", "validate", path])
        assert code == 0
        assert "valid trace" in capsys.readouterr().out

    def test_trace_env_variable_enables_tracing(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE", "1")
        code = main(["trials", "--n", "16", "--t", "3", "--trials", "2",
                     "--seed", "5"])
        assert code == 0
        assert "trace written: " in capsys.readouterr().out

    def test_run_trace_exports_object_rounds(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        code = main(["run", "--n", "19", "--t", "4", "--seed", "3", "--trace"])
        output = capsys.readouterr().out
        assert code == 0
        path = output.rsplit("trace written: ", 1)[1].split(" (")[0]
        events = read_trace(path)
        assert any(e["event"] == "object_round" for e in events)
        main(["trace", "report", path])
        assert "object rounds recorded" in capsys.readouterr().out

    def test_sweep_run_prints_cache_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        spec = SweepSpec(name="cli-cache", protocols=("committee-ba",),
                         adversaries=("null",), n_values=(17,),
                         t_specs=("quarter",), trials=2, base_seed=1)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        store = str(tmp_path / "store")
        code = main(["sweep", "run", str(spec_path), "--store", store,
                     "--quiet", "--trace"])
        output = capsys.readouterr().out
        assert code == 0
        assert "store cache: 0 hits, 1 misses" in output
        assert "trace written: " in output
        code = main(["sweep", "status", str(spec_path), "--store", store])
        assert code == 0
        assert "store cache: 1 hits, 0 misses" in capsys.readouterr().out

    def test_trace_report_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"event": "span"}) + "\n")
        code = main(["trace", "report", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
