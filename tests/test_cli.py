"""Tests for the command-line interface."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import native
from repro.cli import build_parser, main
from repro.engine import run_sweep
from repro.observability import read_trace
from repro.sweeps import get_spec


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.n == 64 and args.t == 12
        assert args.protocol == "committee-ba"
        assert args.adversary == "coin-attack"

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "nope"])

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trials_engine_defaults_to_auto(self):
        # The dispatch registry's choice is the default; `object` stays
        # reachable explicitly (covered in TestCommands below).
        args = build_parser().parse_args(["trials"])
        assert args.engine == "auto"


class TestCommands:
    def test_run_command_prints_metrics_and_succeeds(self, capsys):
        code = main(["run", "--n", "19", "--t", "4", "--seed", "3", "--trace"])
        output = capsys.readouterr().out
        assert code == 0
        assert "rounds" in output and "agreement" in output

    def test_run_command_with_null_adversary(self, capsys):
        code = main(["run", "--n", "16", "--t", "3", "--adversary", "null",
                     "--inputs", "unanimous-1"])
        assert code == 0
        assert "yes" in capsys.readouterr().out

    def test_trials_command_defaults_to_the_fast_path(self, capsys):
        # Default --engine auto: committee-ba/coin-attack has a kernel, so
        # the CLI takes the vectorized fast path without being asked.
        code = main(["trials", "--n", "16", "--t", "3", "--trials", "3", "--seed", "5"])
        output = capsys.readouterr().out
        assert code == 0
        assert "agreement_rate" in output
        assert "mean_rounds" in output
        assert "vectorized" in output

    def test_trials_command_object_engine_stays_reachable(self, capsys):
        code = main(["trials", "--n", "16", "--t", "3", "--trials", "3",
                     "--seed", "5", "--engine", "object"])
        output = capsys.readouterr().out
        assert code == 0
        assert "object" in output and "vectorized" not in output

    @pytest.mark.parametrize("engine", ["vectorized", "object"])
    def test_trials_workers_shard_under_either_engine(self, tmp_path, capsys,
                                                      monkeypatch, engine):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        argv = ["trials", "--n", "16", "--t", "3", "--trials", "4", "--seed", "5",
                "--engine", engine]
        assert main([*argv, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--workers", "2", "--trace"]) == 0
        output = capsys.readouterr().out
        table, trace_line = output.rsplit("trace written: ", 1)
        assert table == serial
        events = read_trace(trace_line.split(" (")[0])
        (span,) = [e for e in events if e.get("name") == f"sweep.{engine}"]
        assert span["meta"]["workers"] == 2

    def test_experiment_command_quick(self, capsys):
        code = main(["experiment", "e7"])
        output = capsys.readouterr().out
        assert code == 0
        assert "E7" in output

    def test_experiment_command_unknown_id(self, capsys):
        code = main(["experiment", "E99"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: unknown experiment 'E99'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["trials", "--loss", "1.0"], "loss must be a probability"),
        (["trials", "--loss", "-0.1"], "loss must be a probability"),
        (["trials", "--loss", "nan"], "loss must be a probability"),
        (["trials", "--n", "64", "--t", "30"], "t < n/3"),
        (["run", "--n", "64", "--t", "30"], "t < n/3"),
        (["run", "--loss", "1.0"], "loss must be a probability"),
        (["sweep", "run", "no-such-spec"], "unknown sweep spec"),
        (["trials", "--n", "64", "--t", "8", "--trials", "3", "--seed", "-1"],
         "seed must be in [0, 2**64)"),
        (["trials", "--n", "64", "--t", "8", "--trials", "3",
          "--seed", "18446744073709551616"], "seed must be in [0, 2**64)"),
        (["run", "--n", "13", "--t", "3", "--seed", "-1"], "seed must be in [0, 2**64)"),
        (["trials", "--n", "13", "--t", "3", "--trials", "3", "--engine", "object",
          "--seed", "-1"], "seed must be in [0, 2**64)"),
        (["trials", "--workers", "-2"], "workers must be >= 1, got -2"),
        *(
            ([command, "--n", "13", "--t", "3", "--alpha", alpha],
             "alpha must be a finite positive number")
            for command in ("trials", "run")
            for alpha in ("nan", "inf", "-1", "0")
        ),
    ])
    def test_configuration_errors_print_one_line_and_exit_2(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize("adaptive", [False, True], ids=["uniform", "adaptive"])
    @pytest.mark.parametrize("flag,message", [
        (["--limit", "-1"], "limit must be >= 0, got -1"),
        (["--workers", "0"], "workers must be >= 1, got 0"),
    ], ids=["limit", "workers"])
    def test_bad_sweep_run_counts_print_one_line_and_exit_2(
        self, tmp_path, capsys, adaptive, flag, message
    ):
        spec = "smoke"
        if adaptive:
            spec_path = tmp_path / "smoke-adaptive.json"
            spec_path.write_text(dataclasses.replace(
                get_spec("smoke"), name="smoke-adaptive", precision=0.4,
            ).to_json(), encoding="utf-8")
            spec = str(spec_path)
        store = tmp_path / "store"
        code = main(["sweep", "run", spec, *flag, "--store", str(store)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not any(store.rglob("*.jsonl"))

    def test_failed_runs_print_one_line_and_exit_1(self, capsys):
        # Valid arguments, but Ben-Or at n=64, t=8 outruns its round cap and
        # the CLI does not accept censored trials.
        code = main(["trials", "--n", "64", "--t", "8", "--trials", "2",
                     "--protocol", "ben-or", "--adversary", "null"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ben-or sweep exceeded its round cap")
        assert captured.err.count("\n") == 1  # one line, no traceback

    #: Ben-Or under the coin attack at n=13 runs some split-input trials to
    #: its round cap on either family.
    CAPPED = ["trials", "--n", "13", "--t", "3", "--protocol", "ben-or",
              "--adversary", "coin-attack", "--inputs", "split", "--trials", "8"]

    @pytest.mark.parametrize("engine", ["vectorized", "object"])
    def test_round_cap_error_names_the_allow_timeout_flag(self, capsys, engine):
        code = main([*self.CAPPED, "--engine", engine])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert captured.err.rstrip("\n").endswith(
            "; --allow-timeout keeps such trials as censored rows"
        )
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("engine", ["vectorized", "object"])
    def test_allow_timeout_reports_censored_trials(self, capsys, engine):
        main([*self.CAPPED, "--engine", engine, "--allow-timeout"])
        captured = capsys.readouterr()
        assert captured.err == ""
        header, _, row = captured.out.splitlines()
        table = dict(zip((cell.strip() for cell in header.split("|")),
                         (cell.strip() for cell in row.split("|"))))
        assert table["engine"] == engine
        assert table["trials"] == "8"
        assert float(table["timeout_rate"]) > 0

    def test_engines_command_prints_support_and_dispatch_tables(self, capsys):
        code = main(["engines"])
        output = capsys.readouterr().out
        assert code == 0
        assert "per-protocol engine support" in output
        assert "protocol x adversary dispatch" in output
        # Per-protocol rows name the kernel serving each baseline.
        assert "dealer-coin" in output
        assert "private-coin" in output
        assert "eig-tree" in output
        # The dispatch table records the validation mode of fast-path pairs.
        assert "statistical" in output and "exact" in output

    def test_engines_footer_names_both_draw_kernels_and_why(self, capsys, tmp_path,
                                                            monkeypatch):
        assert main(["engines"]) == 0
        kernel, detail = native.status()
        assert capsys.readouterr().out.splitlines()[-2:] == [
            f"loss draws: {kernel} ({detail})", f"share draws: {kernel} ({detail})"
        ]
        lossy = dict(protocol="committee-ba", adversary="null", trials=4, base_seed=3,
                     loss=0.05, engine="vectorized")
        coin = dict(protocol="committee-ba", adversary="coin-attack", trials=4, base_seed=3,
                    engine="vectorized")
        rows = run_sweep(24, 3, **lossy).trials, run_sweep(24, 3, **coin).trials
        # No compiler: both lines name NumPy and the reason, and lossy and
        # coin sweeps keep their rows.
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "_handle", None)
        assert main(["engines"]) == 0
        fallback = "numpy (no C compiler (cc, gcc, clang) on PATH)"
        assert capsys.readouterr().out.splitlines()[-2:] == [
            f"loss draws: {fallback}", f"share draws: {fallback}"
        ]
        assert (run_sweep(24, 3, **lossy).trials, run_sweep(24, 3, **coin).trials) == rows
        assert not (tmp_path / "repro").exists()

    def test_engines_markdown_emits_the_marked_blocks(self, capsys):
        from repro.engine import markdown_engine_tables

        code = main(["engines", "--markdown"])
        output = capsys.readouterr().out
        assert code == 0
        blocks = markdown_engine_tables()
        assert blocks["kernel-support"] in output
        assert blocks["dispatch"] in output

    def test_trials_command_dispatches_adversary_kernel(self, capsys):
        code = main(["trials", "--n", "19", "--t", "3", "--trials", "3",
                     "--adversary", "committee-targeting", "--engine", "auto"])
        output = capsys.readouterr().out
        assert code == 0
        assert "vectorized" in output

    def test_trials_command_dispatches_baseline_kernel(self, capsys):
        code = main(["trials", "--n", "17", "--t", "4", "--trials", "3",
                     "--protocol", "phase-king", "--adversary", "static",
                     "--engine", "auto"])
        output = capsys.readouterr().out
        assert code == 0
        assert "vectorized" in output


class TestClosedPipe:
    """Output into a pipe whose reader has gone ends quietly, as `| head` expects."""

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_exit_141_without_a_traceback(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            child = subprocess.run(
                [sys.executable, "-m", "repro", "engines"], stdout=write_end,
                stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr.decode()) == (141, "")
