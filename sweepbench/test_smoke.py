"""Smoke test: every workload runs at tiny sizes and prints every metric.

Run with ``python -m pytest sweepbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "sweepbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    run = _run(ROOT, workload, trace)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    for metric in declared:
        assert any(
            line.startswith(f"# {workload} {metric['name']} = ")
            and line.endswith(f" {metric['unit']}")
            for line in lines
        ), metric["name"]
    assert any(line.startswith(f"# {workload} failed_frac = 0 frac") for line in lines)
    if trace:
        assert result["metrics"]["trace.attributed_frac"]["value"] > 0.0


def test_fails_without_the_program_source(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "sweepbench", ignore=shutil.ignore_patterns("__pycache__"))
    run = _run(tmp_path, "clique-attack", 0)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
