"""Smoke tests for the example applications.

Each example is imported as a module and its ``main`` function executed with a
very small configuration, so that the examples never rot as the library
evolves.  Output is captured by pytest; these tests only assert that the
examples run to completion without raising.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


def _load(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_directory_contains_expected_scripts(self):
        names = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
        assert {"quickstart", "adaptive_vs_static", "protocol_comparison",
                "common_coin_demo", "early_termination"} <= names

    def test_quickstart(self, capsys):
        _load("quickstart").main(n=22, t=4, seed=3)
        output = capsys.readouterr().out
        assert "decision" in output
        assert "agreement/validity: True/True" in output

    def test_adaptive_vs_static(self, capsys):
        _load("adaptive_vs_static").main(n=22, t=5, trials=2)
        output = capsys.readouterr().out
        assert "adaptive" in output.lower()

    def test_protocol_comparison(self, capsys):
        _load("protocol_comparison").main(n=22, trials=2)
        output = capsys.readouterr().out
        assert "chor_coan_rounds" in output

    def test_common_coin_demo(self, capsys):
        _load("common_coin_demo").main(trials=30)
        output = capsys.readouterr().out
        assert "P(common)" in output

    def test_early_termination(self, capsys):
        _load("early_termination").main(n=22, t=7, trials=2)
        output = capsys.readouterr().out
        assert "paper_prediction_at_q" in output
