"""Shared pytest fixtures for the repro test-suite."""

from __future__ import annotations

import pytest

from repro.engine import run_sweep
from repro.observability import Tracer, activate
from repro.simulator.rng import RandomnessSource


@pytest.fixture
def randomness() -> RandomnessSource:
    """A deterministic randomness source shared by simulator-level tests."""
    return RandomnessSource(seed=1234)


@pytest.fixture
def node_rng(randomness: RandomnessSource):
    """A single node-level random stream."""
    return randomness.node_stream(0)


@pytest.fixture
def traced_sweep():
    """Run :func:`repro.engine.run_sweep` under a tracer.

    Returns a callable giving ``(result, workers)``: the sweep result and the
    ``workers`` meta of its ``sweep.<family>`` span — the process count the
    sweep actually ran on.
    """

    def run(*args, **kwargs):
        tracer = Tracer(run_id="traced-sweep")
        with activate(tracer):
            result = run_sweep(*args, **kwargs)
        (span,) = [e for e in tracer.events() if e["name"] == f"sweep.{result.engine}"]
        return result, span["meta"]["workers"]

    return run
