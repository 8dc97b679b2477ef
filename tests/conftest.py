"""Shared pytest fixtures for the repro test-suite."""

from __future__ import annotations

import pytest

import repro.topology.loss as loss_module
from repro.engine import run_sweep
from repro.observability import Tracer, activate
from repro.simulator.rng import RandomnessSource
from repro.topology import native


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


@pytest.fixture(params=["native", "numpy"])
def loss_kernel(request, monkeypatch):
    """Run the test once per loss-draw kernel; the value names the kernel.

    ``numpy`` sets :mod:`repro.topology.loss`'s kernel handle to a failure
    reason, so every plane takes the NumPy kernel.  ``native`` installs the
    compiled kernel, building it if the cache lacks it: the case skips only
    when no C compiler is on ``PATH`` and fails when one is but the build
    does not succeed.
    """
    if request.param == "numpy":
        monkeypatch.setattr(loss_module, "_native", "the NumPy kernel, picked by the test")
        return "numpy"
    if native.find_compiler() is None:
        pytest.skip("no C compiler on PATH to build the native loss kernel")
    monkeypatch.setattr(loss_module, "_native", None)
    assert loss_module._native_kernel() is not None, (
        f"the native loss kernel did not build: {loss_module._native}"
    )
    return "native"
