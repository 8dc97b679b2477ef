"""Shared pytest fixtures for the repro test-suite."""

from __future__ import annotations

import pytest

from repro import native
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


@pytest.fixture(params=["native", "numpy"])
def native_kernel(request, monkeypatch):
    """Run the test once per draw kernel; the value names the kernel.

    ``numpy`` sets :mod:`repro.native`'s one handle to a failure reason, so
    loss planes take the NumPy loss kernel and coin bits the NumPy pass or
    the generators.  ``native`` installs the compiled draws, building them
    if the cache lacks them: the case skips only when no C compiler is on
    ``PATH`` and fails when one is but the build does not succeed.
    """
    if request.param == "numpy":
        monkeypatch.setattr(native, "_handle", "the NumPy draws, picked by the test")
        return "numpy"
    if native.find_compiler() is None:
        pytest.skip("no C compiler on PATH to build the native draws")
    monkeypatch.setattr(native, "_handle", None)
    assert native.kernel() is not None, f"the native draws did not build: {native._handle}"
    return "native"
