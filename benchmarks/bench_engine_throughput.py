"""Micro-benchmarks of the execution engines.

Not tied to a paper claim; these measure the cost of protocol executions in
the object-level simulator, the single-trial vectorised engine and the
batched vectorised engine, which is what determines how large a sweep the
experiment harness can afford.  The single-run benchmarks use
pytest-benchmark's statistical timing (multiple rounds); the batched-sweep
comparison times each engine end to end and asserts both the speedup floor
and bit-for-bit result identity.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.inputs import input_row
from repro.core.parameters import ProtocolParameters
from repro.core.runner import default_max_rounds, run_agreement
from repro.engine import run_sweep
from repro.simulator.draws import TrialStreams, trial_generator
from repro.simulator.vectorized import (
    VectorizedAgreementSimulator,
    build_vectorized_simulator,
    run_vectorized_trials,
)

#: The batched-sweep comparison configuration (trials, n, t).  t = n/8 sits in
#: the middle of the adversary budgets the experiments sweep.
SWEEP_TRIALS = 100
SWEEP_N = 2000
SWEEP_T = 250

#: Regression floor for the batched speedup.  Typical measurements are 5.5-6.5x
#: (the per-trial Philox draws that batching cannot amortise are the bound);
#: the floor leaves headroom for noisy CI machines.
MIN_BATCH_SPEEDUP = 3.5

#: Regression floor for the bit-packed plane backend against the numpy-bool
#: reference on the same sweep.  The word ops themselves are 4-5x cheaper
#: (see ``bench_planeops.py``), but the end-to-end run is bounded by the
#: per-trial Philox share draws, leaving ~1.2-1.3x measured; the floor only
#: demands that packed never regresses below parity.
MIN_PACKED_SPEEDUP = 1.0

#: The many-trials configuration (trials, n, t): committee-ba without an
#: adversary, where per-trial randomness plumbing, not plane work, is the cost.
MANY_TRIALS = 20_000
MANY_N = 64
MANY_T = 8

#: Floor for cursor streams (one share draw per phase: compiled, or the
#: vectorised NumPy pass without a compiler) over one Generator per trial on
#: the many-trials configuration.  The NumPy pass measured ~3x on 2 vCPUs;
#: 2x is the target it was built to.
MIN_STREAM_SPEEDUP = 2.0


def test_object_engine_single_run(benchmark):
    """One attacked execution at n=48 in the faithful object-level simulator."""

    def run_once():
        return run_agreement(
            n=48, t=10, protocol="committee-ba-las-vegas", adversary="coin-attack",
            inputs="split", seed=5,
        )

    result = benchmark(run_once)
    assert result.agreement


def test_vectorized_engine_single_run(benchmark):
    """One attacked execution at n=1024 in the vectorised engine."""
    params = ProtocolParameters.derive(1024, 64)
    simulator = VectorizedAgreementSimulator(
        n=1024, t=64, params=params, adversary="coin-attack",
        max_phases=default_max_rounds("committee-ba-las-vegas", 1024, 64) // 2,
    )
    inputs = np.zeros(1024, dtype=np.int8)
    inputs[512:] = 1

    def run_once():
        return simulator.run(inputs, TrialStreams(11, 0, 1))

    result = benchmark(run_once)
    assert result.agreement


def test_batched_vs_per_trial_loop_speedup():
    """The batched engine must beat the seed's per-trial loop by a wide margin.

    Runs the same ``trials=100, n=2000`` sweep through ``run_batch`` (the
    default) and through the per-trial loop the seed shipped, checks the two
    produce *identical* per-trial results on the same ``(seed, k)`` Philox
    keys, and prints the measured speedup.
    """
    kwargs = dict(
        protocol="committee-ba-las-vegas", adversary="coin-attack", inputs="split",
        trials=SWEEP_TRIALS, seed=17,
    )
    timings = {}
    for label, batch, repeats in (("batched", True, 3), ("per-trial loop", False, 2)):
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            rows = run_vectorized_trials(SWEEP_N, SWEEP_T, batch=batch, **kwargs)
            best = min(best, time.perf_counter() - started)
        timings[label] = (best, rows)

    batched_s, batched = timings["batched"]
    loop_s, loop = timings["per-trial loop"]
    assert batched == loop, "batched results must be bit-identical"
    speedup = loop_s / batched_s
    mean_phases = statistics.fmean(row.phases for row in batched)
    print(
        f"\nengine sweep (trials={SWEEP_TRIALS}, n={SWEEP_N}, t={SWEEP_T}): "
        f"batched {batched_s * 1000:.1f} ms, per-trial loop {loop_s * 1000:.1f} ms, "
        f"speedup {speedup:.2f}x (identical results, mean phases {mean_phases:.1f})"
    )
    from benchmarks.harness import update_summary

    update_summary(
        "engine-throughput/committee-batched",
        {
            "kind": "throughput",
            "protocol": "committee-ba-las-vegas",
            "adversary": "coin-attack",
            "n": SWEEP_N,
            "t": SWEEP_T,
            "trials": SWEEP_TRIALS,
            "batched_seconds": batched_s,
            "per_trial_loop_seconds": loop_s,
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batched engine only {speedup:.2f}x faster than the per-trial loop "
        f"(floor {MIN_BATCH_SPEEDUP}x)"
    )


def test_packed_backend_bit_identical_and_not_slower():
    """The packed plane backend on the engine-throughput sweep.

    Runs the exact ``trials=100, n=2000`` sweep of the batched-speedup test
    under the ``numpy`` reference backend and the ``packed`` uint64 backend
    on the same ``(seed, k)`` Philox keys, asserts the per-trial results are
    bit-identical, and records the measured packed speedup as a floor.
    """
    kwargs = dict(
        protocol="committee-ba-las-vegas", adversary="coin-attack", inputs="split",
        trials=SWEEP_TRIALS, seed=17,
    )
    timings = {}
    for backend in ("numpy", "packed"):
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            rows = run_vectorized_trials(SWEEP_N, SWEEP_T, backend=backend, **kwargs)
            best = min(best, time.perf_counter() - started)
        timings[backend] = (best, rows)

    numpy_s, reference = timings["numpy"]
    packed_s, packed = timings["packed"]
    assert packed == reference, (
        "the packed backend must be bit-identical to the numpy reference"
    )
    speedup = numpy_s / packed_s
    print(
        f"\npacked backend (trials={SWEEP_TRIALS}, n={SWEEP_N}, t={SWEEP_T}): "
        f"numpy {numpy_s * 1000:.1f} ms, packed {packed_s * 1000:.1f} ms, "
        f"speedup {speedup:.2f}x (identical results)"
    )
    from benchmarks.harness import update_summary

    update_summary(
        "engine-throughput/packed-backend",
        {
            "kind": "throughput",
            "protocol": "committee-ba-las-vegas",
            "adversary": "coin-attack",
            "n": SWEEP_N,
            "t": SWEEP_T,
            "trials": SWEEP_TRIALS,
            "numpy_seconds": numpy_s,
            "packed_seconds": packed_s,
            "speedup": speedup,
            "bit_identical": True,
        },
    )
    assert speedup >= MIN_PACKED_SPEEDUP, (
        f"packed backend ran {speedup:.2f}x the numpy reference "
        f"(floor {MIN_PACKED_SPEEDUP}x)"
    )


def test_trial_streams_vs_per_row_generators_speedup():
    """Bulk share draws against one generator per trial.

    Runs the many-trials batch through ``run_batch`` on cursor streams
    (``TrialStreams(seed, 0, trials)``: the shares of every running trial in
    one Philox draw per phase, native or NumPy) and on per-row generators
    (``TrialStreams.of([trial_generator(seed, k) ...])``: one ``integers``
    call per trial per phase).  Building each side's streams is timed with
    it.  Asserts identical per-trial results and the speedup floor.
    """
    seed = 29
    simulator = build_vectorized_simulator(
        MANY_N, MANY_T, protocol="committee-ba", adversary="null"
    )
    inputs = np.tile(input_row(MANY_N, "split"), (MANY_TRIALS, 1))
    sides = {
        "cursor streams": lambda: TrialStreams(seed, 0, MANY_TRIALS),
        "per-row generators": lambda: TrialStreams.of(
            [trial_generator(seed, k) for k in range(MANY_TRIALS)]
        ),
    }
    timings = {label: float("inf") for label in sides}
    results = {}
    for _ in range(3):  # alternate the sides, keep each side's best
        for label, streams in sides.items():
            started = time.perf_counter()
            results[label] = simulator.run_batch(inputs, streams())
            timings[label] = min(timings[label], time.perf_counter() - started)

    assert results["cursor streams"] == results["per-row generators"], (
        "cursor streams must be bit-identical to per-row generators"
    )
    cursor_s, generators_s = timings["cursor streams"], timings["per-row generators"]
    speedup = generators_s / cursor_s
    print(
        f"\ntrial streams (trials={MANY_TRIALS}, n={MANY_N}, t={MANY_T}): "
        f"cursor {cursor_s * 1000:.1f} ms, per-row generators {generators_s * 1000:.1f} ms, "
        f"speedup {speedup:.2f}x (identical results)"
    )
    from benchmarks.harness import update_summary

    update_summary(
        "engine-throughput/trial-streams",
        {
            "kind": "throughput",
            "protocol": "committee-ba",
            "adversary": "null",
            "n": MANY_N,
            "t": MANY_T,
            "trials": MANY_TRIALS,
            "cursor_seconds": cursor_s,
            "per_row_generator_seconds": generators_s,
            "speedup": speedup,
            "bit_identical": True,
        },
    )
    assert speedup >= MIN_STREAM_SPEEDUP, (
        f"cursor streams only {speedup:.2f}x faster than per-row generators "
        f"(floor {MIN_STREAM_SPEEDUP}x)"
    )


def test_run_sweep_batched_dispatch(benchmark):
    """End-to-end `repro.engine.run_sweep` on the batched fast path."""

    def run_once():
        return run_sweep(
            SWEEP_N, SWEEP_T, protocol="committee-ba-las-vegas",
            adversary="coin-attack", inputs="split", trials=25, base_seed=23,
        )

    result = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert result.engine == "vectorized"
    assert result.agreement_rate == 1.0


def test_common_coin_single_round(benchmark):
    """One round of the standalone common coin (Algorithm 1) at n=64 under attack."""
    from repro.adversary.strategies.coin_attack import CoinAttackAdversary
    from repro.core.common_coin import run_common_coin

    def run_once():
        return run_common_coin(64, CoinAttackAdversary(4), seed=3)

    outcome = benchmark(run_once)
    assert outcome.outputs
