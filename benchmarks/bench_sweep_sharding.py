"""Sharded-vectorized executor: exactness and multi-core speedup.

``run_sweep(..., workers=W)`` splits a batched sweep's trial counter range
into contiguous per-worker sub-batches (each running on the sweep's global
``(seed, k)`` Philox keys via the kernels' ``trial_offset`` contract) and
concatenates the rows in range order.  This benchmark
asserts the contract — sharded results must equal single-process vectorized
results *bit for bit*, per trial — and measures the multi-core speedup,
recording both into ``benchmarks/results/summary.json``.

The speedup divides the sharded wall by the wall of the *same per-shard
trial ranges* run back to back in this process, so both sides pay each
shard's fixed per-phase cost and the ratio measures the pool alone: a pool
that ran its ranges one after another would score ~1x.  (Dividing by one
whole-range call instead credits the pool with the batching it forgoes, and
the ratio then moves with every change to the engine's per-row cost.)

The speedup floor is only asserted when the machine actually has multiple
cores (CI runners do; a single-core container can still verify exactness,
and its recorded speedup documents the degenerate case).
"""

from __future__ import annotations

import os
import time

from repro.engine import run_sweep
from repro.observability import Tracer, activate

#: The sharding comparison configuration; big enough (~1.5 s single-process)
#: that process startup is amortised on a multi-core machine.
SWEEP_TRIALS = 384
SWEEP_N = 3000
SWEEP_T = 400

#: Speedup floor asserted on machines with >= 4 cores (the acceptance bar
#: for the sharded executor); with W workers the ideal is ~min(W, cores)x.
#: On 2-3 core machines a scaled floor (0.75x per core) applies instead,
#: since the ideal there is below or barely at 2x.
MIN_SHARD_SPEEDUP = 2.0

#: Timed runs per side; the speedup divides the two sides' fastest runs.
SPEEDUP_REPEATS = 5


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_sharded_vectorized_is_bit_identical_and_faster():
    """workers=W == in-process per trial; >= 2x its ranges on multi-core machines."""
    cores = _available_cores()
    workers = max(2, cores)
    kwargs = dict(
        protocol="committee-ba-las-vegas", adversary="coin-attack",
        inputs="split", base_seed=29,
    )

    # One untimed traced call shows the pool size the sharded runs use and,
    # in its sweep.shard spans, the trial range each shard ran.
    tracer = Tracer(run_id="sweep-sharding")
    with activate(tracer):
        run_sweep(SWEEP_N, SWEEP_T, engine="vectorized", workers=workers,
                  trials=SWEEP_TRIALS, **kwargs)
    (span,) = [e for e in tracer.events() if e["name"] == "sweep.vectorized"]
    assert span["meta"]["workers"] == workers
    ranges = [
        (e["meta"]["offset"], e["meta"]["trials"])
        for e in tracer.events() if e["name"] == "sweep.shard"
    ]
    assert len(ranges) == workers
    assert sum(count for _, count in ranges) == SWEEP_TRIALS

    def in_process_ranges():
        rows = []
        for offset, count in ranges:
            rows.extend(run_sweep(
                SWEEP_N, SWEEP_T, engine="vectorized", workers=1,
                trials=count, trial_offset=offset, **kwargs,
            ).trials)
        return rows

    def sharded():
        return run_sweep(SWEEP_N, SWEEP_T, engine="vectorized", workers=workers,
                         trials=SWEEP_TRIALS, **kwargs)

    # The whole range in process: the identity reference, and the warm-up.
    single = run_sweep(SWEEP_N, SWEEP_T, engine="vectorized", workers=1,
                       trials=SWEEP_TRIALS, **kwargs)

    # The sides alternate, and each keeps its fastest run: on a shared host
    # slow stretches come from outside the process, so the fastest run is
    # the one least touched by them (as timeit reports).
    walls, rows = {"ranges": [], "sharded": []}, {}
    for repeat in range(SPEEDUP_REPEATS):
        order = [("ranges", in_process_ranges), ("sharded", sharded)]
        for label, call in order[:: 1 if repeat % 2 == 0 else -1]:
            started = time.perf_counter()
            rows[label] = call()
            walls[label].append(time.perf_counter() - started)

    assert rows["sharded"].trials == single.trials, (
        "sharded-vectorized results must be bit-identical to single-process "
        "on the same (seed, k) Philox keys"
    )
    assert rows["sharded"].summary() == single.summary()
    assert rows["ranges"] == single.trials

    ranges_s, sharded_s = min(walls["ranges"]), min(walls["sharded"])
    speedup = ranges_s / sharded_s
    print(
        f"\nsweep sharding (trials={SWEEP_TRIALS}, n={SWEEP_N}, t={SWEEP_T}, "
        f"workers={workers}, cores={cores}): shard ranges in process "
        f"{ranges_s * 1000:.1f} ms, sharded {sharded_s * 1000:.1f} ms (best of "
        f"{SPEEDUP_REPEATS}), speedup {speedup:.2f}x (identical results, "
        f"mean rounds {single.mean_rounds:.1f})"
    )
    from benchmarks.harness import update_summary

    update_summary(
        "sweep-sharding/committee-las-vegas",
        {
            "kind": "throughput",
            "protocol": "committee-ba-las-vegas",
            "adversary": "coin-attack",
            "n": SWEEP_N,
            "t": SWEEP_T,
            "trials": SWEEP_TRIALS,
            "workers": workers,
            "cores": cores,
            "ranges_seconds": ranges_s,
            "sharded_seconds": sharded_s,
            "speedup": speedup,
            "bit_identical": True,
        },
    )
    if cores >= 2:
        floor = MIN_SHARD_SPEEDUP if cores >= 4 else 0.75 * cores
        assert speedup >= floor, (
            f"sharded executor only {speedup:.2f}x faster than its shard ranges "
            f"run in process on {cores} cores (floor {floor}x)"
        )


def test_sharded_baseline_kernel_is_bit_identical():
    """Trial-offset sharding also holds for a baseline kernel (dealer-coin)."""
    kwargs = dict(
        protocol="rabin", adversary="coin-attack", inputs="split",
        trials=40, base_seed=11,
    )
    single = run_sweep(256, 40, engine="vectorized", **kwargs)
    sharded = run_sweep(256, 40, engine="vectorized", workers=4, **kwargs)
    assert sharded.trials == single.trials
    assert sharded.summary() == single.summary()
