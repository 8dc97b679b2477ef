"""Micro-benchmarks of the plane-op backends.

The :class:`~repro.simulator.phase_engine.PhaseEngine` spends its per-phase
budget on a small fixed mix of plane ops — row tallies for the threshold
logic, XOR-blends for the state updates — so the backend seam
(:mod:`repro.simulator.planes`) stands or falls on the cost of exactly that
mix.  This module times it in isolation, at the engine-throughput benchmark's
shape (``B=100`` trials, ``n=2000`` nodes):

* **row tallies** (the engine's own: the sender count, the ``value &
  active`` voters, one shared ``active & decided`` recorded plane and its
  value-1 part, each an ``and_plane`` then a ``popcount``): the packed uint64
  backend counts bits over 32x fewer bytes than the boolean reference packs
  per call, and must be at least ``2x`` faster — the regression floor that
  justifies the backend's existence;
* the **phase mix** (a representative phase: four tallies + two blends +
  one mask intersection), reported without a bar: it shows how much of the
  op-level win survives once blend traffic is included.

Both measurements are folded into ``benchmarks/results/summary.json``.  The
end-to-end engine comparison (where Philox share draws bound the run) lives
in ``bench_engine_throughput.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.simulator.planes import resolve_backend

#: The engine-throughput benchmark's working shape.
BATCH = 100
NODES = 2000

#: Timing loop: repeat the op enough that per-call dispatch is amortised,
#: keep the best of several rounds (the standard min-of-k noise filter).
ITERATIONS = 200
ROUNDS = 5

#: Regression floor: packed row tallies vs the boolean reference.  Measured
#: 3.5-5x at this shape; the floor keeps slack for noisy CI machines.
MIN_TALLY_SPEEDUP = 2.0


def _planes(backend_name):
    """A deterministic set of state planes adopted by ``backend_name``."""
    rng = np.random.default_rng(42)
    backend = resolve_backend(backend_name)
    value = rng.random((BATCH, NODES)) < 0.5
    active = rng.random((BATCH, NODES)) < 0.9
    decided = rng.random((BATCH, NODES)) < 0.3
    return (
        backend.from_bools(value.copy()),
        backend.from_bools(active.copy()),
        backend.from_bools(decided.copy()),
    )


def _best_of(fn):
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(ITERATIONS):
            fn()
        best = min(best, (time.perf_counter() - started) / ITERATIONS)
    return best


def _tally_mix(value, active, decided):
    """The round-threshold tallies of one engine phase, as the engine takes them."""
    sender_count = active.popcount()
    ones = value.and_plane(active).popcount()
    recorded = active.and_plane(decided)
    d1 = value.and_plane(recorded).popcount()
    d_all = recorded.popcount()
    return sender_count, ones, d1, d_all


def _phase_mix(value, active, decided, quorum_any, coin):
    """A representative full phase: tallies, blends, mask intersections."""
    _tally_mix(value, active, decided)
    updatable = active.and_plane(decided)
    value.blend_mask(quorum_any, updatable.and_mask(quorum_any))
    decided.blend_mask(coin, updatable)


def test_packed_tallies_beat_bool_reference():
    """Packed row tallies must be >= 2x the boolean reference, bit-equal."""
    results = {}
    timings = {}
    for name in ("numpy", "packed"):
        value, active, decided = _planes(name)
        # Force the packed representation up front: steady-state engine
        # phases run on resident words, which is what this measures.
        timings[name] = _best_of(lambda: _tally_mix(value, active, decided))
        results[name] = _tally_mix(value, active, decided)

    for ours, reference in zip(results["packed"], results["numpy"]):
        np.testing.assert_array_equal(ours, reference)

    quorum_any = np.zeros((BATCH, 1), dtype=bool)
    quorum_any[::2] = True
    coin = np.zeros((BATCH, 1), dtype=bool)
    coin[1::3] = True
    mix_timings = {}
    for name in ("numpy", "packed"):
        value, active, decided = _planes(name)
        mix_timings[name] = _best_of(
            lambda: _phase_mix(value, active, decided, quorum_any, coin)
        )

    tally_speedup = timings["numpy"] / timings["packed"]
    mix_speedup = mix_timings["numpy"] / mix_timings["packed"]
    print(
        f"\nplane ops (B={BATCH}, n={NODES}): tallies bool "
        f"{timings['numpy'] * 1e6:.1f} us, packed "
        f"{timings['packed'] * 1e6:.1f} us ({tally_speedup:.2f}x); "
        f"phase mix bool {mix_timings['numpy'] * 1e6:.1f} us, packed "
        f"{mix_timings['packed'] * 1e6:.1f} us ({mix_speedup:.2f}x)"
    )
    from benchmarks.harness import update_summary

    update_summary(
        "plane-ops/packed-vs-bool",
        {
            "kind": "microbench",
            "batch": BATCH,
            "n": NODES,
            "bool_tally_seconds": timings["numpy"],
            "packed_tally_seconds": timings["packed"],
            "tally_speedup": tally_speedup,
            "bool_phase_mix_seconds": mix_timings["numpy"],
            "packed_phase_mix_seconds": mix_timings["packed"],
            "phase_mix_speedup": mix_speedup,
        },
    )
    assert tally_speedup >= MIN_TALLY_SPEEDUP, (
        f"packed row tallies only {tally_speedup:.2f}x the boolean reference "
        f"at (B={BATCH}, n={NODES}) (floor {MIN_TALLY_SPEEDUP}x)"
    )
