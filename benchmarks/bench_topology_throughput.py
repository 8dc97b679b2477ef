"""Masked-plane overhead: the topology axis must stay cheap.

The masked communication path replaces the global boolean tallies with
per-recipient contractions against the adjacency / delivered-edge masks, so
it costs more than the historical clique path — the question is how much.
The ``AdjacencyCounter`` keeps the loss-free answer small with two
strategies (row totals on the complete graph, an AND+popcount word tally on
every other mask); the lossy path tallies each round's delivered masks as
words (``PackedDeliveredChannel``).  This benchmark pins the result three
ways:

* an **all-True adjacency** (the masked path on a clique-equal graph) must
  be *bit-identical* to the unmasked default and at most ``2x`` slower at
  ``n=512`` — the acceptance bar for keeping the axis first-class rather
  than a slow side branch;
* a **ring** run at the same size times the word tally on a sparse mask
  without a bar: the degree-2 graph livelocks trials to the phase bound by
  design, so its wall-clock mixes per-phase cost with a larger phase count.
  An end-to-end lossy sweep (``n=128``, packed vs numpy backend) rides
  along: results must be bit-identical, and both wall-clocks are recorded
  (no bar — the lossy path is dominated by the per-trial ``(n, n)`` Philox
  draws the bit-identity contract fixes);
* those **loss draws** themselves: both draw kernels — the compiled one
  (Philox, threshold and word packing fused in C) and the NumPy one (raw
  outputs against an integer threshold), trials spread over one thread per
  CPU — must reproduce the serial ``random() >= loss`` loop bit for bit —
  the recipient-major words the engines draw (``sample_delivered_words``
  into one zeroed buffer it reuses, checked against the loop's planes
  packed outside any timed region) and generator states — at ``n=512``
  with 64 trials, and the kernel this process draws with (native when its
  build succeeded) must beat the loop by at least ``1.3x`` when the process
  may use two or more CPUs (on one CPU only identity is asserted).

All measurements are folded into ``benchmarks/results/summary.json`` for
cross-PR trajectory tracking.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import native
from repro.simulator.vectorized import run_vectorized_trials
from repro.topology import build_topology
from repro.topology.counting import pack_sender_words, word_width
from repro.topology.loss import sample_delivered_words

#: Overhead comparison configuration: large enough that the plane work
#: (not Python dispatch) dominates.  `straddle` keeps every trial running
#: the full schedule, so the comparison is not skewed by early exits.
BENCH_N = 512
BENCH_T = 64
BENCH_TRIALS = 64

#: The lossy path samples a per-trial (n, n) delivered-edge matrix each
#: round, which dwarfs the tally work at n=512 — measure it where the
#: protocol work is still visible next to the sampling cost.
LOSSY_N = 128
LOSSY_T = 16

#: Acceptance bar: masked all-True adjacency vs the unmasked clique path.
MAX_MASKED_OVERHEAD = 2.0

#: Per-edge loss of the loss-draw comparison.
DRAW_LOSS = 0.05

#: Acceptance floor: the shared loss-draw kernel vs the serial reference
#: loop, n=512 and 64 trials, when at least two CPUs are available.
MIN_DRAW_SPEEDUP = 1.3


def _run(n, t, adjacency=None, loss=0.0, backend=None, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run_vectorized_trials(
            n, t, protocol="committee-ba", adversary="coin-attack",
            inputs="split", trials=BENCH_TRIALS, seed=17,
            adjacency=adjacency, loss=loss, backend=backend,
        )
        best = min(best, time.perf_counter() - started)
    return best, result


def _best(fn, repeats=20):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _identical(ours, reference):
    for vec, ref in zip(ours, reference):
        assert vec.rounds == ref.rounds
        assert vec.agreement == ref.agreement
        assert vec.validity == ref.validity
        assert vec.decision == ref.decision
        assert vec.messages == ref.messages
        assert vec.bits == ref.bits


def test_masked_overheads_are_bounded_and_backends_identical():
    """All-True <= 2x and bit-identical; lossy packed == numpy."""
    unmasked_s, unmasked = _run(BENCH_N, BENCH_T)
    masked_s, masked = _run(
        BENCH_N, BENCH_T, adjacency=np.ones((BENCH_N, BENCH_N), dtype=bool)
    )
    _identical(masked, unmasked)

    ring_s, _ = _run(BENCH_N, BENCH_T, adjacency=build_topology("ring", BENCH_N))

    # End-to-end lossy run: the packed backend must reproduce the numpy
    # backend bit for bit on the same (seed, k) Philox keys.
    lossy_numpy_s, lossy_numpy = _run(LOSSY_N, LOSSY_T, loss=0.01, backend="numpy")
    lossy_packed_s, lossy_packed = _run(LOSSY_N, LOSSY_T, loss=0.01, backend="packed")
    _identical(lossy_packed, lossy_numpy)

    overhead = masked_s / unmasked_s
    agreement_rate = sum(row.agreement for row in lossy_packed) / len(lossy_packed)
    print(
        f"\ntopology overhead (n={BENCH_N}, t={BENCH_T}, trials={BENCH_TRIALS}): "
        f"unmasked {unmasked_s * 1000:.1f} ms, masked(all-True) "
        f"{masked_s * 1000:.1f} ms ({overhead:.2f}x), ring "
        f"{ring_s * 1000:.1f} ms; lossy(0.01, n={LOSSY_N}) numpy "
        f"{lossy_numpy_s * 1000:.1f} ms vs packed {lossy_packed_s * 1000:.1f} ms (agreement "
        f"{agreement_rate:.2f})"
    )
    from benchmarks.harness import update_summary

    update_summary(
        "topology-throughput/masked-clique",
        {
            "kind": "throughput",
            "protocol": "committee-ba",
            "adversary": "coin-attack",
            "n": BENCH_N,
            "t": BENCH_T,
            "trials": BENCH_TRIALS,
            "unmasked_seconds": unmasked_s,
            "masked_seconds": masked_s,
            "masked_overhead": overhead,
            "ring_seconds": ring_s,
            "bit_identical": True,
        },
    )
    update_summary(
        "topology-throughput/lossy-backends",
        {
            "kind": "throughput",
            "n": LOSSY_N,
            "t": LOSSY_T,
            "trials": BENCH_TRIALS,
            "loss": 0.01,
            "numpy_seconds": lossy_numpy_s,
            "packed_seconds": lossy_packed_s,
            "bit_identical": True,
        },
    )
    assert overhead <= MAX_MASKED_OVERHEAD, (
        f"masked all-True adjacency path is {overhead:.2f}x the unmasked "
        f"clique path at n={BENCH_N} (bar {MAX_MASKED_OVERHEAD}x)"
    )


def _serial_draws(loss, n, rngs, running):
    """The serial reference loop: one ``random`` plane per running trial."""
    delivered = np.zeros((len(running), n, n), dtype=bool)
    draw = np.empty((n, n), dtype=np.float64)
    for b in np.flatnonzero(running):
        rngs[b].random(out=draw)
        kept = draw >= loss
        np.fill_diagonal(kept, True)
        delivered[b] = kept
    return delivered


def _plain(value):
    """A ``bit_generator.state`` value with its arrays as lists, for ``==``."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def test_loss_draw_kernel_is_bit_identical_and_beats_the_serial_loop(monkeypatch):
    """Both draw kernels == serial loop; the one in use >= 1.3x on two or more CPUs."""
    n, batch = BENCH_N, BENCH_TRIALS
    running = np.ones(batch, dtype=bool)
    kernel, detail = native.status()

    def generators():
        return [np.random.Generator(np.random.Philox(key=(11, k))) for k in range(batch)]

    def timed_kernel(name):
        """Check ``name``'s draws against the loop; its best batch time."""
        with monkeypatch.context() as patch:
            if name == "numpy":
                patch.setattr(native, "_handle", "the NumPy kernel, timed on its own")
            serial_rngs, kernel_rngs = generators(), generators()
            planes = _serial_draws(DRAW_LOSS, n, serial_rngs, running)
            # Row i of a trial's words packs the senders reaching recipient i:
            # the transposed sender-major plane.
            expected = np.stack([pack_sender_words(plane.T, n) for plane in planes])
            words = np.zeros((batch, n, word_width(n)), dtype=np.uint64)
            drawn = sample_delivered_words(None, DRAW_LOSS, n, kernel_rngs, running, out=words)
            assert np.array_equal(drawn, expected), name
            assert [_plain(r.bit_generator.state) for r in kernel_rngs] == [
                _plain(r.bit_generator.state) for r in serial_rngs
            ], name
            # The kernel keeps drawing from its (advanced) streams while timed,
            # into the one buffer, as the engines draw.
            return _best(
                lambda: sample_delivered_words(
                    None, DRAW_LOSS, n, kernel_rngs, running, out=words
                ),
                repeats=5,
            )

    seconds = {name: timed_kernel(name) for name in dict.fromkeys([kernel, "numpy"])}
    serial_rngs = generators()
    serial_s = _best(lambda: _serial_draws(DRAW_LOSS, n, serial_rngs, running), repeats=5)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    speedup = serial_s / seconds[kernel]
    print(
        f"\nloss draws (n={n}, trials={batch}, loss={DRAW_LOSS}, {cpus} CPUs): "
        f"serial {serial_s * 1000:.1f} ms vs "
        + " vs ".join(f"{name} {s * 1000:.1f} ms" for name, s in seconds.items())
        + f"; {kernel} ({detail}) {speedup:.2f}x, bit-identical"
    )
    from benchmarks.harness import update_summary

    update_summary(
        "topology-throughput/loss-draws",
        {
            "kind": "throughput",
            "n": n,
            "trials": batch,
            "loss": DRAW_LOSS,
            "cpus": cpus,
            "kernel": kernel,
            "serial_seconds": serial_s,
            "kernel_seconds": seconds[kernel],
            # Batch wall time per plane, with the draw pool on every CPU.
            **{f"{name}_plane_ms": s * 1000 / batch for name, s in seconds.items()},
            "speedup": speedup,
            "bit_identical": True,
        },
    )
    if cpus >= 2:
        assert speedup >= MIN_DRAW_SPEEDUP, (
            f"loss-draw kernel ({kernel}) is only {speedup:.2f}x the serial loop at "
            f"n={n} on {cpus} CPUs (floor {MIN_DRAW_SPEEDUP}x)"
        )
