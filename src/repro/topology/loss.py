"""The i.i.d. per-edge message-loss model.

Loss is sampled per *directed* edge per communication round: a message from
``j`` to ``i`` (``j != i``) is dropped independently with probability
``loss``.  Self-delivery never fails — a node's own value is local state,
not a network message — so the diagonal of every delivered-edge matrix is
forced True.  Directed sampling (the ``j -> i`` and ``i -> j`` draws are
independent) matches the object simulator, where each
:class:`~repro.simulator.messages.Message` is dropped individually.

Two consumers share this module:

* the masked :class:`~repro.simulator.phase_engine.PhaseEngine` and the
  phase-king kernel draw one ``(n, n)`` uniform plane per (running trial,
  round) from the trial's own Philox generator via
  :func:`sample_delivered_words` (phase king's round 2, which reads only the
  king's row, via :func:`sample_delivered`) — trials draw only from their
  own generators, so per-trial results stay independent of batching and
  compaction, exactly like the committee share draws;
* the object :class:`~repro.simulator.scheduler.SynchronousScheduler` turns
  the same Bernoulli model into per-round ``(sender, recipient)`` drop sets
  via :func:`sample_drops`, drawing from a dedicated network stream of the
  run's :class:`~repro.simulator.rng.RandomnessSource`.

The two paths consume *different* streams, so off-clique/lossy
cross-validation between them is statistical, never bit-exact.

The per-trial draws are the engines' hot path, so both batch samplers share
one kernel (:func:`_sample_kept`) that spreads the running trials over a
thread pool with one worker per CPU in the process' affinity mask.  Each
trial still draws only from its own generator, in order, so the split never
shows in the results; NumPy releases the GIL in the bulk fills and every bit
generator has its own lock, so the workers never contend.  Instead of
``random() >= loss`` the kernel compares raw 64-bit outputs against
``ceil(loss * 2**53) << 11``: for a bit generator whose ``random()`` is
``(next_uint64 >> 11) * 2**-53`` (Philox and PCG64) the two are the same
test on the same draws, leaving the generator in the same state — without
the float conversion.  Forked processes (the workers of a ``workers > 1``
sweep) draw inline: the parent already spreads trials across processes, and
a pool inherited through ``fork`` has no threads behind it.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.observability.tracer import current_tracer
from repro.topology.counting import word_width

__all__ = [
    "sample_delivered",
    "sample_delivered_words",
    "sample_drops",
    "validate_loss",
]

#: Bit generators whose ``random()`` is ``(next_uint64 >> 11) * 2**-53``, so
#: a raw-output threshold reproduces ``random() >= loss`` exactly (MT19937
#: builds its doubles from two 32-bit outputs and is not one of them).
_RAW_DOUBLE_BIT_GENERATORS = (np.random.Philox, np.random.PCG64)

#: Raw draws per row block: the block and the worker's kept matrix stay in
#: cache, and no worker ever holds a whole float64 ``(n, n)`` plane.
_BLOCK_VALUES = 1 << 15

#: Draw threads: one per CPU this process may run on (1 in a forked child).
_workers = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _draw_pool() -> ThreadPoolExecutor:
    """The draw thread pool, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_workers, thread_name_prefix="loss-draw")
        return _pool


def _draw_inline_after_fork() -> None:
    global _workers, _pool
    _workers, _pool = 1, None


if hasattr(os, "register_at_fork"):  # POSIX; nothing is forked elsewhere
    os.register_at_fork(after_in_child=_draw_inline_after_fork)


def validate_loss(loss: float) -> float:
    """Validate a per-edge loss probability (``0 <= loss < 1``)."""
    loss = float(loss)
    if not 0.0 <= loss < 1.0:
        raise ConfigurationError(
            f"loss must be a probability in [0, 1), got {loss}"
        )
    return loss


def sample_delivered(
    adjacency: np.ndarray | None,
    loss: float,
    n: int,
    rngs: Sequence[np.random.Generator],
    running: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One round's delivered-edge matrices for a batch of trials.

    Args:
        adjacency: ``(n, n)`` boolean topology, or ``None`` for the clique.
        loss: Per-edge drop probability (> 0; the loss-free masked path uses
            the constant adjacency directly and draws nothing).
        n: Network size.
        rngs: Per-trial generators; trial ``b`` draws one ``(n, n)`` uniform
            plane — only if it is still running, so finished (compacted-away)
            trials never consume loss randomness.
        running: ``(B,)`` liveness mask.
        out: Optional ``(B, n, n)`` boolean buffer to fill and return in
            place of a fresh allocation; rows of trials that are not running
            are zeroed.  The consumed Philox stream is identical either way.

    Returns:
        ``(B, n, n)`` boolean delivered-edge matrices (``out`` when given):
        entry ``[b, j, i]`` is True when ``j``'s round message reaches ``i``
        in trial ``b``.  The diagonal is always delivered; non-running rows
        are all-False (they carry no traffic).
    """
    batch = len(running)
    if out is None:
        delivered = np.zeros((batch, n, n), dtype=bool)
    else:
        delivered = out
        idle = ~np.asarray(running, dtype=bool)
        if idle.any():
            delivered[idle] = False

    def emit(b: int, kept: np.ndarray) -> None:
        delivered[b] = kept

    _sample_kept(adjacency, loss, n, rngs, running, emit)
    return delivered


def sample_delivered_words(
    adjacency: np.ndarray | None,
    loss: float,
    n: int,
    rngs: Sequence[np.random.Generator],
    running: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One round's delivered-edge matrices, bit-packed recipient-major.

    The *same* per-trial Philox draws as :func:`sample_delivered`, in the
    same order (one ``(n, n)`` uniform plane per running trial), but each
    trial's kept matrix is emitted as ``(n, ceil(n/64))`` uint64 words — row
    ``i`` packs the senders whose round messages reach recipient ``i``, in
    the :func:`repro.topology.counting.pack_sender_words` layout — so the
    masked tallies run as AND+popcount word contractions
    (:class:`repro.topology.counting.PackedDeliveredChannel`).

    Args:
        out: Optional ``(B, n, ceil(n/64))`` uint64 buffer.  Must start
            zeroed the first time (the pad bytes beyond ``ceil(n/8)`` are
            never written and rely on staying zero — the packed tail-bit
            invariant); rows of trials that stop running are re-zeroed here.

    Returns:
        ``(B, n, ceil(n/64))`` uint64 words (``out`` when given): bit ``j``
        of row ``[b, i]`` is set when ``j``'s round message reaches ``i``
        in trial ``b``.  The diagonal is always delivered; non-running rows
        are all-zero.
    """
    batch = len(running)
    if out is None:
        delivered = np.zeros((batch, n, word_width(n)), dtype=np.uint64)
    else:
        delivered = out
        idle = ~np.asarray(running, dtype=bool)
        if idle.any():
            delivered[idle] = 0
    nbytes = (n + 7) // 8

    def emit(b: int, kept: np.ndarray) -> None:
        # Row i of the transpose lists recipient i's incoming senders;
        # packing it MSB-first gives the recipient-major byte rows of the
        # little-endian word view.  Packing a contiguous copy along its last
        # axis is ~2x faster than packing `kept` along axis 0, and unlike
        # that it releases the GIL.
        delivered[b].view(np.uint8)[:, :nbytes] = np.packbits(kept.T.copy(), axis=1)

    _sample_kept(adjacency, loss, n, rngs, running, emit)
    return delivered


def _raw_threshold(loss: float) -> np.uint64:
    """The raw output ``x`` at and above which ``(x >> 11) * 2**-53 >= loss``.

    ``loss * 2**53`` is exact (a power-of-two scaling) and ``x >> 11`` is an
    integer, so the float test is ``x >> 11 >= ceil(loss * 2**53)``, which is
    ``x >= ceil(loss * 2**53) << 11``; for ``loss < 1`` that fits in 64 bits.
    """
    return np.uint64(math.ceil(loss * 2.0**53) << 11)


def _sample_kept(
    adjacency: np.ndarray | None,
    loss: float,
    n: int,
    rngs: Sequence[np.random.Generator],
    running: np.ndarray,
    emit: Callable[[int, np.ndarray], None],
) -> None:
    """Draw each running trial's kept ``(n, n)`` matrix; ``emit(b, kept)`` it.

    Trial ``b`` consumes exactly the ``n * n`` outputs ``rngs[b].random()``
    would, row-major, and keeps entry ``[j, i]`` when it is on the diagonal,
    or when its draw is ``>= loss`` and ``adjacency`` has the edge.  The
    running trials are split into contiguous chunks, one per draw thread;
    ``emit`` runs on the thread that drew ``b`` and must write only trial
    ``b``'s output.  ``kept`` is that thread's scratch, reused for its next
    trial.
    """
    live = np.flatnonzero(running)
    # Look every generator up here, on the calling thread: a
    # TrialStreams row materialises its generator on first access.
    generators = {b: rngs[b].bit_generator for b in live.tolist()}
    for generator in generators.values():
        if not isinstance(generator, _RAW_DOUBLE_BIT_GENERATORS):
            raise ConfigurationError(
                "loss draws compare raw outputs against a threshold, which "
                "reproduces random() only for Philox and PCG64 bit generators; "
                f"got {type(generator).__name__}"
            )
    threshold = _raw_threshold(loss)
    rows = max(1, _BLOCK_VALUES // n)

    def draw(chunk: np.ndarray) -> None:
        kept = np.empty((n, n), dtype=bool)
        for b in chunk.tolist():
            generator = generators[b]
            for start in range(0, n, rows):
                block = kept[start : start + rows]
                np.greater_equal(generator.random_raw(block.shape), threshold, out=block)
            if adjacency is not None:
                kept &= adjacency
            np.einsum("ii->i", kept)[:] = True
            emit(b, kept)

    # A generator shared between trials must be drawn from in trial order.
    shared = len({id(generator) for generator in generators.values()}) < len(generators)
    chunks = 1 if shared else min(_workers, len(live))
    with current_tracer().span("engine.draw.loss", running=len(live)):
        if chunks <= 1:
            draw(live)
            return
        # list() waits for every chunk and re-raises a worker's exception.
        list(_draw_pool().map(draw, np.array_split(live, chunks)))


def sample_drops(
    adjacency: np.ndarray | None,
    loss: float,
    n: int,
    rng: np.random.Generator | None,
) -> set[tuple[int, int]]:
    """One round's ``(sender, recipient)`` drop set for the object simulator.

    The complement view of :func:`sample_delivered`: every directed
    non-self pair that is either outside the topology or loss-sampled away
    this round.  One ``(n, n)`` uniform plane is drawn from ``rng`` per call
    when ``loss > 0`` (none when the loss model is off), so the per-round
    draw schedule is a deterministic function of the round count.
    """
    dropped = np.zeros((n, n), dtype=bool)
    if adjacency is not None:
        dropped |= ~adjacency
    if loss > 0.0:
        dropped |= rng.random((n, n)) < loss
    np.einsum("ii->i", dropped)[:] = False
    senders, recipients = np.nonzero(dropped)
    return {(int(j), int(i)) for j, i in zip(senders, recipients)}
