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
  :func:`sample_delivered_words`, as recipient-major packed words — trials
  draw only from their own generators, so per-trial results stay
  independent of batching and compaction, exactly like the committee share
  draws;
* the object :class:`~repro.simulator.scheduler.SynchronousScheduler` turns
  the same Bernoulli model into per-round ``(sender, recipient)`` drop sets
  via :func:`sample_drops`, drawing from a dedicated network stream of the
  run's :class:`~repro.simulator.rng.RandomnessSource`.

The two paths consume *different* streams, so off-clique/lossy
cross-validation between them is statistical, never bit-exact.

The per-trial draws are the engines' hot path, so one routine
(:func:`_sample_kept`) draws them, always into the packed words, and spreads
the running trials over a thread pool with one worker per CPU in the
process' affinity mask.  Each trial still draws only from its own stream,
in order, so the split never shows in the results.  :func:`sample_delivered`
is a view of the same draws: the words unpacked sender-major into
``(B, n, n)`` booleans.  Instead of ``random() >= loss`` every trial compares
raw 64-bit outputs against ``ceil(loss * 2**53) << 11``: for a bit generator
whose ``random()`` is ``(next_uint64 >> 11) * 2**-53`` (Philox and PCG64)
the two are the same test on the same draws, leaving the generator in the
same state — without the float conversion.

Two kernels draw a trial's plane, with identical words and stream states:

* the **native** kernel (``_native.c``, built by :mod:`repro.native` on
  the first draw that wants it) fuses the Philox draws, the compare and
  the word packing into one compiled pass.  It draws a
  :class:`~repro.simulator.draws.TrialStreams` cursor row straight from its
  key and word count (the row only advances its cursor and never becomes a
  generator), and a Philox generator row through a ``bit_generator.state``
  read and write;
* the **NumPy** kernel — ``random_raw`` blocks, ``>=``, then
  ``np.packbits`` — draws every other row (PCG64, a Philox counter past its
  low word, an output the native kernel cannot write in place), and every
  row when the native build failed.  It is the oracle the native kernel is
  tested against.

Both release the GIL while they draw (``ctypes`` calls, NumPy's bulk fills),
so the workers never contend.  Forked processes (the workers of a
``workers > 1`` sweep) draw inline: the parent already spreads trials across
processes, and a pool inherited through ``fork`` has no threads behind it.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro import native
from repro.exceptions import ConfigurationError
from repro.observability.tracer import current_tracer
from repro.simulator.draws import TrialStreams
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
    """One round's delivered-edge matrices for a batch of trials, as booleans.

    A view of :func:`sample_delivered_words`: the same draws, leaving the
    streams in the same state, with each trial's words unpacked
    sender-major.

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
            place of a fresh allocation.

    Returns:
        ``(B, n, n)`` boolean delivered-edge matrices (``out`` when given):
        entry ``[b, j, i]`` is True when ``j``'s round message reaches ``i``
        in trial ``b``.  The diagonal is always delivered; non-running rows
        are all-False (they carry no traffic).
    """
    words = np.zeros((len(running), n, word_width(n)), dtype=np.uint64)
    _sample_kept(adjacency, loss, n, rngs, running, words)
    delivered = np.empty((len(running), n, n), dtype=bool) if out is None else out
    for b, rows in enumerate(words):
        # Row i of a trial's words lists the senders reaching recipient i,
        # so it unpacks to column i of the sender-major matrix.
        delivered[b] = np.unpackbits(rows.view(np.uint8), axis=1, count=n).view(bool).T
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

    One ``(n, n)`` uniform plane per running trial, each trial's kept matrix
    emitted as ``(n, ceil(n/64))`` uint64 words — row ``i`` packs the
    senders whose round messages reach recipient ``i``, in the
    :func:`repro.topology.counting.pack_sender_words` layout — so the masked
    tallies run as AND+popcount word contractions
    (:class:`repro.topology.counting.PackedDeliveredChannel`).

    Args:
        adjacency, loss, n, rngs, running: As for :func:`sample_delivered`.
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
    _sample_kept(adjacency, loss, n, rngs, running, delivered)
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
    delivered: np.ndarray,
) -> None:
    """Draw each running trial's kept ``(n, n)`` matrix into ``delivered[b]``.

    Trial ``b`` consumes exactly the ``n * n`` outputs ``rngs[b].random()``
    would, row-major, and keeps entry ``[j, i]`` when it is on the diagonal,
    or when its draw is ``>= loss`` and ``adjacency`` has the edge.
    ``delivered[b]`` receives the matrix as the recipient-major words of
    :func:`sample_delivered_words` (the pad bytes beyond ``ceil(n/8)`` are
    never written).  The running trials are split into contiguous chunks,
    one per draw thread; each thread writes only its own trials' rows.
    """
    live = np.flatnonzero(running).tolist()
    edges = None if adjacency is None else np.ascontiguousarray(adjacency, dtype=bool)
    # The native kernel writes through raw pointers: only into an output it
    # can fill in place, and only with an (n, n) topology.
    kernel = (
        native.kernel()
        if delivered.flags.c_contiguous
        and delivered.shape == (len(running), n, word_width(n))
        and delivered.dtype == np.uint64
        and (edges is None or edges.shape == (n, n))
        else None
    )
    streams = rngs if kernel is not None and isinstance(rngs, TrialStreams) else None
    # Look every source up here, on the calling thread: the native kernel
    # claims a cursor row's plane from its TrialStreams, and any other row
    # of a TrialStreams materialises its generator on first access.
    sources: dict[int, tuple[int, int, int] | np.random.BitGenerator] = {}
    for b in live:
        source = None if streams is None else streams.claim_raw(b, n * n)
        if source is None:
            source = rngs[b].bit_generator
            if not isinstance(source, _RAW_DOUBLE_BIT_GENERATORS):
                raise ConfigurationError(
                    "loss draws compare raw outputs against a threshold, which "
                    "reproduces random() only for Philox and PCG64 bit generators; "
                    f"got {type(source).__name__}"
                )
        sources[b] = source
    threshold = _raw_threshold(loss)
    raw_threshold = int(threshold)
    nbytes = (n + 7) // 8
    rows = max(1, _BLOCK_VALUES // n)
    if kernel is not None:
        edges_address = None if edges is None else edges.ctypes.data
        base = delivered.ctypes.data
        stride, row_bytes = delivered.strides[:2]

    def draw(chunk: list[int]) -> int:
        """Draw ``chunk``'s trials; returns how many took the NumPy kernel."""
        kept = None  # the NumPy kernel's work matrix, reused across trials
        fallbacks = 0
        for b in chunk:
            if kernel is not None and kernel.loss_plane(
                sources[b], n, raw_threshold, edges_address, base + b * stride, row_bytes
            ):
                continue
            fallbacks += 1
            if kept is None:
                kept = np.empty((n, n), dtype=bool)
            generator = sources[b]
            for start in range(0, n, rows):
                block = kept[start : start + rows]
                np.greater_equal(generator.random_raw(block.shape), threshold, out=block)
            if edges is not None:
                kept &= edges
            np.einsum("ii->i", kept)[:] = True
            # Row i of the transpose lists recipient i's incoming senders;
            # packing it MSB-first gives the recipient-major byte rows of the
            # little-endian word view.  Packing a contiguous copy along its
            # last axis is ~2x faster than packing `kept` along axis 0, and
            # unlike that it releases the GIL.
            delivered[b].view(np.uint8)[:, :nbytes] = np.packbits(kept.T.copy(), axis=1)
        return fallbacks

    # A generator shared between trials must be drawn from in trial order.
    owners = [id(source) for source in sources.values() if not isinstance(source, tuple)]
    shared = len(set(owners)) < len(owners)
    chunks = 1 if shared else min(_workers, len(live))
    with current_tracer().span("engine.draw.loss", running=len(live)) as span:
        if chunks <= 1:
            fallbacks = draw(live)
        else:
            # sum() waits for every chunk and re-raises a worker's exception.
            fallbacks = sum(
                _draw_pool().map(draw, [c.tolist() for c in np.array_split(live, chunks)])
            )
        span.annotate(kernel="native" if kernel is not None and not fallbacks else "numpy")


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
