"""The delivery channels: what each recipient hears of one round.

A round's honest broadcasts reach recipient ``i`` from every sender ``j``
with a delivering edge ``j -> i``, so a per-recipient tally is ``counts[b,
i] = sum_j sent[b, j] * A[j, i]``.  Three channels answer it, and
:class:`repro.topology.loss.Delivery` hands the engines one per round:

* :class:`CliqueChannel` — the complete graph, the paper's model: every
  broadcast reaches every node, so each recipient's tally is the global
  count the engine already holds for the adversary kernel, handed back as a
  broadcastable ``(B, 1)`` column.  It never reads the plane;
* :class:`AdjacencyCounter` — a fixed loss-free mask shared by every trial;
* :class:`PackedDeliveredChannel` — one lossy round's per-trial
  delivered-edge masks, the ``(B, n, ceil(n/64))`` uint64 output of
  :func:`repro.topology.loss.sample_delivered_words`.

The last two are one word channel: an AND+popcount over packed uint64 words
in the :func:`pack_sender_words` layout, whose cost is the same at any
density.  It reads a plane's
:meth:`~repro.simulator.planes.base.Plane.words`: the packed plane backend
its stored words as they are, the numpy-bool backend its array packed once
per call.  Every channel produces bit-identical ``int64`` counts.  The
**channel protocol** (duck-typed; called by
:meth:`repro.simulator.phase_engine.PhaseEngine.run_batch` and the
phase-king kernel) is:

* ``receive_counts(plane, count)`` — a plane and its ``(B,)`` global count
  -> per-recipient counts, ``(B, 1)`` on the clique, ``(B, n)`` on a mask;
* ``delivered_edges(counts)`` — those counts -> the ``(B,)`` delivered
  edges, the CONGEST message counter;
* ``signed_counts(shares, start, total)`` — a committee slice of ±1 coin
  shares from column ``start`` and its ``(B,)`` sum -> per-recipient share
  sums.

Telemetry: every word tally counts ``masked_tally.packed``, so trace reports
show the tallies a masked run paid for; the clique tallies nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.observability.tracer import current_tracer

if TYPE_CHECKING:
    from repro.simulator.planes.base import Plane


def word_width(n: int) -> int:
    """uint64 words per ``n``-node bit row (``ceil(n / 64)``, at least 1)."""
    return max(1, -(-n // 64))


def pack_sender_words(array: np.ndarray, n: int) -> np.ndarray:
    """Pack a ``(B, n)`` boolean plane into ``(B, ceil(n/64))`` uint64 words.

    The byte stream is ``np.packbits(array, axis=1)`` (MSB-first bytes)
    zero-padded to whole little-endian words, so the tail bits beyond column
    ``n`` are zero.  This is the one word layout of the repository: the
    packed plane backend stores its planes in it, so its words feed the word
    channels here directly.
    """
    batch = array.shape[0]
    width = word_width(n)
    buffer = np.zeros((batch, width * 8), dtype=np.uint8)
    if n:
        buffer[:, : (n + 7) // 8] = np.packbits(array, axis=1)
    return buffer.view(np.uint64)


class CliqueChannel:
    """The complete graph: every recipient's tally is the global count."""

    def __init__(self, n: int) -> None:
        self.n = n

    def receive_counts(self, plane: Plane, count: np.ndarray) -> np.ndarray:
        return count[:, None]

    def delivered_edges(self, counts: np.ndarray) -> np.ndarray:
        return counts[:, 0] * self.n

    def signed_counts(self, shares: np.ndarray, start: int, total: np.ndarray) -> np.ndarray:
        return total[:, None]


class PackedDeliveredChannel:
    """A word channel: AND+popcount tallies over packed incoming-edge words.

    ``incoming`` holds, for each recipient ``i``, the bit row of senders
    whose messages reach ``i``: shape ``(B, n, W)`` for one lossy round's
    per-trial delivered-edge masks (the output of
    :func:`repro.topology.loss.sample_delivered_words`) or ``(n, W)`` for a
    fixed adjacency mask shared by every trial (:class:`AdjacencyCounter`).
    A tally contracts a ``(B, W)`` packed sender plane against it one word
    column at a time — a ``(B, n)`` uint64 AND / popcount / accumulate loop
    that never materialises a ``(B, n, W)`` intermediate.
    """

    def __init__(self, incoming: np.ndarray, n: int) -> None:
        self.incoming = incoming
        self.n = n
        # Per-word popcounts are <= 64 and there are ceil(n/64) of them, so
        # the per-recipient total is bounded by n: uint16 accumulation is
        # exact up to 65535 nodes and meaningfully faster than int64.
        self._acc_dtype = np.uint16 if n < (1 << 16) else np.int64

    def receive_counts(self, plane: Plane, count: np.ndarray) -> np.ndarray:
        return self.receive_counts_words(plane.words())

    def receive_counts_words(self, sent_words: np.ndarray) -> np.ndarray:
        """``(B, n)`` int64 tallies of a ``(B, W)`` packed sender plane."""
        current_tracer().count("masked_tally.packed")
        batch = sent_words.shape[0]
        static = self.incoming.ndim == 2
        acc = np.zeros((batch, self.n), dtype=self._acc_dtype)
        joined = np.empty((batch, self.n), dtype=np.uint64)
        percount = np.empty((batch, self.n), dtype=np.uint8)
        for w in range(self.incoming.shape[-1]):
            # A word column no trial sends from adds nothing (the ±1 share
            # planes are zero outside the committee slice).
            if not sent_words[:, w].any():
                continue
            column = (
                self.incoming[None, :, w] if static else self.incoming[:, :, w]
            )
            np.bitwise_and(sent_words[:, w, None], column, out=joined)
            np.bitwise_count(joined, out=percount)
            acc += percount
        return acc.astype(np.int64)

    def delivered_edges(self, counts: np.ndarray) -> np.ndarray:
        # Every delivered edge lands in exactly one recipient's tally.
        return counts.sum(axis=1)

    def signed_counts(self, shares: np.ndarray, start: int, total: np.ndarray) -> np.ndarray:
        # The positive and negative supports' word tallies, differenced:
        # exact integers, like the clique's global sum.
        plane = np.zeros((len(shares), self.n), dtype=np.int8)
        plane[:, start : start + shares.shape[1]] = shares
        plus = self.receive_counts_words(pack_sender_words(plane > 0, self.n))
        minus = self.receive_counts_words(pack_sender_words(plane < 0, self.n))
        return plus - minus


class AdjacencyCounter(PackedDeliveredChannel):
    """The word channel of a fixed loss-free mask shared by every trial."""

    def __init__(self, adjacency: np.ndarray) -> None:
        n = adjacency.shape[0]
        # Row i packs column i of the mask: the senders reaching i.
        super().__init__(pack_sender_words(np.ascontiguousarray(adjacency.T), n), n)


# An alias for ``sweepbench/layers.py``, which looks this name up when it
# installs its per-layer timers.
DenseDeliveredChannel = PackedDeliveredChannel
